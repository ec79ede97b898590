"""The prioritized default pre-order and fixture equivalence."""

import random

import pytest

from generate import random_theory
from helpers import default_leq, evaluate, fixture_equiv, strictly_better
from parapri.circumscription import _leq_row, _quotient, _transpose, preorder_equivalent
from parapri.errors import UniverseError, ValidationError
from parapri.formula import Interpretation, iter_bits, parse_formula, truth_mask
from parapri.preorder import PreorderSpec
from parapri.theory import PriorityOrder, build_theory
from parapri.transform import parallel_theory, transform_all

F = parse_formula


def quotient_rows(spec, universe):
    """Packed pre-order rows over every interpretation (bit z2 of rows[z]:
    z is at most as preferred as z2), decided on the cell quotient of the
    full universe and lifted back to interpretations."""
    full = (1 << (1 << len(universe))) - 1
    masks = [truth_mask(f, universe) for _, f in spec.defaults]
    cells, profiles = _quotient(full, masks)
    cell_masks = _transpose(profiles, len(masks))
    cells_full = (1 << len(cells)) - 1
    rows = [0] * (1 << len(universe))
    for cell, p in zip(cells, profiles):
        lifted = 0
        for k2 in iter_bits(_leq_row(p, cell_masks, spec.priority.above, cells_full)):
            lifted |= cells[k2]
        for z in iter_bits(cell):
            rows[z] = lifted
    return rows


def spec_two_levels():
    # one high default 'a', one low default 'b'
    t = build_theory(defaults=[("hi", "a"), ("lo", "b")], prefer=[("hi", "lo")])
    return PreorderSpec.of(t)


def z_of(a, b):
    return Interpretation(("a", "b"), (a, b))


class TestDefaultLeq:
    def test_reflexive(self):
        spec = spec_two_levels()
        for idx in range(4):
            z = Interpretation.from_index(("a", "b"), idx)
            assert default_leq(spec, z, z)

    def test_low_default_decrease_blocks(self):
        spec = spec_two_levels()
        assert not default_leq(spec, z_of(True, True), z_of(True, False))

    def test_dominator_change_makes_low_clause_vacuous(self):
        spec = spec_two_levels()
        assert default_leq(spec, z_of(False, True), z_of(True, False))

    def test_parallel_case_is_pointwise_implication(self):
        rng = random.Random(3)
        for _ in range(30):
            t = random_theory(rng)
            parallel = PreorderSpec.parallel(t.defaults)
            size = 2 ** len(t.universe)
            for _ in range(10):
                z = Interpretation.from_index(t.universe, rng.randrange(size))
                z2 = Interpretation.from_index(t.universe, rng.randrange(size))
                pointwise = all(
                    (not evaluate(f, z)) or evaluate(f, z2) for _, f in t.defaults
                )
                assert default_leq(parallel, z, z2) == pointwise

    def test_universe_mismatch(self):
        spec = spec_two_levels()
        with pytest.raises(UniverseError):
            default_leq(spec, z_of(True, True), Interpretation(("a",), (True,)))

    def test_reflexive_and_transitive_randomly(self):
        rng = random.Random(5)
        for _ in range(15):
            t = random_theory(rng, max_atoms=3)
            spec = PreorderSpec.of(t)
            zs = [Interpretation.from_index(t.universe, i) for i in range(2 ** len(t.universe))]
            rel = {(x.index, y.index) for x in zs for y in zs if default_leq(spec, x, y)}
            for z in zs:
                assert (z.index, z.index) in rel
            for x, y in rel:
                for y2, w in rel:
                    if y == y2:
                        assert (x, w) in rel

    def test_relation_is_reflexive_and_transitive_at_scale(self):
        # full pair/triple coverage at 8 atoms via the packed relation rows
        rng = random.Random(77)
        for _ in range(5):
            t = random_theory(rng, max_atoms=8, max_defaults=4)
            rows = quotient_rows(PreorderSpec.of(t), t.universe)
            size = 2 ** len(t.universe)
            for z in range(size):
                assert (rows[z] >> z) & 1, "not reflexive"
                reachable = 0
                row = rows[z]
                while row:
                    low = row & -row
                    reachable |= rows[low.bit_length() - 1]
                    row ^= low
                assert reachable | rows[z] == rows[z], "not transitive"

    def test_matches_packed_row_computation(self):
        rng = random.Random(9)
        for _ in range(25):
            t = random_theory(rng, max_atoms=4)
            spec = PreorderSpec.of(t)
            rows = quotient_rows(spec, t.universe)
            size = 2 ** len(t.universe)
            for z in range(size):
                row = rows[z]
                for z2 in range(size):
                    expected = default_leq(
                        spec,
                        Interpretation.from_index(t.universe, z),
                        Interpretation.from_index(t.universe, z2),
                    )
                    assert bool((row >> z2) & 1) == expected

    def test_unused_atom_does_not_disturb_the_order(self):
        rng = random.Random(13)
        for _ in range(15):
            t = random_theory(rng, max_atoms=3)
            spec = PreorderSpec.of(t)
            wide = tuple(t.universe) + ("zz",)
            wide_spec = PreorderSpec(t.defaults, t.priority, t.fixtures)
            for _ in range(10):
                i1 = rng.randrange(2 ** len(t.universe))
                i2 = rng.randrange(2 ** len(t.universe))
                narrow = default_leq(
                    spec,
                    Interpretation.from_index(t.universe, i1),
                    Interpretation.from_index(t.universe, i2),
                )
                for pad1 in (0, 1):
                    for pad2 in (0, 1):
                        ext = default_leq(
                            wide_spec,
                            Interpretation.from_index(wide, i1 | (pad1 << len(t.universe))),
                            Interpretation.from_index(wide, i2 | (pad2 << len(t.universe))),
                        )
                        assert ext == narrow


class TestFixtureEquiv:
    def test_empty_fixtures(self):
        assert fixture_equiv([], z_of(True, False), z_of(False, True))

    def test_atom_fixture_differs(self):
        assert not fixture_equiv([F("a")], z_of(True, False), z_of(False, False))

    def test_disjunctive_fixture_held(self):
        z = Interpretation(("p", "q"), (True, False))
        z2 = Interpretation(("p", "q"), (False, True))
        assert fixture_equiv([F("p | q")], z, z2)


class TestStrictlyBetter:
    def test_irreflexive(self):
        spec = spec_two_levels()
        z = z_of(True, False)
        assert not strictly_better(spec, z, z)

    def test_maximizing_single_default(self):
        t = build_theory(defaults=[("d", "a")])
        spec = PreorderSpec.of(t)
        top = Interpretation(("a",), (True,))
        bot = Interpretation(("a",), (False,))
        assert strictly_better(spec, top, bot)
        assert not strictly_better(spec, bot, top)

    def test_fixture_blocks_comparison(self):
        t = build_theory(defaults=[("d", "a")], fixtures=[("f", "a")])
        spec = PreorderSpec.of(t)
        top = Interpretation(("a",), (True,))
        bot = Interpretation(("a",), (False,))
        assert not strictly_better(spec, top, bot)


class TestPreorderSpec:
    def test_order_over_other_labels(self):
        t = build_theory(defaults=[("a", "p"), ("b", "q")])
        with pytest.raises(ValidationError, match="^priority indices do not match default labels$"):
            PreorderSpec(t.defaults, PriorityOrder(("a", "c")))

    def test_identity_nest_checks_like_the_theory(self):
        # The spec of a theory and of a member's defaults carry identity
        # nests; the check answers on them as on the theory and its member.
        rng = random.Random(17)
        for _ in range(20):
            t = random_theory(rng, max_atoms=4, fixture_prob=0.5)
            spec = PreorderSpec.of(t)
            labels = t.priority.indices
            assert spec.nest == (labels, tuple(f for _, f in t.defaults), ((),) * len(labels), labels)
            for m in transform_all(t.defaults, t.priority, limit=4):
                answer = preorder_equivalent(spec, PreorderSpec.parallel(m.defaults), t.universe)
                assert answer and answer == preorder_equivalent(t, parallel_theory(t, m), t.universe)
            flat = PreorderSpec.parallel(t.defaults)
            assert preorder_equivalent(spec, flat, t.universe) == preorder_equivalent(t, flat, t.universe)
