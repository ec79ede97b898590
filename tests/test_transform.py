"""The priority-elimination construction and its size accounting."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generate import random_theory
from helpers import ac_set, build_wil, chain_theory, descending_naive
from parapri import config
from parapri.circumscription import preferred_models, preorder_equivalent, truth_masks
from parapri.errors import CapExceededError, ValidationError
from parapri.formula import And, Atom, Or, parse_formula, truth_mask
from parapri.preorder import PreorderSpec
from parapri.theory import (
    LabeledFormula,
    PriorityOrder,
    build_theory,
    fixtures_to_defaults,
    parallel_order,
    parse_theory,
    print_theory,
)
from parapri.transform import (
    TransformOutput,
    _iter_descending,
    output_size,
    parallel_theory,
    transform_all,
    transform_canonical,
)

F = parse_formula


def descending_sequences(order, label):
    """The descending orderings of ``label``'s dominators, as the transform
    enumerates them, with positions mapped back to labels."""
    sequences = _iter_descending(order, order.above[order.position[label]])
    return [tuple(order.indices[j] for j in sigma) for sigma in sequences]


def pair_theory():
    return build_theory(defaults=[("d1", "p1"), ("d2", "p2")], prefer=[("d1", "d2")])


def columns_theory():
    return build_theory(
        defaults=[("d1", "p1"), ("d2", "p2"), ("d3", "p3"), ("d4", "p4")],
        prefer=[("d1", "d2"), ("d3", "d4")],
    )


def fan_out_theory():
    return build_theory(
        defaults=[("d1", "p1"), ("d2", "p2"), ("d3", "p3")],
        prefer=[("d1", "d2"), ("d1", "d3")],
    )


def fan_in_theory():
    return build_theory(
        defaults=[("d1", "p1"), ("d2", "p2"), ("d3", "p3")],
        prefer=[("d1", "d3"), ("d2", "d3")],
    )


class TestDominators:
    def test_chain_bottom(self):
        t = chain_theory(3)
        assert t.priority.dominators_map["d3"] == {"d1", "d2"}

    def test_empty_order(self):
        order = parallel_order(("a", "b"))
        assert order.dominators_map["a"] == frozenset()

    def test_fan_in(self):
        t = fan_in_theory()
        assert t.priority.dominators_map["d3"] == {"d1", "d2"}
        assert t.priority.dominators_map["d1"] == frozenset()


class TestDescendingSequences:
    def test_chain_unique(self):
        t = chain_theory(3)
        assert descending_sequences(t.priority, "d3") == [("d1", "d2")]

    def test_fan_in_two_alternatives(self):
        t = fan_in_theory()
        assert descending_sequences(t.priority, "d3") == [("d1", "d2"), ("d2", "d1")]

    def test_no_dominators(self):
        t = chain_theory(2)
        assert descending_sequences(t.priority, "d1") == [()]

    def test_long_chain_needs_no_recursion(self):
        labels = tuple(f"d{k}" for k in range(1500))
        order = PriorityOrder(labels, frozenset(zip(labels, labels[1:])))
        assert descending_sequences(order, labels[-1]) == [labels[:-1]]

    def test_descending_property(self):
        rng = random.Random(2)
        for _ in range(20):
            t = random_theory(rng, max_defaults=4)
            for label in t.priority.indices:
                for sigma in descending_sequences(t.priority, label):
                    for a in range(len(sigma)):
                        for b in range(a + 1, len(sigma)):
                            assert (sigma[b], sigma[a]) not in t.priority.closure


class TestBuildWil:
    """``helpers.build_wil``, the separate nest each output must equal."""

    formulas = {"d1": Atom("a"), "d2": Atom("b"), "d3": Atom("c")}

    def test_conjunctive_pair(self):
        assert build_wil(self.formulas, "d2", ("d1",), "1") == And(Atom("a"), Atom("b"))

    def test_disjunctive_pair(self):
        assert build_wil(self.formulas, "d2", ("d1",), "0") == Or(Atom("a"), Atom("b"))

    def test_mixed_bits_nest_to_the_right(self):
        f = build_wil(self.formulas, "d3", ("d1", "d2"), "01")
        assert f == Or(Atom("a"), And(Atom("b"), Atom("c")))

    def test_no_dominators_returns_the_default(self):
        assert build_wil(self.formulas, "d1", (), "") == Atom("a")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            build_wil(self.formulas, "d3", ("d1", "d2"), "1")


class TestGoldenSets:
    """The five standard shapes, compared up to commutative reordering."""

    def golden(self, theory, expected_texts):
        out = transform_canonical(theory.defaults, theory.priority)
        assert ac_set(f for _, f in out.defaults) == ac_set(F(s) for s in expected_texts)

    def test_pair(self):
        self.golden(pair_theory(), ["p1", "p2 & p1", "p2 | p1"])

    def test_two_columns_of_two(self):
        self.golden(
            columns_theory(),
            ["p1", "p2 & p1", "p2 | p1", "p3", "p4 & p3", "p4 | p3"],
        )

    def test_one_above_two(self):
        self.golden(
            fan_out_theory(),
            ["p1", "p2 & p1", "p2 | p1", "p3 & p1", "p3 | p1"],
        )

    def test_chain_of_three(self):
        self.golden(
            chain_theory(3),
            [
                "p1",
                "p2 & p1", "p2 | p1",
                "p3 & p2 & p1", "(p3 & p2) | p1", "(p3 | p2) & p1", "p3 | p2 | p1",
            ],
        )

    def test_fan_in_both_alternatives(self):
        t = fan_in_theory()
        members = transform_all(t.defaults, t.priority, limit=8)
        assert len(members) == 2
        first = ["p1", "p2", "p3 & p2 & p1", "(p3 & p2) | p1", "(p3 | p2) & p1", "p3 | p2 | p1"]
        second = ["p1", "p2", "p3 & p1 & p2", "(p3 & p1) | p2", "(p3 | p1) & p2", "p3 | p1 | p2"]
        assert ac_set(f for _, f in members[0].defaults) == ac_set(F(s) for s in first)
        assert ac_set(f for _, f in members[1].defaults) == ac_set(F(s) for s in second)
        # the two alternatives differ syntactically before normalization
        assert [str(f) for _, f in members[0].defaults] != [str(f) for _, f in members[1].defaults]

    def test_empty_order_echoes_input(self):
        t = build_theory(defaults=[("a", "p"), ("b", "q | r")])
        out = transform_canonical(t.defaults, t.priority)
        assert [f for _, f in out.defaults] == [f for _, f in t.defaults]

    def test_labels_and_provenance(self):
        out = transform_canonical(*_pair())
        assert [l for l, _ in out.defaults] == ["w_d1", "w_d2_1", "w_d2_0"]
        assert [p.bits for p in out.provenance] == ["", "1", "0"]
        assert [p.source for p in out.provenance] == ["d1", "d2", "d2"]


def _pair():
    t = pair_theory()
    return t.defaults, t.priority


class TestOutputSize:
    def test_chain_of_three(self):
        assert output_size(chain_theory(3).priority).total == 7

    def test_columns(self):
        assert output_size(columns_theory().priority).total == 6

    def test_empty_order(self):
        assert output_size(parallel_order(tuple("abcde"))).total == 5

    def test_chain_closed_form(self):
        for n in range(1, 11):
            t = chain_theory(n)
            report = output_size(t.priority)
            assert report.total == 2 ** n - 1
            out = transform_canonical(t.defaults, t.priority)
            assert len(out.defaults) == report.total

    def test_top_heavy_flag(self):
        assert not output_size(chain_theory(5).priority).top_heavy
        assert output_size(chain_theory(12).priority).top_heavy

    def test_materialization_guard(self, monkeypatch):
        t = chain_theory(12)
        monkeypatch.setattr(config, "TRANSFORM_FORMULAS", 1000)
        with pytest.raises(CapExceededError):
            transform_canonical(t.defaults, t.priority)
        # size accounting itself never materializes
        assert output_size(t.priority).total == 2 ** 12 - 1


class TestTransformAll:
    def test_chain_has_a_unique_member(self):
        t = chain_theory(3)
        assert len(transform_all(t.defaults, t.priority, limit=64)) == 1

    def test_empty_order_single_member(self):
        t = build_theory(defaults=[("a", "p")])
        members = transform_all(t.defaults, t.priority, limit=64)
        assert len(members) == 1
        assert [f for _, f in members[0].defaults] == [F("p")]

    def test_first_member_is_canonical(self):
        rng = random.Random(21)
        for _ in range(20):
            t = random_theory(rng)
            members = transform_all(t.defaults, t.priority, limit=4)
            assert members[0] == transform_canonical(t.defaults, t.priority)

    def test_zero_limit_rejected(self):
        t = chain_theory(2)
        with pytest.raises(ValidationError):
            transform_all(t.defaults, t.priority, limit=0)

    def test_limit_respected(self):
        t = build_theory(
            defaults=[(l, l) for l in ("a", "b", "c", "x")],
            prefer=[("a", "x"), ("b", "x"), ("c", "x")],
        )
        assert len(transform_all(t.defaults, t.priority, limit=64)) == 6
        assert len(transform_all(t.defaults, t.priority, limit=2)) == 2


class TestStructuralInvariants:
    def test_all_ones_and_all_zeros_blocks(self):
        rng = random.Random(31)
        for _ in range(20):
            t = random_theory(rng)
            out = transform_canonical(t.defaults, t.priority)
            formulas = dict(t.defaults)
            for (label, f), p in zip(out.defaults, out.provenance):
                if not p.bits:
                    continue
                group = [formulas[j] for j in p.sigma] + [formulas[p.source]]
                if set(p.bits) == {"1"}:
                    expected = group[-1]
                    for g in reversed(group[:-1]):
                        expected = And(g, expected)
                    assert f == expected
                if set(p.bits) == {"0"}:
                    expected = group[-1]
                    for g in reversed(group[:-1]):
                        expected = Or(g, expected)
                    assert f == expected

    def test_size_always_matches_report(self):
        rng = random.Random(41)
        for _ in range(30):
            t = random_theory(rng)
            out = transform_canonical(t.defaults, t.priority)
            assert len(out.defaults) == output_size(t.priority).total

    def test_bit_strings_enumerate_exactly_once(self):
        t = chain_theory(4)
        out = transform_canonical(t.defaults, t.priority)
        per_source = {}
        for p in out.provenance:
            per_source.setdefault(p.source, []).append(p.bits)
        for label, bits in per_source.items():
            m = len(bits[0])
            assert sorted(int(b, 2) if b else 0 for b in bits) == list(range(2 ** m if m else 1))

    def test_all_members_induce_the_same_preorder(self):
        rng = random.Random(51)
        for _ in range(15):
            t = random_theory(rng, max_atoms=4)
            members = transform_all(t.defaults, t.priority, limit=6)
            base_spec = PreorderSpec.parallel(members[0].defaults)
            for m in members[1:]:
                assert preorder_equivalent(
                    base_spec, PreorderSpec.parallel(m.defaults), t.universe
                )


GOLDEN_THEORIES = [pair_theory, columns_theory, fan_out_theory, fan_in_theory, lambda: chain_theory(3)]


@st.composite
def ordered_defaults(draw):
    """Up to 8 defaults, some compound, and the pairs of a random acyclic
    order over their labels."""
    n = draw(st.integers(1, 8))
    texts = draw(st.lists(st.sampled_from(["p", "q", "p & q", "~p | r", "q -> r"]), min_size=n, max_size=n))
    labels = [f"d{k}" for k in range(n)]
    rank = draw(st.permutations(labels))
    edges = [(a, b) for i, a in enumerate(rank) for b in rank[i + 1 :] if draw(st.booleans())]
    return list(zip(labels, texts)), edges


@st.composite
def ordered_theories(draw):
    """``ordered_defaults`` with up to one base formula and two fixtures."""
    defaults, edges = draw(ordered_defaults())
    base = draw(st.lists(st.sampled_from(["p | q", "~r"]), max_size=1))
    fixtures = draw(st.lists(st.sampled_from(["q", "p & r", "~p"]), max_size=2))
    return build_theory(
        base=base, defaults=defaults, prefer=edges, fixtures=[(f"f{k}", f) for k, f in enumerate(fixtures)]
    )


class TestDescendingOracle:
    @given(ordered_defaults())
    @settings(max_examples=150, deadline=None)
    def test_sequences_match_recursive_generator(self, entered):
        # the same sequences in the same order, so the first is the canonical one
        defaults, edges = entered
        t = build_theory(defaults=defaults, prefer=edges)
        for label in t.priority.indices:
            assert descending_sequences(t.priority, label) == list(descending_naive(t.priority.indices, edges, label))


def assert_outputs_are_nests(t, out):
    """Each output equals, and prints like, build_wil's nest for its
    provenance. Through the transform's nest, the engine values and
    ``print_theory`` prints the outputs as the AST walks of hand-built
    outputs (whose nest is None) do."""
    formulas = dict(t.defaults)
    nests = []
    for (label, f), p in zip(out.defaults, out.provenance):
        nests.append(LabeledFormula(label, build_wil(formulas, p.source, p.sigma, p.bits)))
        assert f == nests[-1].formula
    unshared = TransformOutput(tuple(nests), out.provenance)
    via_nest, via_ast = parallel_theory(t, out), parallel_theory(t, unshared)
    assert out.nest is not None and via_nest.nest is out.nest
    assert via_ast.nest is None
    assert print_theory(via_nest) == print_theory(via_ast)
    assert parse_theory(print_theory(via_nest)) == via_nest
    assert preferred_models(via_nest).mask == preferred_models(via_ast).mask
    masks = truth_masks(via_nest.base, via_nest.defaults, t.universe, via_nest.nest)[1]
    assert list(masks) == [truth_mask(f, t.universe) for _, f in out.defaults]
    assert_block_masks(t, out)
    # Any other route to the same defaults drops the nest.
    assert TransformOutput(out.defaults, out.provenance).nest is None
    assert dataclasses.replace(out).nest is None
    assert dataclasses.replace(via_nest).nest is None
    assert fixtures_to_defaults(via_nest).nest is None


def blocks(out):
    """Source label -> {bits: output formula}."""
    by_source = {}
    for (_, f), p in zip(out.defaults, out.provenance):
        by_source.setdefault(p.source, {})[p.bits] = f
    return by_source


class TestSuffixSharing:
    """Each block is built innermost-first; it must equal the per-output nests."""

    @pytest.mark.parametrize("build", GOLDEN_THEORIES)
    def test_goldens_equal_per_output_nests(self, build):
        t = build()
        for out in [transform_canonical(t.defaults, t.priority), *transform_all(t.defaults, t.priority, limit=8)]:
            assert_outputs_are_nests(t, out)

    @given(ordered_theories())
    @settings(max_examples=60, deadline=None)
    def test_random_orders_equal_per_output_nests(self, t):
        assert_outputs_are_nests(t, transform_canonical(t.defaults, t.priority))
        for out in transform_all(t.defaults, t.priority, limit=6):
            assert_outputs_are_nests(t, out)

    @given(ordered_theories())
    @settings(max_examples=60, deadline=None)
    def test_block_builds_each_suffix_once(self, t):
        out = transform_canonical(t.defaults, t.priority)
        sources = {id(f) for _, f in t.defaults}
        for block in blocks(out).values():
            m = len(next(iter(block)))
            nodes = set()
            todo = list(block.values())
            while todo:
                g = todo.pop()
                if id(g) not in sources and id(g) not in nodes:
                    assert type(g) in (And, Or)
                    nodes.add(id(g))
                    todo += (g.left, g.right)
            assert len(nodes) == 2 ** (m + 1) - 2
            for bits, f in block.items():
                if bits.startswith("1"):
                    assert f.right is block["0" + bits[1:]].right


def assert_block_masks(t, out):
    """The outputs' truth masks follow from the source masks alone: per block,
    innermost-first, ``d | a`` and ``d & a`` for each dominator mask ``d``,
    then the list reversed, bit strings from all-ones down."""
    source = {label: truth_mask(f, t.universe) for label, f in t.defaults}
    sigma = {p.source: p.sigma for p in out.provenance}
    expected = []
    for label, _ in t.defaults:
        acc = [source[label]]
        for j in reversed(sigma[label]):
            d = source[j]
            acc = [d | a for a in acc] + [d & a for a in acc]
        expected += reversed(acc)
    assert [truth_mask(f, t.universe) for _, f in out.defaults] == expected


class TestBlockMasks:
    """Output masks built from the source masks equal the outputs' own masks."""

    @pytest.mark.parametrize("build", GOLDEN_THEORIES)
    def test_goldens(self, build):
        t = build()
        for out in [transform_canonical(t.defaults, t.priority), *transform_all(t.defaults, t.priority, limit=8)]:
            assert_block_masks(t, out)

    @given(ordered_theories())
    @settings(max_examples=60, deadline=None)
    def test_random_orders_and_members(self, t):
        for out in transform_all(t.defaults, t.priority, limit=6):
            assert_block_masks(t, out)

    def test_random_theories(self):
        rng = random.Random(61)
        for _ in range(30):
            t = random_theory(rng, max_defaults=6)
            for out in [transform_canonical(t.defaults, t.priority), *transform_all(t.defaults, t.priority, limit=4)]:
                assert_block_masks(t, out)
