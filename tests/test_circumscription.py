"""Preferred-model enumeration, skeptical entailment, and the equivalence oracles."""

import dataclasses
import gc
import itertools
import random
import tracemalloc
from functools import lru_cache, reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generate import random_theory
from helpers import chain_theory, default_leq, evaluate, preferred_indices_naive, strictly_better
from parapri.circumscription import (
    TRANSPOSE_BLOCK,
    PreferredModelSet,
    _quotient,
    _sweep_keys,
    _transpose,
    cell_columns,
    circ_equivalent,
    format_model,
    preferred_models,
    preorder_equivalent,
    skeptical_entails,
)
from parapri.errors import CapExceededError, UniverseError, ValidationError
from parapri.formula import FALSE, TRUE, And, Atom, Iff, Implies, Interpretation, Not, Or, iter_bits, parse_formula
from parapri.specificity import prune_redundant
from parapri.theory import (
    LabeledFormula,
    Nest,
    PriorityOrder,
    Theory,
    build_theory,
    nest_values,
    parse_theory,
)
from parapri.transform import parallel_theory, transform_all, transform_canonical, transform_theory

F = parse_formula


def tweety_theory():
    return build_theory(
        base=["ostrich -> bird", "ostrich"],
        defaults=[("e1", "bird -> flies"), ("e2", "ostrich -> ~flies")],
        prefer=[("e2", "e1")],
    )


def models_of(base, universe):
    """The base models: the union of the cells of ``cell_columns`` with no nest."""
    names = tuple(universe)
    cells, _, _ = cell_columns(base, [], names)
    return [Interpretation.from_index(names, z) for z in iter_bits(sum(cells))]


class TestModelsOf:
    def test_unit(self):
        ms = models_of([F("a")], ("a",))
        assert [dict(zip(m.universe, m.values)) for m in ms] == [{"a": True}]

    def test_contradiction(self):
        assert models_of([F("a & ~a")], ("a",)) == []

    def test_free_atom_doubles(self):
        ms = models_of([F("ostrich -> bird"), F("ostrich")], ("ostrich", "bird", "flies"))
        assert len(ms) == 2
        assert all(dict(zip(m.universe, m.values)).items() >= {"ostrich": True, "bird": True}.items() for m in ms)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            models_of([], tuple(f"x{k}" for k in range(25)))


class TestPreferredModels:
    def test_tweety_unique_model(self):
        pm = preferred_models(tweety_theory())
        assert len(pm) == 1
        m = pm.models[0]
        assert dict(zip(m.universe, m.values)) == {"ostrich": True, "bird": True, "flies": False}

    def test_unsatisfiable_base(self):
        t = build_theory(base=["p & ~p"], defaults=[("d", "p")])
        assert len(preferred_models(t)) == 0

    def test_no_defaults_no_fixtures_keeps_all_models(self):
        t = build_theory(base=["p | q"])
        assert len(preferred_models(t)) == 3

    def test_agrees_with_naive_domination(self):
        rng = random.Random(17)
        for _ in range(60):
            t = random_theory(rng, fixture_prob=0.4)
            assert preferred_models(t).index_set == preferred_indices_naive(t)

    def test_satisfiable_base_always_has_a_preferred_model(self):
        rng = random.Random(19)
        checked = 0
        while checked < 40:
            t = random_theory(rng, fixture_prob=0.3)
            if not models_of(t.base, t.universe):
                continue
            checked += 1
            assert len(preferred_models(t)) > 0

    def test_transform_of_a_chain_fits_in_1_6_mb(self):
        # 1023 outputs over 10 atoms, 1024 cells. The traced peak is 1.26 MB:
        # the outputs' masks come from the sources' masks one block at a time,
        # the outermost step streamed, and the transpose works in blocks. It
        # was 2.61 MB while every shared subtree's mask was kept to the end and
        # the transpose built one 1024 x 1023-character string.
        t = transform_theory(chain_theory(10))
        preferred_models(t)  # fills interpreter caches and free lists
        gc.collect()
        tracemalloc.start()
        try:
            pm = preferred_models(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pm.mask == 1 << 1023  # every pk holds
        assert peak < 1_600_000

    def test_cells_sharing_an_output_profile_are_decided_together(self):
        # Cyclic sigmas, which no transform makes: the outputs q & p, q | p,
        # p & q and p | q hold alike at p ~q and ~p q, two cells of the
        # sources. Neither point is strictly better than the other, so both
        # are preferred; deciding each cell alone would let one dominate the
        # other.
        p, q = Atom("p"), Atom("q")
        sigmas = ((1,), (0,))
        outputs = list(nest_values([p, q], sigmas, Or, And))
        assert outputs == [And(q, p), Or(q, p), And(p, q), Or(p, q)]
        nest = Nest(("o0", "o1", "o2", "o3"), (p, q), sigmas, ("s0", "s1"))
        t = Theory._from_recipe(nest, universe=("p", "q"), base=(Not(And(p, q)),), priority=PriorityOrder(nest.labels))
        assert preferred_models(t).index_set == {0b01, 0b10}
        assert t.defaults == tuple(map(LabeledFormula, nest.labels, outputs))
        assert preferred_indices_naive(t) == {0b01, 0b10}


class TestSkepticalEntails:
    def test_tweety_grounded(self):
        t = tweety_theory()
        assert skeptical_entails(t, F("~flies"))
        assert not skeptical_entails(t, F("flies"))

    def test_true_always_entailed(self):
        assert skeptical_entails(tweety_theory(), F("true"))

    def test_vacuous_on_unsatisfiable_base(self):
        t = build_theory(base=["p & ~p"], defaults=[("d", "p")])
        assert skeptical_entails(t, F("~p"))
        assert skeptical_entails(t, F("p"))

    def test_closed_under_conjunction(self):
        rng = random.Random(23)
        from generate import random_formula

        for _ in range(40):
            t = random_theory(rng)
            q1 = random_formula(rng, t.universe, 2)
            q2 = random_formula(rng, t.universe, 2)
            both = skeptical_entails(t, F(f"({q1}) & ({q2})"))
            assert both == (skeptical_entails(t, q1) and skeptical_entails(t, q2))


class TestCircEquivalent:
    def test_theory_equals_itself(self):
        t = tweety_theory()
        assert circ_equivalent(t, t)

    def test_transformed_tweety(self):
        t = tweety_theory()
        out = transform_canonical(t.defaults, t.priority)
        assert circ_equivalent(t, parallel_theory(t, out))

    def test_opposite_maxima_differ(self):
        t1 = build_theory(atoms=["a"], defaults=[("d", "a")])
        t2 = build_theory(atoms=["a"], defaults=[("d", "~a")])
        assert not circ_equivalent(t1, t2)

    def test_universe_mismatch_needs_projection(self):
        t1 = build_theory(atoms=["a"], defaults=[("d", "a")])
        t2 = build_theory(atoms=["a", "b"], defaults=[("d", "a")])
        with pytest.raises(UniverseError):
            circ_equivalent(t1, t2)
        assert circ_equivalent(t1, t2, project=["a"])

    def test_projection_reads_atoms_by_name(self):
        t1 = build_theory(atoms=["a", "b"], base=["a & ~b"])
        t2 = build_theory(atoms=["b", "a"], base=["a & ~b"])
        t3 = build_theory(atoms=["b", "a"], base=["~a & b"])
        assert circ_equivalent(t1, t2, project=["b"])
        assert circ_equivalent(t1, t2, project=["b", "a"])
        assert not circ_equivalent(t1, t3, project=["b"])

    def test_unknown_projection_atom(self):
        t = tweety_theory()
        with pytest.raises(UniverseError):
            circ_equivalent(t, t, project=["nope"])


class TestPreorderEquivalent:
    def test_pair_transform(self):
        t = build_theory(defaults=[("d1", "p1"), ("d2", "p2")], prefer=[("d1", "d2")])
        out = transform_canonical(t.defaults, t.priority)
        assert preorder_equivalent(t, parallel_theory(t, out), t.universe)

    def test_spec_equals_itself(self):
        t = tweety_theory()
        assert preorder_equivalent(t, t, t.universe)

    def test_priority_matters_for_conflicting_defaults(self):
        t = build_theory(atoms=["a"], defaults=[("hi", "a"), ("lo", "~a")], prefer=[("hi", "lo")])
        flat = build_theory(atoms=["a"], defaults=[("hi", "a"), ("lo", "~a")])
        assert not preorder_equivalent(t, flat, ("a",))
        # the distinguishing pair: dropping 'a' is allowed only in parallel
        z = Interpretation(("a",), (True,))
        z2 = Interpretation(("a",), (False,))
        assert default_leq(flat, z, z2) != default_leq(t, z, z2) or default_leq(
            flat, z2, z
        ) != default_leq(t, z2, z)

    def test_cap(self):
        t = tweety_theory()
        with pytest.raises(CapExceededError):
            preorder_equivalent(
                t, t, tuple(f"x{k}" for k in range(21))
            )


class TestAtomCap:
    """Library calls obey ``PARAPRI_MAX_ATOMS``, read when they are made."""

    t = parse_theory((Path(__file__).parent / "data" / "tweety.thy").read_text())
    out = transform_canonical(t.defaults, t.priority)
    calls = {
        "preferred_models": lambda t, out: preferred_models(t),
        "skeptical_entails": lambda t, out: skeptical_entails(t, F("flies")),
        "circ_equivalent": lambda t, out: circ_equivalent(t, parallel_theory(t, out)),
        "preorder_equivalent": lambda t, out: preorder_equivalent(t, parallel_theory(t, out), t.universe),
        "prune_redundant": lambda t, out: prune_redundant(out, t.base, t.universe),
    }

    @pytest.mark.parametrize("call", calls)
    def test_cap_from_env(self, monkeypatch, call):
        monkeypatch.setenv("PARAPRI_MAX_ATOMS", "2")
        with pytest.raises(CapExceededError, match="^3 atoms exceeds the enumeration cap of 2$"):
            self.calls[call](self.t, self.out)

    @pytest.mark.parametrize("call", calls)
    def test_bad_env_value(self, monkeypatch, call):
        monkeypatch.setenv("PARAPRI_MAX_ATOMS", "many")
        with pytest.raises(ValidationError, match="^PARAPRI_MAX_ATOMS must be an integer, got 'many'$"):
            self.calls[call](self.t, self.out)

    @pytest.mark.parametrize("call", calls)
    def test_cap_of_three_admits_tweety(self, monkeypatch, call):
        monkeypatch.setenv("PARAPRI_MAX_ATOMS", "3")
        self.calls[call](self.t, self.out)


class TestEquivalenceGuarantees:
    """Randomized pre-order and circumscription equivalence suites (small scale;
    the acceptance module runs the full-size ones)."""

    def test_preorder_equivalence_random(self):
        rng = random.Random(101)
        for _ in range(60):
            t = random_theory(rng)
            for member in transform_all(t.defaults, t.priority, limit=64):
                assert preorder_equivalent(t, parallel_theory(t, member), t.universe)

    def test_circ_equivalence_random_with_fixtures(self):
        rng = random.Random(103)
        for _ in range(60):
            t = random_theory(rng, fixture_prob=0.5)
            out = transform_canonical(t.defaults, t.priority)
            assert circ_equivalent(t, parallel_theory(t, out))

    def test_equivalence_is_base_independent(self):
        rng = random.Random(107)
        from generate import random_formula
        from parapri.theory import Theory

        for _ in range(10):
            t = random_theory(rng, max_base=0)
            out = transform_canonical(t.defaults, t.priority)
            for _ in range(5):
                base = tuple(random_formula(rng, t.universe, 2) for _ in range(rng.randint(0, 3)))
                t1 = Theory(t.universe, base, t.defaults, t.priority, t.fixtures)
                t2 = parallel_theory(t1, out)
                assert circ_equivalent(t1, t2)


class TestFormatModel:
    def test_positive_then_negative(self):
        z = Interpretation(("ostrich", "bird", "flies"), (True, True, False))
        assert format_model(z) == "bird ostrich ~flies"

    def test_all_negative(self):
        z = Interpretation(("b", "a"), (False, False))
        assert format_model(z) == "~a ~b"


@lru_cache(maxsize=None)
def formulas_over(universe):
    leaves = st.sampled_from([TRUE, FALSE, *(Atom(a) for a in universe)])
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(Not),
            *(st.builds(op, kids, kids) for op in (And, Or, Implies, Iff)),
        ),
        max_leaves=5,
    )


@st.composite
def priorities(draw, labels):
    """A random strict order: edges run forward along a drawn permutation."""
    perm = draw(st.permutations(labels))
    pairs = [(perm[i], perm[j]) for i in range(len(perm)) for j in range(i + 1, len(perm))]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return PriorityOrder(tuple(labels), frozenset(e for e, k in zip(pairs, keep) if k))


@st.composite
def theories(draw, universe=None):
    """Random theories: empty universes, unsatisfiable bases, fixtures,
    random priorities, and (drawn) their parallel transforms."""
    if universe is None:
        universe = ("a", "b", "c", "d")[: draw(st.integers(0, 4))]
    fs = formulas_over(universe)
    base = draw(st.lists(fs, max_size=3))
    if draw(st.integers(0, 7)) == 0:
        base.append(And(Atom(universe[0]), Not(Atom(universe[0]))) if universe else FALSE)
    labels = tuple(f"d{k}" for k in range(draw(st.integers(0, 4))))
    defaults = tuple(LabeledFormula(l, draw(fs)) for l in labels)
    fixtures = tuple(
        LabeledFormula(f"fx{k}", f) for k, f in enumerate(draw(st.lists(fs, max_size=2)))
    )
    t = Theory(universe, tuple(base), defaults, draw(priorities(labels)), fixtures)
    if draw(st.booleans()):
        t = parallel_theory(t, transform_canonical(t.defaults, t.priority))
    return t


class TestDifferential:
    """The cell-quotient engine against the per-interpretation naive oracle."""

    @given(theories())
    @settings(max_examples=300, deadline=None)
    def test_preferred_models(self, t):
        pm = preferred_models(t)
        assert pm.universe == t.universe
        assert [m.index for m in pm.models] == sorted(preferred_indices_naive(t))
        assert all(m.universe == t.universe for m in pm.models)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_skeptical_entails(self, data):
        t = data.draw(theories())
        q = data.draw(formulas_over(t.universe))
        naive = preferred_indices_naive(t)
        expected = all(evaluate(q, Interpretation.from_index(t.universe, z)) for z in naive)
        assert skeptical_entails(t, q) == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_preorder_equivalent(self, data):
        t = data.draw(theories())
        kind = data.draw(st.sampled_from(("transform", "reordered", "other")))
        if kind == "transform":
            s2 = parallel_theory(t, transform_canonical(t.defaults, t.priority))
        elif kind == "reordered":
            s2 = dataclasses.replace(t, priority=data.draw(priorities(t.priority.indices)))
        else:
            s2 = data.draw(theories(universe=t.universe))
        zs = [Interpretation.from_index(t.universe, z) for z in range(2 ** len(t.universe))]
        expected = all(
            default_leq(t, z, z2) == default_leq(s2, z, z2) for z in zs for z2 in zs
        )
        assert preorder_equivalent(t, s2, t.universe) == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_preorder_equivalent_through_nests(self, data):
        # A transform member's nest, intact or corrupted: one sigma reversed,
        # or one of its dominators swapped for another label, each sigma
        # keeping its length. The check reads the nest's sources; the oracle
        # and the hand-built copy read the formulas the nest builds. Half the
        # time each default is its own atom, so that every default profile is
        # realized and most corruptions show.
        universe, labels = ("a", "b", "c", "d"), tuple(f"d{k}" for k in range(data.draw(st.integers(3, 4))))
        fs = formulas_over(universe)
        formulas = map(Atom, universe) if data.draw(st.booleans()) else [data.draw(fs) for _ in labels]
        fixtures = tuple(LabeledFormula(f"fx{k}", f) for k, f in enumerate(data.draw(st.lists(fs, max_size=2))))
        t = Theory(universe, (), tuple(map(LabeledFormula, labels, formulas)), data.draw(priorities(labels)), fixtures)
        out = data.draw(st.sampled_from(transform_all(t.defaults, t.priority, limit=4)))
        sigmas, n = list(out.nest.sigmas), len(labels)
        corruptions = [("reversed", i) for i, s in enumerate(sigmas) if len(s) > 1]
        corruptions += [("swapped", i) for i, s in enumerate(sigmas) if 0 < len(s) < n - 1]
        if corruptions and data.draw(st.integers(0, 3)):
            way, i = data.draw(st.sampled_from(corruptions))
            if way == "reversed":
                sigmas[i] = sigmas[i][::-1]
            else:
                k = data.draw(st.integers(0, len(sigmas[i]) - 1))
                j = data.draw(st.sampled_from([j for j in range(n) if j != i and j not in sigmas[i]]))
                sigmas[i] = (*sigmas[i][:k], j, *sigmas[i][k + 1 :])
        nest = out.nest._replace(sigmas=tuple(sigmas))
        member = Theory._from_recipe(
            nest, universe=t.universe, base=t.base, priority=PriorityOrder(nest.labels), fixtures=t.fixtures
        )
        hand_built = Theory(t.universe, t.base, member.defaults, member.priority, t.fixtures)
        zs = [Interpretation.from_index(t.universe, z) for z in range(2 ** len(t.universe))]
        expected = all(default_leq(t, z, z2) == default_leq(member, z, z2) for z in zs for z2 in zs)
        assert expected or sigmas != list(out.nest.sigmas)
        assert preorder_equivalent(t, member, t.universe) == expected
        assert preorder_equivalent(member, t, t.universe) == expected
        assert preorder_equivalent(t, hand_built, t.universe) == expected


def exactly(k, universe):
    """Exactly k of the universe's atoms hold: under atom defaults its
    models form an antichain of cells."""
    return reduce(Or, (
        reduce(And, (Atom(a) if a in chosen else Not(Atom(a)) for a in universe))
        for chosen in itertools.combinations(universe, k)
    ))


def layered_order(labels, levels):
    """The order in which each label is above every label of a lower level."""
    return PriorityOrder(labels, [(a, b) for a, x in zip(labels, levels) for b, y in zip(labels, levels) if x > y])


@st.composite
def parallel_theories(draw):
    """Theories with up to 12 defaults drawn from a small pool, so formula
    objects repeat, as roots and as shared subtrees; fixtures; no priorities,
    a drawn order (chains, layered and general orders), or a layered order
    of up to three levels; now and then one default per atom and an
    "exactly k of n" base, so that both the pair test and the row test of
    the sweep decide cells. A layered order keeps the atom defaults of one
    level incomparable, so the row test fires under priorities too."""
    universe = ("a", "b", "c", "d", "e")[: draw(st.integers(1, 5))]
    fs = formulas_over(universe)
    pool = draw(st.lists(fs, min_size=1, max_size=4)) + [Atom(a) for a in universe]
    picks = st.sampled_from(pool)
    compound = st.one_of(picks, st.builds(And, picks, picks), st.builds(Or, picks, picks))
    defaults = draw(st.lists(compound, max_size=12))
    if draw(st.booleans()):  # atom defaults: an "exactly k" base makes them incomparable
        defaults = [Atom(a) for a in universe] + defaults[len(universe):]
    base = draw(st.lists(fs, max_size=2))
    if draw(st.booleans()):
        base.append(exactly(draw(st.integers(0, len(universe))), universe))
    fixtures = tuple(
        LabeledFormula(f"fx{k}", f) for k, f in enumerate(draw(st.lists(picks, max_size=2)))
    )
    labels = tuple(f"d{k}" for k in range(len(defaults)))
    order = draw(st.sampled_from(("parallel", "drawn", "layered")))
    if order == "drawn":
        order = draw(priorities(labels))
    elif order == "layered":
        order = layered_order(labels, draw(st.lists(st.integers(0, 2), min_size=len(labels), max_size=len(labels))))
    else:
        order = PriorityOrder(labels)
    return Theory(universe, tuple(base), tuple(map(LabeledFormula, labels, defaults)), order, fixtures)


class TestParallelKernel:
    """The domination loop against the per-interpretation naive oracle, on
    many defaults under every kind of order, and the fact it rests on."""

    @given(parallel_theories())
    @settings(max_examples=200, deadline=None)
    def test_preferred_models(self, t):
        assert preferred_models(t).index_set == preferred_indices_naive(t)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_leq_between_distinct_profiles_is_strict(self, data):
        # Two points that differ on some default are never equally
        # preferred, so a cell is dominated iff another cell of its class
        # is at least as preferred.
        t = data.draw(theories())
        zs = [Interpretation.from_index(t.universe, z) for z in range(2 ** len(t.universe))]
        z, z2 = data.draw(st.sampled_from(zs)), data.draw(st.sampled_from(zs))
        if any(evaluate(f, z) != evaluate(f, z2) for _, f in t.defaults):
            assert not (default_leq(t, z, z2) and default_leq(t, z2, z))

    def test_fixture_classes_are_separate(self):
        # three incomparable cells where f holds, and where f fails one cell
        # above all three; fixture f keeps the four apart
        t = build_theory(
            atoms=["a", "b", "c", "f"],
            base=["(f & ((a & ~b & ~c) | (~a & b & ~c) | (~a & ~b & c))) | (~f & a & b & c)"],
            defaults=[("da", "a"), ("db", "b"), ("dc", "c")],
            fixtures=[("ff", "f")],
        )
        assert len(preferred_models(t)) == 4

    def test_antichain_keeps_every_cell(self):
        universe = tuple(f"a{k}" for k in range(8))
        t = build_theory(atoms=universe, defaults=[(f"d{a}", a) for a in universe])
        t = Theory(universe, (exactly(4, universe),), t.defaults, t.priority, ())
        assert len(preferred_models(t)) == 70

    def test_layered_antichain_keeps_every_top_cell(self):
        # d0 and d1 above the other six: with exactly four atoms true, both
        # hold in every preferred model, which is then any two of the other
        # six; once five of the 15 are found, the row test decides the rest
        universe = tuple(f"a{k}" for k in range(8))
        labels = tuple(f"d{a}" for a in universe)
        order = layered_order(labels, [1, 1] + [0] * 6)
        t = Theory(universe, (exactly(4, universe),), tuple(map(LabeledFormula, labels, map(Atom, universe))), order, ())
        expected = {sum(1 << k for k in (0, 1, *rest)) for rest in itertools.combinations(range(2, 8), 2)}
        assert preferred_models(t).index_set == expected


def profile(t, z):
    """Bit i: default i of ``t`` holds at z."""
    return sum(evaluate(f, z) << i for i, (_, f) in enumerate(t.defaults))


class TestSweep:
    """The two facts the sweep of ``preferred_models`` rests on, on every
    pair of points of drawn theories (fixtures, transforms, every order)."""

    @given(theories())
    @settings(max_examples=200, deadline=None)
    def test_pair_rule_is_the_preorder(self, t):
        # z <= z2 iff every default held at z but not at z2 has a dominator
        # held at z2 but not at z
        above = t.priority.above
        zs = [Interpretation.from_index(t.universe, z) for z in range(2 ** len(t.universe))]
        for z, z2 in itertools.product(zs, repeat=2):
            d, m = profile(t, z), profile(t, z2)
            assert all(above[i] & m & ~d for i in iter_bits(d & ~m)) == default_leq(t, z, z2)

    @given(theories())
    @settings(max_examples=200, deadline=None)
    def test_key_rises_along_the_preorder(self, t):
        cells, profiles, columns = cell_columns(t.base, [t.nest], t.universe, t.fixtures)
        keys = _sweep_keys(t.priority.above, profiles, columns)
        cell_of = {z: k for k, c in enumerate(cells) for z in iter_bits(c)}
        zs = {z: Interpretation.from_index(t.universe, z) for z in cell_of}
        for z, z2 in itertools.product(zs, repeat=2):
            if strictly_better(t, zs[z2], zs[z]):
                assert keys[cell_of[z2]] > keys[cell_of[z]]


class TestPreferredModelSet:
    @given(theories())
    @settings(max_examples=100, deadline=None)
    def test_built_from_models_equals_engine_result(self, t):
        pm = preferred_models(t)
        naive = sorted(preferred_indices_naive(t))
        models = [Interpretation.from_index(t.universe, z) for z in reversed(naive)]
        built = PreferredModelSet(t.universe, models)
        assert built == pm and hash(built) == hash(pm)
        assert built.mask == pm.mask == sum(1 << z for z in naive)
        assert built.index_set == pm.index_set == frozenset(naive)
        assert built.models == pm.models == tuple(reversed(models))
        assert len(built) == len(pm) == len(naive)
        assert list(built) == list(pm) == list(reversed(models))

    def test_universe_takes_part_in_equality(self):
        assert PreferredModelSet(("a",), mask=1) != PreferredModelSet(("b",), mask=1)
        assert PreferredModelSet(("a",), mask=1) != PreferredModelSet(("a",), mask=2)


class TestQuotient:
    def test_masks_from_a_generator(self):
        cells, profiles = _quotient(0b1111, (m for m in (0b1100, 0b1010)))
        assert sorted(zip(cells, profiles)) == [(0b0001, 0b00), (0b0010, 0b10), (0b0100, 0b01), (0b1000, 0b11)]

    def test_no_masks(self):
        assert _quotient(0b101, iter(())) == ([0b101], [0])

    @given(st.integers(0, 255), st.lists(st.integers(0, 255), max_size=4))
    def test_no_cell_precedes_one_whose_profile_contains_its_own(self, base, masks):
        # prune_redundant's _positive_combination starts from the highest
        # cell, and a minimal one makes its terms few.
        cells, profiles = _quotient(base, iter(masks))
        assert sum(cells) == base
        for j, k in itertools.combinations(range(len(profiles)), 2):
            assert profiles[j] & ~profiles[k]

    def test_empty_base(self):
        assert _quotient(0, iter((0b1, 0b10))) == ([], [])


class TestTranspose:
    @pytest.mark.parametrize("width", [0, 1, TRANSPOSE_BLOCK - 1, TRANSPOSE_BLOCK, TRANSPOSE_BLOCK + 1, 600])
    @pytest.mark.parametrize("count", [0, 1, 37])
    def test_matches_bit_by_bit(self, width, count):
        rng = random.Random(width * 100 + count)
        rows = [rng.getrandbits(width + 5) for _ in range(count)]  # bits from ``width`` on are ignored
        assert _transpose(rows, width) == [sum((r >> i & 1) << k for k, r in enumerate(rows)) for i in range(width)]
