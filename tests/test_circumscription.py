"""Preferred-model enumeration, skeptical entailment, and the equivalence oracles."""

import random

import pytest

from helpers import default_leq, preferred_indices_naive
from parapri.circumscription import (
    circ_equivalent,
    format_model,
    models_of,
    preferred_models,
    preorder_equivalent,
    skeptical_entails,
)
from parapri.errors import CapExceededError, UniverseError
from parapri.formula import Interpretation, parse_formula
from parapri.generate import random_theory
from parapri.preorder import PreorderSpec
from parapri.theory import build_theory
from parapri.transform import parallel_theory, transform_all, transform_canonical

F = parse_formula


def tweety_theory():
    return build_theory(
        base=["ostrich -> bird", "ostrich"],
        defaults=[("e1", "bird -> flies"), ("e2", "ostrich -> ~flies")],
        prefer=[("e2", "e1")],
    )


class TestModelsOf:
    def test_unit(self):
        ms = models_of([F("a")], ("a",))
        assert [m.as_dict() for m in ms] == [{"a": True}]

    def test_contradiction(self):
        assert models_of([F("a & ~a")], ("a",)) == []

    def test_free_atom_doubles(self):
        ms = models_of([F("ostrich -> bird"), F("ostrich")], ("ostrich", "bird", "flies"))
        assert len(ms) == 2
        assert all(m.value("ostrich") and m.value("bird") for m in ms)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            models_of([], tuple(f"x{k}" for k in range(25)))


class TestPreferredModels:
    def test_tweety_unique_model(self):
        pm = preferred_models(tweety_theory())
        assert len(pm) == 1
        assert pm.models[0].as_dict() == {"ostrich": True, "bird": True, "flies": False}

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
        from parapri.generate import random_formula

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

    def test_unknown_projection_atom(self):
        t = tweety_theory()
        with pytest.raises(UniverseError):
            circ_equivalent(t, t, project=["nope"])


class TestPreorderEquivalent:
    def test_pair_transform(self):
        t = build_theory(defaults=[("d1", "p1"), ("d2", "p2")], prefer=[("d1", "d2")])
        out = transform_canonical(t.defaults, t.priority)
        assert preorder_equivalent(
            PreorderSpec.of(t), PreorderSpec.parallel(out.defaults), t.universe
        )

    def test_spec_equals_itself(self):
        t = tweety_theory()
        s = PreorderSpec.of(t)
        assert preorder_equivalent(s, s, t.universe)

    def test_priority_matters_for_conflicting_defaults(self):
        t = build_theory(atoms=["a"], defaults=[("hi", "a"), ("lo", "~a")], prefer=[("hi", "lo")])
        flat = build_theory(atoms=["a"], defaults=[("hi", "a"), ("lo", "~a")])
        s1, s2 = PreorderSpec.of(t), PreorderSpec.of(flat)
        assert not preorder_equivalent(s1, s2, ("a",))
        # the distinguishing pair: dropping 'a' is allowed only in parallel
        z = Interpretation.of(("a",), {"a": True})
        z2 = Interpretation.of(("a",), {"a": False})
        assert default_leq(s2, z, z2) != default_leq(s1, z, z2) or default_leq(
            s2, z2, z
        ) != default_leq(s1, z2, z)

    def test_cap(self):
        t = tweety_theory()
        with pytest.raises(CapExceededError):
            preorder_equivalent(
                PreorderSpec.of(t), PreorderSpec.of(t), tuple(f"x{k}" for k in range(13))
            )


class TestEquivalenceGuarantees:
    """Randomized pre-order and circumscription equivalence suites (small scale;
    the acceptance module runs the full-size ones)."""

    def test_preorder_equivalence_random(self):
        rng = random.Random(101)
        for _ in range(60):
            t = random_theory(rng)
            for member in transform_all(t.defaults, t.priority, limit=64):
                assert preorder_equivalent(
                    PreorderSpec.of(t), PreorderSpec.parallel(member.defaults), t.universe
                )

    def test_circ_equivalence_random_with_fixtures(self):
        rng = random.Random(103)
        for _ in range(60):
            t = random_theory(rng, fixture_prob=0.5)
            out = transform_canonical(t.defaults, t.priority)
            assert circ_equivalent(t, parallel_theory(t, out))

    def test_equivalence_is_base_independent(self):
        rng = random.Random(107)
        from parapri.generate import random_formula
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
        z = Interpretation.of(("ostrich", "bird", "flies"), {"ostrich": True, "bird": True, "flies": False})
        assert format_model(z) == "bird ostrich ~flies"

    def test_all_negative(self):
        z = Interpretation.of(("b", "a"), {"a": False, "b": False})
        assert format_model(z) == "~a ~b"
