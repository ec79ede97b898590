"""Logic programs: parsing, stratification, encoding, perfect models."""

import random
import re

import pytest

from generate import random_stratified_program
from helpers import closure_pairs, cycle_through_negation_by_literals, perfect_model
from parapri.circumscription import circ_equivalent, preferred_models
from parapri.errors import NotStratifiedError, ParseError
from parapri.lp import Clause, Program, encode_stratified, parse_program, stratify
from parapri.theory import PriorityOrder, classify_order
from parapri.transform import parallel_theory, transform_canonical

TWO_STRATA = "q.\np :- not q.\n"
NEGATION_FREE = "p.\nr :- p.\n"
UNDEFINED_NEG = "p :- not q.\n"
WITH_ARGUMENTS = "q(a,b).\np(a,b) :- q(a,b), not r(a,c).\n"


class TestParseProgram:
    def test_fact_and_rule(self):
        p = parse_program(TWO_STRATA)
        assert p.clauses == (Clause("q"), Clause("p", (), ("q",)))

    def test_positive_self_loop(self):
        p = parse_program("p :- p.\n")
        assert p.clauses == (Clause("p", ("p",), ()),)

    def test_empty_program(self):
        assert parse_program("") == Program(())

    def test_comments_skipped(self):
        p = parse_program("# setup\nq.  # a fact\n")
        assert p.clauses == (Clause("q"),)

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_program("q\n")

    def test_mixed_body(self):
        p = parse_program("h :- a, b, not c, not d.\n")
        assert p.clauses == (Clause("h", ("a", "b"), ("c", "d")),)

    def test_atoms_with_arguments_in_a_body(self):
        p = parse_program(WITH_ARGUMENTS)
        assert p.clauses == (Clause("q(a,b)"), Clause("p(a,b)", ("q(a,b)",), ("r(a,c)",)))

    @pytest.mark.parametrize(
        "body, bad",
        [
            ("a b, c", "a b"),
            ("q(a, b", "q(a"),
            ("q(a,,b)", "q(a,,b)"),
            ("a,, b", ""),
            ("x), y", "x)"),
            ("a, true", "true"),
            ("not false", "false"),
            ("~a", "~a"),
        ],
    )
    def test_bad_body_atom(self, body, bad):
        with pytest.raises(ParseError, match=f"^bad atom {re.escape(repr(bad))} \\(line 2\\)$"):
            parse_program(f"q.\np :- {body}.\n")

    def test_atoms_are_read_as_in_formulas(self):
        # Spaces between arguments, as a theory file allows them.
        p = parse_program("p(a, b) :- q( a ,b ), not r (c).\n")
        assert p.clauses == (Clause("p(a,b)", ("q(a,b)",), ("r(c)",)),)

    def test_constant_head_rejected(self):
        # A theory file reads ``true`` as the constant, so no program atom may be named so.
        with pytest.raises(ParseError, match=r"^bad atom 'true' \(line 1\)$"):
            parse_program("true.\np :- not true.\n")

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError):
            parse_program("h :- .\n")


def levels_by_passes(p: Program) -> dict[str, int] | None:
    """Least levels by raising heads in passes over the clauses until none
    moves, or None when they still move after one pass per atom."""
    level = dict.fromkeys(p.atoms, 0)
    for _ in range(len(p.atoms) + 1):
        moved = False
        for c in p.clauses:
            need = max([level[b] for b in c.pos] + [level[n] + 1 for n in c.neg], default=0)
            if need > level[c.head]:
                level[c.head], moved = need, True
        if not moved:
            return level
    return None


def random_program(rng: random.Random) -> Program:
    atoms = [f"a{k}" for k in range(rng.randint(1, 7))]
    return Program(
        tuple(
            Clause(
                rng.choice(atoms),
                tuple(rng.choices(atoms, k=rng.randint(0, 2))),
                tuple(rng.choices(atoms, k=rng.randint(0, 2 if rng.random() < 0.6 else 0))),
            )
            for _ in range(rng.randint(0, 9))
        )
    )


class TestStratify:
    def test_matches_the_level_passes(self):
        # Levels against the pass loop, and the witness against one search per negated literal.
        rng = random.Random(19)
        for _ in range(20000):
            p = random_program(rng)
            want = levels_by_passes(p)
            witness = cycle_through_negation_by_literals(p.clauses)
            assert (want is None) == (witness is not None)
            if want is not None:
                assert stratify(p) == want
                continue
            with pytest.raises(NotStratifiedError) as e:
                stratify(p)
            assert e.value.cycle == witness
            assert str(e.value) == f"program is not stratified (cycle through negation: {' -> '.join(witness)})"
            # The witness runs from a negated body atom along head -> body edges to its head.
            cycle = e.value.cycle
            deps = {(c.head, b) for c in p.clauses for b in c.pos + c.neg}
            assert all((x, y) in deps for x, y in zip(cycle, cycle[1:]))
            assert any(c.head == cycle[-1] and cycle[0] in c.neg for c in p.clauses)

    def test_deep_chain_with_its_cycle_at_the_bottom(self):
        # One search per negated literal walks the whole chain below each clause: quadratic.
        n = 20000
        p = parse_program("".join(f"a{k} :- not a{k - 1}.\n" for k in range(n, 0, -1)) + "a0 :- not a1.\n")
        with pytest.raises(NotStratifiedError) as e:
            stratify(p)
        assert e.value.cycle == ("a0", "a1")

    def test_deep_chain_written_top_down(self):
        # Highest stratum first: raising levels by passes over the clauses takes one pass per stratum.
        n = 5000
        p = parse_program("".join(f"a{k} :- not a{k - 1}.\n" for k in range(n, 0, -1)) + "a0.\n")
        s = stratify(p)
        assert [s[f"a{k}"] for k in range(n + 1)] == list(range(n + 1))

    def test_two_strata(self):
        s = stratify(parse_program(TWO_STRATA))
        assert s["q"] == 0
        assert s["p"] == 1

    def test_negation_free_is_flat(self):
        s = stratify(parse_program(NEGATION_FREE))
        assert all(s[a] == 0 for a in ("p", "r"))

    def test_direct_negative_loop(self):
        with pytest.raises(NotStratifiedError) as e:
            stratify(parse_program("p :- not p.\n"))
        assert "p" in e.value.cycle

    def test_longer_negative_loop_witness(self):
        with pytest.raises(NotStratifiedError) as e:
            stratify(parse_program("a :- not b.\nb :- c.\nc :- a.\n"))
        assert set(e.value.cycle) >= {"a", "b"}

    def test_levels_are_minimal(self):
        s = stratify(parse_program("r :- not q.\nq :- not p.\nx.\n"))
        assert (s["p"], s["q"], s["r"], s["x"]) == (0, 1, 2, 0)


class TestEncodeStratified:
    def test_two_strata_encoding(self):
        t = encode_stratified(parse_program(TWO_STRATA))
        assert [str(f) for f in t.base] == ["q", "(~q -> p)"]
        assert [str(f) for _, f in t.defaults] == ["~q", "~p"]
        assert closure_pairs(t.priority) == {("min_q", "min_p")}
        pm = preferred_models(t)
        assert len(pm) == 1
        m = pm.models[0]
        assert dict(zip(m.universe, m.values)) == {"q": True, "p": False}

    def test_negation_free_is_parallel_least_model(self):
        t = encode_stratified(parse_program(NEGATION_FREE))
        assert not any(t.priority.above)
        pm = preferred_models(t)
        assert len(pm) == 1
        m = pm.models[0]
        assert dict(zip(m.universe, m.values)) == {"p": True, "r": True}

    def test_empty_program(self):
        t = encode_stratified(parse_program(""))
        assert t.universe == ()
        assert t.base == ()
        pm = preferred_models(t)
        assert len(pm) == 1 and pm.models[0].values == ()

    def test_priority_is_layered(self):
        p = parse_program("a.\nb :- not a.\nc :- not b.\n")
        t = encode_stratified(p)
        assert classify_order(t.priority) in ("chain/columnar", "layered")
        # strata classes are totally ordered across, unordered within
        s = stratify(p)
        for x in p.atoms:
            for y in p.atoms:
                expected = s[x] < s[y]
                assert ((f"min_{x}", f"min_{y}") in closure_pairs(t.priority)) == expected


    def test_order_matches_the_stratum_pairs(self):
        # The order closed from every (lower stratum, higher stratum) label pair.
        rng = random.Random(311)
        for _ in range(300):
            p = random_stratified_program(rng, max_atoms=8, max_level=3)
            t = encode_stratified(p)
            s = stratify(p)
            labels = t.priority.indices
            pairs = [(la, lb) for la, a in zip(labels, p.atoms) for lb, b in zip(labels, p.atoms) if s[a] < s[b]]
            assert t.priority == PriorityOrder(labels, pairs)


class TestPerfectModel:
    def test_two_strata(self):
        m = perfect_model(parse_program(TWO_STRATA))
        assert dict(zip(m.universe, m.values)) == {"q": True, "p": False}

    def test_undefined_negative_body(self):
        m = perfect_model(parse_program(UNDEFINED_NEG))
        assert dict(zip(m.universe, m.values)) == {"p": True, "q": False}

    def test_facts_only(self):
        m = perfect_model(parse_program("a.\nb.\n"))
        assert dict(zip(m.universe, m.values)) == {"a": True, "b": True}

    def test_non_stratified_rejected(self):
        with pytest.raises(NotStratifiedError):
            perfect_model(parse_program("p :- not p.\n"))


class TestCorrespondence:
    def test_fixture_programs(self):
        for text in (TWO_STRATA, NEGATION_FREE, UNDEFINED_NEG, WITH_ARGUMENTS):
            p = parse_program(text)
            pm = preferred_models(encode_stratified(p))
            assert len(pm) == 1
            assert pm.models[0] == perfect_model(p)

    def test_random_programs(self):
        rng = random.Random(301)
        for _ in range(25):
            p = random_stratified_program(rng)
            t = encode_stratified(p)
            pm = preferred_models(t)
            assert len(pm) == 1
            assert pm.models[0] == perfect_model(p)

    def test_composition_with_the_transform(self):
        rng = random.Random(307)
        for _ in range(15):
            p = random_stratified_program(rng)
            t = encode_stratified(p)
            out = transform_canonical(t.defaults, t.priority)
            assert circ_equivalent(t, parallel_theory(t, out))
