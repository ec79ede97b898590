"""Acceptance criteria, one test per criterion.

Each test prints a single ``[acceptance] criterion N (<name>): PASS|FAIL``
line (visible under ``pytest -s`` or in the captured output of a failure).
Run with::

    pytest tests/test_acceptance.py -v -s
"""

import contextlib
import random
import time
from pathlib import Path

from generate import random_formula, random_theory, random_stratified_program
from helpers import ac_set, chain_theory, fixtures_to_defaults, perfect_model
from scenarios import abnormality_variant_report, verify_special_case
from parapri.circumscription import (
    circ_equivalent,
    preferred_models,
    preorder_equivalent,
    skeptical_entails,
)
from parapri.cli import main
from parapri.formula import parse_formula, truth_mask
from parapri.lp import encode_stratified
from parapri.theory import Theory, build_theory, parse_theory
from parapri.transform import output_size, parallel_theory, transform_all, transform_canonical

DATA = Path(__file__).parent / "data"
F = parse_formula


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def transformed_sets(text):
    """Default-formula AC-sets of each member in a `transform` text output."""
    members = []
    for chunk in text.split("# member"):
        chunk = chunk.strip()
        if not chunk:
            continue
        body = chunk.split("\n", 1)[1] if chunk[0].isdigit() else chunk
        t = parse_theory(body)
        members.append(ac_set(f for _, f in t.defaults))
    return members


GOLDEN = {
    "pair_chain": [["p1", "p2 & p1", "p2 | p1"]],
    "columns_2x2": [["p1", "p2 & p1", "p2 | p1", "p3", "p4 & p3", "p4 | p3"]],
    "fan_out": [["p1", "p2 & p1", "p2 | p1", "p3 & p1", "p3 | p1"]],
    "chain3": [[
        "p1",
        "p2 & p1", "p2 | p1",
        "p3 & p2 & p1", "(p3 & p2) | p1", "(p3 | p2) & p1", "p3 | p2 | p1",
    ]],
    "fan_in": [
        ["p1", "p2", "p3 & p2 & p1", "(p3 & p2) | p1", "(p3 | p2) & p1", "p3 | p2 | p1"],
        ["p1", "p2", "p3 & p1 & p2", "(p3 & p1) | p2", "(p3 | p1) & p2", "p3 | p1 | p2"],
    ],
}


def test_criterion_1_golden_transforms(capsys):
    with criterion(1, "golden transforms"):
        for name, golden in GOLDEN.items():
            argv = ["transform", DATA / f"{name}.thy"]
            if len(golden) > 1:
                argv += ["--all", str(len(golden))]
            started = time.perf_counter()
            code, out, _ = run_cli(capsys, *argv)
            elapsed = time.perf_counter() - started
            assert code == 0, name
            got = transformed_sets(out)
            expected = [ac_set(F(s) for s in member) for member in golden]
            assert got == expected, name
            assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"


def test_criterion_2_size_law():
    with criterion(2, "size law"):
        for n in range(1, 17):
            t = chain_theory(n)
            assert output_size(t.priority).total == 2 ** n - 1
            if n <= 10:
                out = transform_canonical(t.defaults, t.priority)
                assert len(out.defaults) == 2 ** n - 1
        columns = build_theory(
            defaults=[("d1", "p1"), ("d2", "p2"), ("d3", "p3"), ("d4", "p4")],
            prefer=[("d1", "d2"), ("d3", "d4")],
        )
        assert output_size(columns.priority).total == 6


def test_criterion_3_preorder_equivalence_suite():
    with criterion(3, "pre-order equivalence, 500 random instances"):
        rng = random.Random(20240)
        started = time.perf_counter()
        failures = 0
        for _ in range(500):
            t = random_theory(rng, max_atoms=5, max_defaults=4)
            for member in transform_all(t.defaults, t.priority, limit=64):
                if not preorder_equivalent(t, parallel_theory(t, member), t.universe):
                    failures += 1
        elapsed = time.perf_counter() - started
        assert failures == 0
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_4_circumscription_equivalence_suite():
    with criterion(4, "circumscription equivalence, 500 random instances"):
        rng = random.Random(20241)
        started = time.perf_counter()
        failures = 0
        for _ in range(500):
            t = random_theory(rng, max_atoms=5, max_defaults=4, max_base=3, fixture_prob=0.5)
            out = transform_canonical(t.defaults, t.priority)
            if not circ_equivalent(t, parallel_theory(t, out)):
                failures += 1
        assert failures == 0
        # base independence: fixed defaults and priority, ten distinct bases each
        for _ in range(20):
            t = random_theory(rng, max_atoms=4, max_base=0)
            out = transform_canonical(t.defaults, t.priority)
            bases = set()
            while len(bases) < 10:
                bases.add(tuple(random_formula(rng, t.universe, 2) for _ in range(rng.randint(0, 3))))
            for base in bases:
                varied = Theory(t.universe, base, t.defaults, t.priority, t.fixtures)
                assert circ_equivalent(varied, parallel_theory(varied, out))
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


def test_criterion_5_two_default_proof_replay():
    with criterion(5, "two-default proof replay"):
        assert truth_mask(F("((p&q)|(~p&~q)) <-> (p<->q)"), ("p", "q")) == 0b1111  # a tautology
        t = build_theory(defaults=[("d1", "p1"), ("d2", "p2")], prefer=[("d1", "d2")])
        out = transform_canonical(t.defaults, t.priority)
        assert preorder_equivalent(t, parallel_theory(t, out), t.universe)


def test_criterion_6_inheritance_goldens(capsys):
    from helpers import evaluate, preferred_indices_naive
    from parapri.formula import Interpretation

    def holds_in_every_preferred_model_naive(t, q):
        return all(
            evaluate(q, Interpretation.from_index(t.universe, idx))
            for idx in preferred_indices_naive(t)
        )

    with criterion(6, "inheritance goldens"):
        assert verify_special_case(11)
        assert verify_special_case(12)
        assert verify_special_case(13)
        animal_only = parse_theory((DATA / "animal_only.thy").read_text())
        assert skeptical_entails(animal_only, F("~flies"))
        assert holds_in_every_preferred_model_naive(animal_only, F("~flies"))
        plain_bird = parse_theory((DATA / "plain_bird.thy").read_text())
        assert skeptical_entails(plain_bird, F("flies"))
        assert holds_in_every_preferred_model_naive(plain_bird, F("flies"))
        # the same answers through the CLI's cross-checked query path
        assert run_cli(capsys, "query", DATA / "animal_only.thy", "~flies")[:2] == (0, "yes\n")
        assert run_cli(capsys, "query", DATA / "plain_bird.thy", "flies")[:2] == (0, "yes\n")


def test_criterion_7_abnormality_encoding():
    with criterion(7, "abnormality encoding"):
        report = abnormality_variant_report()
        assert all(report["violation"].values()), report
        passing = {
            variant: sorted(case for case, ok in cases.items() if ok)
            for variant, cases in report.items()
        }
        print(f"[acceptance]   cancellation variants passing: {passing}")


def test_criterion_8_stratified_programs():
    with criterion(8, "stratified programs"):
        from parapri.lp import parse_program

        fixtures = ["q.\np :- not q.\n", "p :- not q.\n"]
        programs = [parse_program(s) for s in fixtures]
        rng = random.Random(20242)
        programs += [random_stratified_program(rng, max_atoms=6) for _ in range(20)]
        for p in programs:
            t = encode_stratified(p)
            pm = preferred_models(t)
            assert len(pm) == 1
            assert pm.models[0] == perfect_model(p)
            out = transform_canonical(t.defaults, t.priority)
            assert circ_equivalent(t, parallel_theory(t, out))


def test_criterion_9_fixture_reduction():
    with criterion(9, "fixture reduction"):
        rng = random.Random(20243)
        for _ in range(100):
            t = random_theory(rng, fixtures=rng.randint(1, 2))
            reduced = fixtures_to_defaults(t)
            assert preferred_models(t).index_set == preferred_models(reduced).index_set


def test_criterion_10_negative_controls(capsys):
    with criterion(10, "negative controls"):
        code, out, _ = run_cli(capsys, "check-equiv", DATA / "tweety.thy", "--self-test-corrupt")
        assert (code, out) == (1, "not-equivalent\n")
        code, _, err = run_cli(capsys, "encode-lp", DATA / "nonstrat.lp")
        assert code == 2 and "not stratified" in err
        code, _, err = run_cli(capsys, "models", DATA / "cyclic.thy")
        assert code == 2 and "cycle" in err
