"""CLI surface: commands, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ac_set, run_python
from parapri import config
from parapri.circumscription import circ_equivalent, preferred_models
from parapri.cli import main
from parapri.formula import parse_formula
from parapri.lp import encode_stratified, parse_program, perfect_model
from parapri.theory import ground, parse_theory, print_theory

try:
    import resource
except ImportError:  # not on every platform
    resource = None

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTransform:
    def test_pair_chain_text(self, capsys):
        code, out, _ = run(capsys, "transform", DATA / "pair_chain.thy")
        assert code == 0
        t = parse_theory(out)
        assert t.default_labels == ("w_d1", "w_d2_1", "w_d2_0")
        assert ac_set(f for _, f in t.defaults) == ac_set(
            parse_formula(s) for s in ("p1", "p2 & p1", "p2 | p1")
        )

    def test_size_only(self, capsys):
        code, out, _ = run(capsys, "transform", DATA / "chain3.thy", "--size-only")
        assert code == 0
        assert out == "7\n"

    def test_all_members_are_marked(self, capsys):
        code, out, _ = run(capsys, "transform", DATA / "fan_in.thy", "--all", "2")
        assert code == 0
        assert out.count("# member") == 2

    def test_json_provenance(self, capsys):
        code, out, _ = run(capsys, "transform", DATA / "pair_chain.thy", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["members"]) == 1
        entry = doc["members"][0]["defaults"][1]
        assert entry == {
            "label": "w_d2_1",
            "formula": "(p1 & p2)",
            "source": "d2",
            "sigma": ["d1"],
            "bits": "1",
        }

    def test_empty_priority_echoes_defaults(self, capsys, tmp_path):
        f = tmp_path / "flat.thy"
        f.write_text("default a: p\ndefault b: q\n")
        code, out, _ = run(capsys, "transform", f)
        assert code == 0
        t = parse_theory(out)
        assert [str(g) for _, g in t.defaults] == ["p", "q"]

    def test_schema_file_is_grounded_first(self, capsys):
        code, out, _ = run(capsys, "transform", DATA / "schema_birds.thy", "--size-only")
        assert code == 0
        # each e1 instance has both e2 instances above it: 4 + 4 + 1 + 1
        assert out == "10\n"

    def test_guard_exceeded_is_exit_3(self, capsys, tmp_path):
        lines = [f"default d{k}: p{k}" for k in range(1, 25)]
        lines += [f"prefer d{k} > d{k+1}" for k in range(1, 24)]
        f = tmp_path / "huge.thy"
        f.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "transform", f)
        assert code == 3
        assert "error" in err


class TestQuery:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "query", DATA / "tweety.thy", "~flies")
        assert code == 0
        assert out == "yes\n"

    def test_no(self, capsys):
        code, out, _ = run(capsys, "query", DATA / "tweety.thy", "flies")
        assert code == 0
        assert out == "no\n"

    def test_trivial_query(self, capsys):
        code, out, _ = run(capsys, "query", DATA / "tweety.thy", "true")
        assert code == 0
        assert out == "yes\n"

    def test_assert_match_and_mismatch(self, capsys):
        code, _, _ = run(capsys, "query", DATA / "tweety.thy", "~flies", "--assert", "yes")
        assert code == 0
        code, _, _ = run(capsys, "query", DATA / "tweety.thy", "~flies", "--assert", "no")
        assert code == 1

    def test_unknown_atom_is_usage_error(self, capsys):
        code, _, err = run(capsys, "query", DATA / "tweety.thy", "pigs_fly")
        assert code == 2
        assert "error" in err


class TestModels:
    def test_tweety_single_line(self, capsys):
        code, out, _ = run(capsys, "models", DATA / "tweety.thy")
        assert code == 0
        assert out == "bird ostrich ~flies\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "models", DATA / "tweety.thy", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["universe"] == ["ostrich", "bird", "flies"]
        assert doc["models"] == [[True, True, False]]


class TestCheckEquiv:
    @pytest.mark.parametrize(
        "name", ["pair_chain", "columns_2x2", "fan_out", "chain3", "fan_in", "tweety"]
    )
    def test_fixtures_are_equivalent(self, capsys, name):
        code, out, _ = run(capsys, "check-equiv", DATA / f"{name}.thy")
        assert code == 0
        assert out == "equivalent\n"

    def test_preorder_mode_all_members(self, capsys):
        code, out, _ = run(capsys, "check-equiv", DATA / "fan_in.thy", "--preorder", "--all", "2")
        assert code == 0
        assert out == "equivalent\n"

    def test_preorder_mode_past_twelve_atoms(self, capsys, tmp_path, monkeypatch):
        # four chained defaults over 13 atoms, the last atom free
        lines = ["atoms: " + " ".join(f"p{k}" for k in range(1, 14))]
        lines += [f"default d{k}: p{3 * k - 2} -> (p{3 * k - 1} | ~p{3 * k})" for k in range(1, 5)]
        lines += [f"prefer d{k} > d{k + 1}" for k in range(1, 4)]
        f = tmp_path / "chain13.thy"
        f.write_text("\n".join(lines) + "\n")
        assert run(capsys, "check-equiv", f, "--preorder")[:2] == (0, "equivalent\n")
        monkeypatch.setenv("PARAPRI_MAX_ATOMS", "12")
        code, out, err = run(capsys, "check-equiv", f, "--preorder")
        assert (code, out, err) == (3, "", "error: 13 atoms exceeds the enumeration cap of 12\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--project", ""), "error: projection atoms [''] not in universe\n"),
            (
                ("--preorder", "--project", "nosuch"),
                "error: --project applies to model sets only, not to --preorder\n",
            ),
        ],
    )
    def test_project_is_refused_not_ignored(self, capsys, argv, message):
        assert run(capsys, "check-equiv", DATA / "tweety.thy", *argv) == (2, "", message)

    def test_corrupted_self_test(self, capsys):
        code, out, _ = run(capsys, "check-equiv", DATA / "tweety.thy", "--self-test-corrupt")
        assert code == 1
        assert out == "not-equivalent\n"


class TestStats:
    def test_chain3(self, capsys):
        code, out, _ = run(capsys, "stats", DATA / "chain3.thy")
        assert code == 0
        assert out == (
            "defaults: 3\n"
            "m[d1]: 0\n"
            "m[d2]: 1\n"
            "m[d3]: 2\n"
            "max_m: 2\n"
            "size: 7\n"
            "top_heavy: no\n"
            "classification: chain/columnar\n"
        )

    def test_layered(self, capsys):
        code, out, _ = run(capsys, "stats", DATA / "layered_2x2.thy")
        assert code == 0
        assert "classification: layered" in out

    def test_schema_levels(self, capsys):
        code, out, _ = run(capsys, "stats", DATA / "schema_levels.thy")
        assert code == 0
        assert out == (
            "defaults: 9\n"
            "m[calm]: 0\n"
            "m[near[a,a]]: 0\n"
            "m[near[a,b]]: 0\n"
            "m[near[b,a]]: 0\n"
            "m[near[b,b]]: 0\n"
            "m[pen[a]]: 4\n"
            "m[pen[b]]: 4\n"
            "m[fly[a]]: 7\n"
            "m[fly[b]]: 7\n"
            "max_m: 7\n"
            "size: 293\n"
            "top_heavy: no\n"
            "classification: general\n"
        )

    def test_parallel(self, capsys, tmp_path):
        f = tmp_path / "flat.thy"
        f.write_text("default a: p\n")
        code, out, _ = run(capsys, "stats", f)
        assert code == 0
        assert "classification: parallel" in out

    @pytest.mark.parametrize(
        "name, domain, shape",
        [
            ("schema_birds.thy", None, "layered"),
            ("schema_levels.thy", None, "general"),
            ("schema_levels.thy", "a b c2 c3 c4 c5 c6 c7", "general"),
        ],
    )
    def test_grounded_order_matches_its_printed_form(self, capsys, tmp_path, name, domain, shape):
        # ground takes its order from the schema-level closure; the printed
        # form's prefer lines go through the ordinary pass over the edges.
        text = (DATA / name).read_text()
        if domain:
            text = text.replace("domain: a b\n", f"domain: {domain}\n")
        schema_file, printed = tmp_path / "schema.thy", tmp_path / "printed.thy"
        schema_file.write_text(text)
        grounded = ground(parse_theory(text))
        printed.write_text(print_theory(grounded))
        reparsed = parse_theory(printed.read_text())
        assert reparsed == grounded
        assert reparsed.priority.above == grounded.priority.above
        code, out, err = run(capsys, "stats", schema_file)
        assert (code, err) == (0, "") and out.endswith(f"classification: {shape}\n")
        assert run(capsys, "stats", printed) == (code, out, err)


class TestPrune:
    def test_report_lines(self, capsys):
        code, out, _ = run(capsys, "prune", DATA / "tweety.thy")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1].startswith("kept ")
        assert all(l.startswith(("kept ", "dropped ")) for l in lines)

    def test_cap_via_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAPRI_MAX_ATOMS", "2")
        code, out, err = run(capsys, "prune", DATA / "tweety.thy")
        assert (code, out, err) == (3, "", "error: 3 atoms exceeds the enumeration cap of 2\n")

    def test_negative_k_is_checked_before_the_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAPRI_MAX_ATOMS", "2")
        assert run(capsys, "prune", DATA / "tweety.thy", "--k", "-1")[0] == 2

    def test_k5_on_six_parallel_atom_defaults(self, capsys, tmp_path):
        # five atom witnesses have 7579 &/| combinations; none is listed
        f = tmp_path / "six.thy"
        f.write_text("".join(f"default d{k}: {a}\n" for k, a in enumerate("abcdef", start=1)))
        code, out, err = run(capsys, "prune", f, "--k", "5")
        assert (code, out.splitlines()[-1:], err) == (0, ["kept 6 of 6"], "")


class TestEncodeAb:
    def test_emits_a_parseable_guarded_theory(self, capsys):
        code, out, _ = run(capsys, "encode-ab", DATA / "tweety.thy")
        assert code == 0
        t = parse_theory(out)
        assert t.default_labels == ("ab_e1", "ab_e2")
        assert t.priority.is_empty
        assert "ab_e1" in t.universe

    def test_fixtures_carry_over(self, capsys):
        t = parse_theory((DATA / "fixed_bird.thy").read_text())
        code, out, _ = run(capsys, "encode-ab", DATA / "fixed_bird.thy")
        assert code == 0
        assert out.splitlines()[-1] == "fix f1: ostrich"
        assert circ_equivalent(t, parse_theory(out), project=t.universe)

    def test_non_rule_default_rejected(self, capsys, tmp_path):
        f = tmp_path / "bad.thy"
        f.write_text("default d: p & q\n")
        code, _, err = run(capsys, "encode-ab", f)
        assert code == 2
        assert "error" in err


class TestEncodeLp:
    def test_two_strata(self, capsys):
        code, out, _ = run(capsys, "encode-lp", DATA / "two_strata.lp")
        assert code == 0
        t = parse_theory(out)
        assert t.priority.closure == {("min_q", "min_p")}

    def test_atoms_with_arguments(self, capsys, tmp_path):
        f = tmp_path / "args.lp"
        f.write_text("q(a,b).\np(a,b) :- q(a,b), not r(a,c).\n")
        code, out, err = run(capsys, "encode-lp", f)
        assert (code, err) == (0, "")
        t = parse_theory(out)
        p = parse_program(f.read_text())
        assert t == encode_stratified(p)
        assert preferred_models(t).models == (perfect_model(p),)

    def test_spaced_arguments(self, capsys, tmp_path):
        f = tmp_path / "spaced.lp"
        f.write_text("q(a, b).\np(a, b) :- q(a,b).\n")
        code, out, err = run(capsys, "encode-lp", f)
        assert (code, err) == (0, "")
        assert parse_theory(out) == encode_stratified(parse_program("q(a,b).\np(a,b) :- q(a,b).\n"))

    def test_constant_atom_is_exit_2(self, capsys, tmp_path):
        # Printed, an atom named ``true`` would read back as the constant.
        f = tmp_path / "const.lp"
        f.write_text("true.\np :- not true.\n")
        code, out, err = run(capsys, "encode-lp", f)
        assert (code, out) == (2, "")
        assert "bad atom 'true' (line 1)" in err

    def test_non_stratified_is_exit_2(self, capsys):
        code, _, err = run(capsys, "encode-lp", DATA / "nonstrat.lp")
        assert code == 2
        assert "not stratified" in err


class TestErrorPaths:
    def test_cyclic_priority_is_exit_2(self, capsys):
        code, _, err = run(capsys, "models", DATA / "cyclic.thy")
        assert code == 2
        assert "cycle" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("domain: a b\nschema s[X,X]: p(X)\n", "error: schema 's' repeats parameter 'X'\n"),
            ("domain: a b a\nschema s[X]: p(X)\n", "error: duplicate domain constant 'a' (line 1)\n"),
            # the grounded labels collide: s[a] is both a default and an instance
            ("domain: a b\ndefault s[a]: p(a)\nschema s[X]: q(X)\n", "error: duplicate label in priority order\n"),
            (
                "domain: a b\nschema s[X]: p(X)\nschema u[X]: q(X)\nprefer s > u\nprefer u > s\n",
                "error: priority cycle through 's'\n",
            ),
            ("domain: a b\nschema s[X]: p(X)\nprefer s > u\n", "error: undeclared index 'u' in priority order\n"),
        ],
    )
    def test_repeated_schema_names_are_exit_2(self, capsys, tmp_path, text, message):
        f = tmp_path / "s.thy"
        f.write_text(text)
        assert run(capsys, "stats", f) == (2, "", message)

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "models", "no_such_file.thy")
        assert code == 2

    def test_unknown_command(self, capsys):
        code = main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_cap_override_via_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAPRI_MAX_ATOMS", "2")
        code, _, err = run(capsys, "models", DATA / "tweety.thy")
        assert code == 3
        assert "cap" in err

    @pytest.mark.parametrize("command", ["prune", "check-equiv"])
    def test_atom_cap_refuses_before_the_transform(self, capsys, monkeypatch, command):
        monkeypatch.setattr(config, "TRANSFORM_FORMULAS", 1)
        monkeypatch.setenv("PARAPRI_MAX_ATOMS", "2")
        code, out, err = run(capsys, command, DATA / "tweety.thy")
        assert (code, out, err) == (3, "", "error: 3 atoms exceeds the enumeration cap of 2\n")

    def test_bad_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAPRI_MAX_ATOMS", "many")
        code, _, err = run(capsys, "models", DATA / "tweety.thy")
        assert code == 2

    def test_constant_on_the_atoms_line(self, capsys, tmp_path):
        path = tmp_path / "t.thy"
        path.write_text("atoms: true p\ndefault d: ~p\n")
        code, out, err = run(capsys, "models", path)
        assert (code, out, err) == (2, "", "error: bad atom name 'true' (line 1)\n")

    def test_bad_env_value_on_a_command_that_does_not_enumerate(self, capsys, monkeypatch):
        monkeypatch.setenv("PARAPRI_MAX_ATOMS", "many")
        code, out, err = run(capsys, "stats", DATA / "tweety.thy")
        assert (code, out, err) == (2, "", "error: PARAPRI_MAX_ATOMS must be an integer, got 'many'\n")

    @pytest.mark.parametrize(
        "argv, text, stderr",
        [
            pytest.param(("stats",), None, "error: priority cycle through 'a'\n", id="cyclic"),
            # the least undeclared label, not the first one of a frozenset
            pytest.param(
                ("stats",),
                "default a: p\ndefault b: q\nprefer x > a\nprefer y > b\nprefer z > a\n",
                "error: undeclared index 'x' in priority order\n",
                id="undeclared",
            ),
            # the dependencies are searched in first-mention order
            pytest.param(
                ("encode-lp",),
                "a :- not b.\nb :- c.\nb :- d.\nc :- a.\nd :- a.\n",
                "error: program is not stratified (cycle through negation: b -> c -> a)\n",
                id="negation",
            ),
        ],
    )
    def test_cycle_error_is_independent_of_hash_seed(self, tmp_path, argv, text, stderr):
        # the labels and atoms reach these checks through sets and frozensets
        f = DATA / "cyclic.thy"
        if text is not None:
            f = tmp_path / "input"
            f.write_text(text)
        for seed in ("0", "1", "2", "3"):
            r = run_python("-m", "parapri.cli", *argv, f, PYTHONHASHSEED=seed)
            assert (r.returncode, r.stdout, r.stderr) == (2, "", stderr), seed


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("transform", "chain3.thy"),
            ("transform", "fan_in.thy", "--all", "2", "--format", "json"),
            ("models", "tweety.thy"),
            ("stats", "layered_2x2.thy"),
            ("prune", "inheritance_levels.thy"),
            ("encode-ab", "inheritance_levels.thy"),
            ("encode-lp", "two_strata.lp"),
        ],
    )
    def test_repeat_runs_are_byte_identical(self, capsys, argv):
        cmd = [argv[0], str(DATA / argv[1]), *argv[2:]]
        first = run(capsys, *cmd)
        second = run(capsys, *cmd)
        assert first == second
        assert first[0] == 0


DEEP = 10_000
SUBCOMMANDS = (
    ("transform", "{f}"),
    ("transform", "{f}", "--format", "json"),
    ("query", "{f}", "{q}"),
    ("models", "{f}"),
    ("check-equiv", "{f}"),
    ("check-equiv", "{f}", "--preorder"),
    ("stats", "{f}"),
    ("prune", "{f}"),
    ("encode-ab", "{f}"),
)
DEEP_KINDS = ("~", "(", "&", "->", "schema")
CONTRACT_CASES = [
    *((kind, argv, 0) for kind in DEEP_KINDS for argv in SUBCOMMANDS),
    ("long-clause", ("encode-lp", "{f}"), 0),
    *(("not-utf8", argv, 2) for argv in (*SUBCOMMANDS, ("encode-lp", "{f}"))),
    ("tweety", ("prune", "{f}", "--k", "-1"), 2),
    ("1100-defaults", ("transform", "{f}", "--all", "1"), 0),
    ("1100-defaults", ("check-equiv", "{f}", "--all", "1"), 0),
    ("1500-fork", ("stats", "{f}"), 0),
    ("1500-fork", ("transform", "{f}", "--size-only"), 0),
    ("1500-fork", ("transform", "{f}"), 3),
]
FORK_SIZE = 3 * 2**1500 - 1  # sum of 2^k for k < 1500, plus 2^1500 for each of a and b


def _deep_formula(kind: str, atom: str = "a") -> str:
    if kind == "~":
        return "~" * DEEP + atom
    if kind == "(":
        return "(" * DEEP + atom + ")" * DEEP
    return f" {kind} ".join([atom] * DEEP)


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """Input name -> (file, query) for the exit-code contract cases."""
    d = tmp_path_factory.mktemp("contract")
    inputs = {}
    for kind in DEEP_KINDS[:-1]:
        f = d / f"deep{len(inputs)}.thy"
        f.write_text(f"base: a\ndefault d1: a -> {_deep_formula(kind)}\ndefault d2: a -> a\nprefer d1 > d2\n")
        inputs[kind] = (f, _deep_formula(kind))
    f = d / "schema.thy"
    f.write_text(
        "domain: c1 c2\n"
        f"schema e[X]: p(X) -> {_deep_formula('&', 'p(X)')}\n"
        "default d: p(c1) -> p(c1)\n"
        "prefer e > d\n"
    )
    inputs["schema"] = (f, _deep_formula("->", "p(c1)"))
    f = d / "long_clause.lp"
    f.write_text("q.\np :- " + ", ".join(["q"] * DEEP) + ".\n")
    inputs["long-clause"] = (f, "")
    f = d / "latin1.thy"
    f.write_bytes("default d: café\n".encode("latin-1"))
    inputs["not-utf8"] = (f, "a")
    inputs["tweety"] = (DATA / "tweety.thy", "")
    f = d / "wide.thy"
    f.write_text("".join(f"default d{k}: p{k % 5}\n" for k in range(1100)))
    inputs["1100-defaults"] = (f, "")
    f = d / "fork.thy"
    chain = [f"d{k}" for k in range(1500)]
    f.write_text(
        "".join(f"default {label}: p{k % 25}\n" for k, label in enumerate(chain))
        + "default a: p0\ndefault b: p1\n"
        + "".join(f"prefer {hi} > {lo}\n" for hi, lo in zip(chain, chain[1:]))
        + "prefer d1499 > a\nprefer d1499 > b\n"
    )
    inputs["1500-fork"] = (f, "")
    return inputs


@pytest.mark.parametrize(
    "name, argv, expected",
    CONTRACT_CASES,
    ids=[f"{name}-{'-'.join(a for a in argv if '{' not in a)}" for name, argv, _ in CONTRACT_CASES],
)
def test_exit_code_contract(capsys, contract_inputs, name, argv, expected):
    path, query = contract_inputs[name]
    code, _, err = run(capsys, *(a.format(f=path, q=query) for a in argv))
    assert code == expected, err
    assert "Traceback" not in err
    assert err.count("error:") == (expected != 0)


def test_large_order_is_classified_and_sized(capsys, contract_inputs):
    # a 1500-label chain forking at the bottom: layered, 2^1500-sized blocks
    path = contract_inputs["1500-fork"][0]
    code, out, _ = run(capsys, "stats", path)
    assert code == 0
    assert "classification: layered\n" in out
    assert f"size: {FORK_SIZE}\n" in out
    assert run(capsys, "transform", path, "--size-only")[:2] == (0, f"{FORK_SIZE}\n")


@pytest.mark.skipif(resource is None, reason="needs the resource module")
def test_models_of_a_deep_chain_fits_in_400_mb(tmp_path):
    # 16384 cells of 2 KB each; K x K bits of stored pre-order rows over
    # them once peaked at 574 MB, and a 400 MB address space ended in exit 3.
    f = tmp_path / "chain14.thy"
    f.write_text(
        "".join(f"default d{k}: p{k}\n" for k in range(1, 15))
        + "".join(f"prefer d{k} > d{k + 1}\n" for k in range(1, 14))
    )
    limit = 400 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    r = run_python("-m", "parapri.cli", "models", f, preexec_fn=cap_address_space)
    assert r.returncode == 0, r.stderr
    assert r.stdout == " ".join(sorted(f"p{k}" for k in range(1, 15))) + "\n"


THEORY_LINES = (
    "atoms: a b c",
    "base: a -> b",
    "base: ~a | c",
    "default d1: a",
    "default d1: c",
    "default d2: b & ~a",
    "default d3: a -> c",
    "default e: ~(a <-> b)",
    "prefer d1 > d2",
    "prefer d2 > d3",
    "prefer d3 > d1",
    "prefer d1 > d9",
    "fix f1: a <-> b",
    "domain: k1 k2",
    "schema s[X]: p(X) -> q(X)",
    "schema t[X,Y]: r(X,Y)",
    "prefer s > d1",
    "default d4: p(k1) -> ~q(k1)",
)
PROGRAM_LINES = ("p.", "q :- p.", "r :- q, not p.", "p :- not r.", "s :- t(a), not u.", "u :- u.")
FUZZ_ARGV = (
    ("transform",),
    ("transform", "--all", "3"),
    ("transform", "--format", "json"),
    ("transform", "--size-only"),
    ("query", "{q}"),
    ("query", "{q}", "--assert", "yes"),
    ("models",),
    ("models", "--format", "json"),
    ("check-equiv",),
    ("check-equiv", "--preorder"),
    ("check-equiv", "--all", "2"),
    ("check-equiv", "--project", "a,b"),
    ("stats",),
    ("prune",),
    ("prune", "--k", "1"),
    ("encode-ab",),
    ("encode-ab", "--variant", "class"),
    ("encode-lp",),
)


def _text_of(lines):
    return st.lists(st.one_of(st.sampled_from(lines), st.text(max_size=30)), max_size=8).map("\n".join)


@settings(max_examples=150, deadline=None)
@given(
    content=st.one_of(
        _text_of(THEORY_LINES).map(str.encode),
        _text_of(PROGRAM_LINES).map(str.encode),
        st.binary(max_size=40),
    ),
    argv=st.sampled_from(FUZZ_ARGV),
    query=st.one_of(st.sampled_from(["a", "~b | c", "p(k1)", "a & (b", "zz"]), st.text(max_size=15)),
    max_atoms=st.sampled_from(["0", "2", "4"]),
)
def test_cli_fuzz_exit_codes(tmp_path_factory, content, argv, query, max_atoms):
    f = tmp_path_factory.getbasetemp() / "fuzz_input"
    f.write_bytes(content)
    args = [argv[0], str(f), *(a.format(q=query) for a in argv[1:])]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"PARAPRI_MAX_ATOMS": max_atoms}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert code != 1 or argv[0] == "check-equiv" or "--assert" in argv
