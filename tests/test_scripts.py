"""The repository's verification scripts run clean."""

import json
import re

from helpers import ROOT, run_python


def test_equivalence_suites_pass():
    r = run_python(ROOT / "scripts" / "run_equivalence_suites.py")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["pre-order suite", "circumscription suite"]
    for line in lines:
        assert re.search(r"\b500 instances, .*\b0 failures,", line), line


def test_specificity_report():
    r = run_python(ROOT / "scripts" / "specificity_report.py")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert lines.count("  equivalent to the listed parallel set: True") == 3
    assert lines[-3:] == [
        "  violation: passes [11, 12, 13]",
        "  class: passes none",
        "  class-positive: passes [11, 12, 13]",
    ]


def test_perfbench_smoke():
    # Tiny sizes of all four workloads; every answer is checked against the
    # benchmark's own semantics, and every checker must reject a corrupted one.
    r = run_python(ROOT / "perfbench" / "run.py", "--smoke")
    assert r.returncode == 0, r.stdout + r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert result["correct"] is True, r.stdout
    assert result["failed"] == 0, r.stdout


def test_cli_matrix_smoke():
    # Every combination ends in a contract exit code with no traceback.
    r = run_python(ROOT / "scripts" / "cli_matrix.py", "tests/data/pair_chain.thy", "tests/data/two_strata.lp")
    assert r.returncode == 0, r.stderr
    runs = [json.loads(line) for line in r.stdout.splitlines()]
    # The help text of the parser and of its 8 subcommands comes first, once per environment.
    help_runs, file_runs = runs[:9 * 3], runs[9 * 3:]
    names = ("transform", "query", "models", "check-equiv", "stats", "prune", "encode-ab", "encode-lp")
    assert [run["argv"] for run in help_runs[::3]] == [["--help"]] + [[name, "--help"] for name in names]
    for run in help_runs:
        assert (run["exit"], run["stderr"]) == (0, ""), run
        assert run["stdout"].startswith(" ".join(["usage: parapri", *run["argv"][:-1]])), run
    assert {run["argv"][1] for run in file_runs} == {"tests/data/pair_chain.thy", "tests/data/two_strata.lp"}
    assert len(file_runs) == 2 * 3 * 32  # files x environments x combinations
    for run in runs:
        assert run["exit"] in (0, 1, 2, 3), run
        assert "Traceback" not in run["stderr"], run


CODE_LINES_SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment after code


class C:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        # a comment line
        s = """a string that
is no docstring"""
        return (x +
                1)
'''


def test_code_lines_counts_a_snippet(tmp_path):
    # Blank, comment and docstring lines do not count; a multi-line string
    # that is no docstring and a multi-line expression count every line.
    path = tmp_path / "snippet.py"
    path.write_text(CODE_LINES_SNIPPET)
    r = run_python(ROOT / "scripts" / "code_lines.py", path)
    assert r.returncode == 0, r.stderr
    assert [line.split() for line in r.stdout.splitlines()] == [["7", str(path)], ["7", "total"]]
