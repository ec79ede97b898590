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
    assert {run["argv"][1] for run in runs} == {"tests/data/pair_chain.thy", "tests/data/two_strata.lp"}
    assert len(runs) == 2 * 3 * 32  # files x environments x combinations
    for run in runs:
        assert run["exit"] in (0, 1, 2, 3), run
        assert "Traceback" not in run["stderr"], run
