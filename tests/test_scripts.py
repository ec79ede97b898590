"""The repository's verification scripts run clean."""

import re

from helpers import ROOT, run_python


def test_equivalence_suites_pass():
    r = run_python(ROOT / "scripts" / "run_equivalence_suites.py")
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["pre-order suite", "circumscription suite"]
    for line in lines:
        assert re.search(r"\b500 instances, .*\b0 failures,", line), line
