#!/usr/bin/env python3
"""Run every CLI subcommand and flag combination on input files.

    python3 scripts/cli_matrix.py [FILE ...] > runs.jsonl

Each combination runs once as ``python -m parapri.cli`` from this
checkout's ``src``, with the checkout as working directory, under
``PYTHONHASHSEED=0`` and ``COLUMNS=80`` (so that argparse wraps its help
the same way on every terminal), once as is, once with
``PARAPRI_MAX_ATOMS=2`` and once with the bad value ``PARAPRI_MAX_ATOMS=many``.
The help text, ``--help`` and ``SUBCOMMAND --help`` for every subcommand,
runs first, once per environment rather than once per file.
One JSON line per run gives argv, the added environment, exit code,
stdout and stderr. FILE defaults to every file in ``tests/data``; give
paths relative to the checkout, so that the output of two checkouts can be
compared byte for byte (``cmp a.jsonl b.jsonl``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from parapri.errors import ParapriError  # noqa: E402
from parapri.theory import SchemaTheory, ground, parse_theory  # noqa: E402

ENVIRONMENTS = ({}, {"PARAPRI_MAX_ATOMS": "2"}, {"PARAPRI_MAX_ATOMS": "many"})
SUBCOMMANDS = ("transform", "query", "models", "check-equiv", "stats", "prune", "encode-ab", "encode-lp")
HELP = [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS]


def _atoms(path: str) -> tuple[str, ...]:
    # The universe the CLI sees, for queries and projections; a file that
    # is not a valid theory gets a fixed name, and the runs report the error.
    try:
        t = parse_theory((ROOT / path).read_text(encoding="utf-8"))
        return tuple((ground(t) if isinstance(t, SchemaTheory) else t).universe) or ("p",)
    except (ParapriError, OSError, UnicodeDecodeError):
        return ("p",)


def combinations(path: str) -> list[list[str]]:
    atoms = _atoms(path)
    a, project = atoms[0], ",".join(atoms[:2])
    runs = [
        ["transform", path],
        ["transform", path, "--all", "3"],
        ["transform", path, "--size-only"],
        ["transform", path, "--format", "json"],
        ["transform", path, "--all", "3", "--format", "json"],
        ["models", path],
        ["models", path, "--format", "json"],
        ["check-equiv", path],
        ["check-equiv", path, "--preorder"],
        ["check-equiv", path, "--all", "3"],
        ["check-equiv", path, "--preorder", "--all", "3"],
        ["check-equiv", path, "--project", project],
        ["check-equiv", path, "--self-test-corrupt"],
        ["check-equiv", path, "--preorder", "--self-test-corrupt"],
        ["stats", path],
        ["prune", path],
        ["prune", path, "--k", "0"],
        ["prune", path, "--k", "1"],
        ["encode-ab", path],
        ["encode-ab", path, "--variant", "class"],
        ["encode-ab", path, "--variant", "class-positive"],
        ["encode-lp", path],
    ]
    for q in ("true", a, f"~{a}"):
        runs += [["query", path, q], ["query", path, q, "--assert", "yes"], ["query", path, q, "--assert", "no"]]
    return runs + [["query", path, "unknown_atom"]]


def run(argv: list[str], extra: dict[str, str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PARAPRI_MAX_ATOMS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", COLUMNS="80", **extra)
    p = subprocess.run(
        [sys.executable, "-m", "parapri.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    return {"argv": argv, "env": extra, "exit": p.returncode, "stdout": p.stdout, "stderr": p.stderr}


def main(paths: list[str]) -> int:
    if not paths:
        paths = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests" / "data").iterdir())
    for argv in HELP + [argv for path in paths for argv in combinations(path)]:
        for extra in ENVIRONMENTS:
            print(json.dumps(run(argv, extra)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
