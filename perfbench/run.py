#!/usr/bin/env python3
"""Benchmark of parapri: four seeded workloads, checked answers, scaled times.

    python3 perfbench/run.py --workload query-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # all four, one after another
    python3 perfbench/run.py --smoke                        # tiny sizes, every check, seconds

Run it from the root of a checkout: it imports parapri from ``src``. One
run of one workload, on one thread:

1. generates the workload's inputs from the seed (theory or program text);
2. times ``import parapri.cli`` in fresh interpreters (``setup_s``);
3. with ``--trace 0``: runs whole timed passes over all inputs until
   ``--seconds`` have passed; the first pass also checks every answer
   against the benchmark's own semantics and runs the negative controls
   that must make the checkers fail, later passes must repeat its answers;
   then measures ``peak_mb`` with tracemalloc on the memory sample;
   with ``--trace 1``: plain and traced passes in turn, then the
   reference rows, for the per-layer figures;
4. runs the CLI as a subprocess on a few of the inputs (parity).

Every task time is scaled to the reference machine speed of ``calib``.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics. Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("query-dense", "transform-wide", "schema-order", "verify-small")


def _import_parapri() -> None:
    src = ROOT / "src"
    if not (src / "parapri" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no parapri sources at {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import parapri

    if Path(parapri.__file__).resolve().parent != (src / "parapri").resolve():
        raise SystemExit(f"perfbench: imported parapri from {parapri.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one timed pass per workload")
    args = parser.parse_args(argv)
    _import_parapri()
    import harness

    seconds = 0.0 if args.smoke else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = harness.measure(name, args.seed, seconds, bool(args.trace), tiny=args.smoke)
        if len(names) > 1:
            print(json.dumps({name: results[name]}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
