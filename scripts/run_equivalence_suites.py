#!/usr/bin/env python3
"""Randomized verification of the two equivalence guarantees.

For each random instance the prioritized theory is transformed and compared
against the parallel result: once at the pre-order level (every enumerated
alternative of the transform), once at the preferred-model level (with
random bases and optional fixtures). Prints instance counts, failures, and
timing; exits non-zero on any failure.
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # the package and its seeded generators

from generate import random_theory  # noqa: E402
from parapri.circumscription import circ_equivalent, preorder_equivalent  # noqa: E402
from parapri.transform import parallel_theory, transform_all, transform_canonical  # noqa: E402


def preorder_suite(count: int, seed: int) -> int:
    rng = random.Random(seed)
    failures = 0
    members_checked = 0
    started = time.perf_counter()
    for _ in range(count):
        t = random_theory(rng, max_atoms=5, max_defaults=4)
        for member in transform_all(t.defaults, t.priority, limit=64):
            members_checked += 1
            if not preorder_equivalent(t, parallel_theory(t, member), t.universe):
                failures += 1
                print(f"PREORDER FAILURE:\n{t}")
    elapsed = time.perf_counter() - started
    print(
        f"pre-order suite: {count} instances, {members_checked} members, "
        f"{failures} failures, {elapsed:.2f}s"
    )
    return failures


def circumscription_suite(count: int, seed: int) -> int:
    rng = random.Random(seed)
    failures = 0
    started = time.perf_counter()
    for _ in range(count):
        t = random_theory(rng, max_atoms=5, max_defaults=4, max_base=3, fixture_prob=0.5)
        out = transform_canonical(t.defaults, t.priority)
        if not circ_equivalent(t, parallel_theory(t, out)):
            failures += 1
            print(f"CIRCUMSCRIPTION FAILURE:\n{t}")
    elapsed = time.perf_counter() - started
    print(f"circumscription suite: {count} instances, {failures} failures, {elapsed:.2f}s")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500, help="instances per suite")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--suite", choices=("preorder", "circ", "both"), default="both")
    args = parser.parse_args()

    failures = 0
    if args.suite in ("preorder", "both"):
        failures += preorder_suite(args.count, args.seed)
    if args.suite in ("circ", "both"):
        failures += circumscription_suite(args.count, args.seed + 1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
