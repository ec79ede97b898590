#!/usr/bin/env python3
"""Walk through the built-in inheritance scenarios.

For each scenario: the prioritized defaults, the full transform output and
what pruning keeps, verification against the hand-listed parallel set, and
which guarded-rule cancellation variants reproduce the original semantics.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # the package and its built-in scenarios

from parapri.formula import to_text  # noqa: E402
from parapri.specificity import prune_redundant  # noqa: E402
from parapri.transform import transform_canonical  # noqa: E402
from scenarios import (  # noqa: E402
    INHERITANCE_CASES,
    abnormality_variant_report,
    inheritance_theory,
    verify_special_case,
)


def main() -> int:
    ok = True
    for case in sorted(INHERITANCE_CASES):
        c = INHERITANCE_CASES[case]
        t = inheritance_theory(case)
        print(f"== scenario {case} ==")
        for label, f in t.defaults:
            doms = sorted(t.priority.dominators_map[label])
            note = f"  (below {', '.join(doms)})" if doms else ""
            print(f"  {label}: {to_text(f)}{note}")
        out = transform_canonical(t.defaults, t.priority)
        report = prune_redundant(out, t.base, t.universe)
        print(f"  transform emits {len(out.defaults)}, pruning keeps {len(report.kept)}")
        for d in report.dropped:
            print(f"    dropped {d.label}: {d.describe()}")
        verified = verify_special_case(case)
        ok &= verified
        print(f"  equivalent to the listed parallel set: {verified}")
        print(f"  listed parallel set: {[f'{l}: {f}' for l, f in c.parallel_defaults]}")
    print("== cancellation variants ==")
    for variant, cases in abnormality_variant_report().items():
        passing = sorted(case for case, good in cases.items() if good)
        print(f"  {variant}: passes {passing or 'none'}")
        if variant == "violation":
            ok &= len(passing) == len(INHERITANCE_CASES)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
