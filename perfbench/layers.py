"""Spans around parapri's layer functions, recorded from the benchmark's side.

``Patch`` swaps each listed function for a wrapper in every ``parapri``
module namespace that holds it, so calls between layers are caught too,
and puts the originals back on exit. A span's self time is its duration
minus the spans it contains. Counters are taken after a span closes and
their cost is kept out of the enclosing span's self time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (defining module, function) -> layer name; metrics are "<name>_ms".
LAYERS = {
    ("parapri.circumscription", "preferred_models"): "circumscription.preferred_models",
    ("parapri.circumscription", "preorder_equivalent"): "circumscription.preorder_equivalent",
    ("parapri.circumscription", "circ_equivalent"): "circumscription.circ_equivalent",
    ("parapri.formula", "truth_mask"): "formula.truth_mask",
    ("parapri.formula", "parse_formula"): "formula.parse",
    ("parapri.formula", "to_text"): "formula.to_text",
    ("parapri.theory", "ground"): "theory.ground",
    ("parapri.theory", "transitive_closure"): "theory.closure",
    ("parapri.theory", "classify_order"): "theory.classify_order",
    ("parapri.theory", "print_theory"): "theory.print_theory",
    ("parapri.transform", "transform_canonical"): "transform.transform",
    ("parapri.transform", "transform_all"): "transform.transform",
    ("parapri.specificity", "prune_redundant"): "specificity.prune",
    ("parapri.lp", "encode_stratified"): "lp.encode_stratified",
}

# to_text calls itself through its module global: wrapping it there would
# turn every subformula into a span.
SELF_RECURSIVE = {("parapri.formula", "to_text")}

COUNTS = (
    "circumscription.calls",
    "circumscription.base_models",
    "circumscription.preferred",
    "formula.truth_mask_calls",
    "theory.closure_pairs",
    "transform.output_defaults",
    "transform.members",
)


class Patch:
    """Context manager: ``make(key, original)`` builds each wrapper."""

    def __init__(self, make, keys=LAYERS):
        self.originals = {(mod, fn): getattr(sys.modules[mod], fn) for mod, fn in keys}
        self.wrappers = {key: make(key, f) for key, f in self.originals.items()}
        self.saved: list = []

    def __enter__(self):
        by_id = {id(f): key for key, f in self.originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "parapri" and not modname.startswith("parapri."):
                continue
            for attr, value in list(vars(mod).items()):
                key = by_id.get(id(value))
                if key is None or (key in SELF_RECURSIVE and modname == key[0]):
                    continue
                self.saved.append((mod, attr, value))
                setattr(mod, attr, self.wrappers[key])
        return self

    def __exit__(self, *exc):
        for mod, attr, value in reversed(self.saved):
            setattr(mod, attr, value)
        self.saved.clear()


def capture_preferred(sink: list) -> Patch:
    """Record the index set of every preferred_models result into ``sink``."""

    def make(key, f):
        def wrapper(*args, **kwargs):
            r = f(*args, **kwargs)
            sink.append(r.index_set)
            return r

        return wrapper

    return Patch(make, [("parapri.circumscription", "preferred_models")])


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = [[0.0]]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.truth_mask = sys.modules["parapri.formula"].truth_mask

    def patch(self) -> Patch:
        return Patch(self._wrap)

    def take(self) -> tuple[dict[str, float], Counter]:
        out = dict(self.self_s), self.counts.copy()
        self.self_s.clear()
        self.counts.clear()
        return out

    def _count(self, key, args, r) -> None:
        c = self.counts
        fn = key[1]
        if fn == "preferred_models":
            t = args[0]
            bm = (1 << (1 << len(t.universe))) - 1
            for f in t.base:
                bm &= self.truth_mask(f, t.universe)
            c["circumscription.calls"] += 1
            c["circumscription.base_models"] += bm.bit_count()
            c["circumscription.preferred"] += len(r)
        elif fn == "truth_mask":
            c["formula.truth_mask_calls"] += 1
        elif fn == "transitive_closure":
            c["theory.closure_pairs"] += len(r)
        elif fn == "transform_canonical":
            c["transform.output_defaults"] += len(r.defaults)
            c["transform.members"] += 1
        elif fn == "transform_all":
            c["transform.output_defaults"] += sum(len(m.defaults) for m in r)
            c["transform.members"] += len(r)

    def _wrap(self, key, f):
        name = LAYERS[key]
        stack, self_s, clock, count = self.stack, self.self_s, time.perf_counter, self._count

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                r = f(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                stack[-1][0] += dt
            c0 = clock()
            count(key, args, r)
            stack[-1][0] += clock() - c0
            return r

        return traced
