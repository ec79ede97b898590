"""Reference rows: fixed inputs that reproduce the ROADMAP "Baseline" table.

A ``--trace 1`` run times each row of its workload once, under the layer
tracer, and writes it to the details file (not to the metrics). The
inputs do not depend on the seed.
"""

from __future__ import annotations

import random
import statistics
import time

import parapri.circumscription as C
import parapri.formula as F
import parapri.theory as T
import parapri.transform as X

import calib
import gen
import layers
import logic as L


def chain_theory(n: int):
    """n single-atom defaults totally ordered d1 > d2 > ... > dn."""
    universe = [f"p{k}" for k in range(1, n + 1)]
    labels = [f"d{k}" for k in range(1, n + 1)]
    text = gen.theory_text(universe, [], labels, [L.atom(a) for a in universe], [(k, k + 1) for k in range(n - 1)])
    return T.parse_theory(text)


def random_chained(n: int, base: list):
    rng = random.Random("reference")
    universe = [f"x{k}" for k in range(n)]
    defaults = [gen.random_formula(rng, universe, 2) for _ in range(6)]
    labels = [f"d{k + 1}" for k in range(6)]
    return T.parse_theory(gen.theory_text(universe, base, labels, defaults, [(k, k + 1) for k in range(5)]))


def _models_12():
    return random_chained(12, [gen.random_formula(random.Random("reference-base"), [f"x{k}" for k in range(12)], 2)])


def _models_14():
    return random_chained(14, [("and", L.atom("x0"), L.atom("x1"))])


def _truth_masks(arg):
    t, out = arg
    for _, f in out.defaults:
        F.truth_mask(f, t.universe)


def _schema_14():
    return T.parse_theory(
        "domain: " + " ".join(f"k{j}" for j in range(14)) + "\n"
        "schema s0[X]: p(X) -> q(X)\n"
        "schema s1[X,Y]: r(X,Y) -> ~q(X)\n"
        "schema s2[X,Y]: t(X,Y) -> r(Y,X)\n"
        "prefer s0 > s1\nprefer s1 > s2\n"
    )


def _chain_14_output():
    t = chain_theory(14)
    return t, X.transform_canonical(t.defaults, t.priority)


# workload -> (row, prepare (untimed), timed call)
ROWS = {
    "query-dense": (
        ("preferred_models, random, 12 atoms, 6 chained defaults", _models_12, lambda t: C.preferred_models(t)),
        ("preferred_models, 14 atoms, 4096 base models", _models_14, lambda t: C.preferred_models(t)),
        ("preferred_models, its transform (63 defaults)", lambda: X.transform_theory(_models_14()),
         lambda t: C.preferred_models(t)),
    ),
    "transform-wide": (
        ("transform_canonical, chain_theory(14), 16383 formulas", lambda: chain_theory(14),
         lambda t: X.transform_canonical(t.defaults, t.priority)),
        ("truth_mask over those 16383 formulas", _chain_14_output, _truth_masks),
    ),
    "schema-order": (
        ("ground (with closure), domain 14, 406 defaults", _schema_14, lambda s: T.ground(s)),
        ("classify_order, domain 14, 41160 lifted edges", lambda: T.ground(_schema_14()).priority,
         lambda order: T.classify_order(order)),
    ),
    "verify-small": (
        ("circ_equivalent, chain_theory(10) vs its transform", lambda: chain_theory(10),
         lambda t: C.circ_equivalent(t, X.transform_theory(t))),
    ),
}


def rows(workload: str, clock: calib.Clock) -> list[dict]:
    out = []
    for label, prepare, call in ROWS[workload]:
        arg = prepare()
        tracer = layers.Tracer()
        before = clock.sample()
        with tracer.patch():
            t0 = time.perf_counter()
            call(arg)
            dt = time.perf_counter() - t0
        after = clock.sample()
        factor = calib.REFERENCE_S / statistics.median((before, after))
        self_s, counts = tracer.take()
        out.append({
            "row": label,
            "ms": 1e3 * dt * factor,
            "raw_ms": 1e3 * dt,
            "layers_ms": {name: 1e3 * s * factor for name, s in sorted(self_s.items())},
            "counts": dict(counts),
        })
    return out
