"""Seeded input generators for the four workloads.

The benchmark owns these generators, so a change to ``parapri.generate``
cannot change the workloads. Every input is theory-file (or program-file)
text, as the CLI reads it, plus what the checkers need to know about how
it was built. Sizes are fixed per slot; the seed picks formulas, names,
orders and the slot order, so every seed gives a pass of the same shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import logic as L


@dataclass
class Task:
    kind: str
    text: str
    size: int                      # atoms, domain or output formulas
    info: dict = field(default_factory=dict)
    mem: bool = False              # part of the tracemalloc sample


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def random_formula(rng: random.Random, atoms, depth: int) -> tuple:
    if depth == 0 or rng.random() < 0.35:
        return L.atom(rng.choice(atoms))
    op = rng.choice(("not", "and", "or", "imp", "iff"))
    if op == "not":
        return ("not", random_formula(rng, atoms, depth - 1))
    return (op, random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))


def literal(rng: random.Random, name: str) -> tuple:
    return L.atom(name) if rng.random() < 0.5 else L.neg(L.atom(name))


def theory_text(universe, base, labels, defaults, edges, fixtures=()) -> str:
    lines = [f"atoms: {' '.join(universe)}"]
    lines += [f"base: {L.text(f)}" for f in base]
    lines += [f"default {l}: {L.text(f)}" for l, f in zip(labels, defaults)]
    lines += [f"prefer {labels[a]} > {labels[b]}" for a, b in sorted(edges)]
    lines += [f"fix fx{k + 1}: {L.text(f)}" for k, f in enumerate(fixtures)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- orders

def chain_edges(rng: random.Random, d: int) -> list[tuple[int, int]]:
    perm = list(range(d))
    rng.shuffle(perm)
    return [(perm[k], perm[k + 1]) for k in range(d - 1)]


def random_edges(rng: random.Random, d: int, density: float = 0.4) -> list[tuple[int, int]]:
    perm = list(range(d))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a in range(d) for b in range(a + 1, d) if rng.random() < density]


# Level widths of the layered and general orders, two per default count.
WIDTHS = {5: ((2, 3), (2, 1, 2)), 6: ((3, 3), (2, 2, 2)), 7: ((3, 4), (2, 3, 2))}


def shaped_edges(rng: random.Random, d: int, shape: str, k: int) -> list[tuple[int, int]]:
    """A chain, a layered order, or a general order (a layered one whose
    second top default loses its edges downwards) on shuffled positions.
    The shape is fixed by the slot, so its transform size is too."""
    if shape == "chain":
        return chain_edges(rng, d)
    perm = list(range(d))
    rng.shuffle(perm)
    layers, start = [], 0
    for w in WIDTHS[d][k % 2]:
        layers.append(perm[start:start + w])
        start += w
    edges = [(a, b) for upper, lower in zip(layers, layers[1:]) for a in upper for b in lower]
    if shape == "general":
        edges = [(a, b) for a, b in edges if a != layers[0][1]]
    return edges


def engine_work(universe, base, defaults, fixtures, above) -> float:
    """Candidate pairs the brute-force engine of today scans, over the
    squared base-model count. For each base model z it walks the
    fixture-equal base models at least as preferred as z in index order
    and stops at the first strictly better one. Both counts depend only on
    z's cell (its default and fixture vector), so this works on cells."""
    n = len(universe)
    cols = dict(zip(universe, L.columns(n)))
    full = (1 << (1 << n)) - 1
    bm = full
    for f in base:
        bm &= L.mask(f, cols, full)
    cells = {(0, 0): bm}
    for k, f in enumerate(list(fixtures) + list(defaults)):
        m = L.mask(f, cols, full)
        split = {}
        for (fv, dv), c in cells.items():
            for part, bit in ((c & m, 1), (c & ~m, 0)):
                if part:
                    key = (fv | bit << k, dv) if k < len(fixtures) else (fv, dv | bit << (k - len(fixtures)))
                    split[key] = part
        cells = split
    bind = L.binding_table(above)
    work = 0
    for (fu, u), cu in cells.items():
        cand = better = 0
        for (fv, v), cv in cells.items():
            if fv == fu and L.leq(u, v, bind):
                cand |= cv
                if not L.leq(v, u, bind):
                    better |= cv
        if better:
            cand &= (better & -better) - 1
            scanned = cand.bit_count() + 1
        else:
            scanned = cand.bit_count()
        work += cu.bit_count() * scanned
    return work / bm.bit_count() ** 2


# The work share is drawn from a long tail; defaults are redrawn until it
# lies near the median, so a pass's work is the same for every seed.
WORK_BAND = (0.011, 0.016)


# ---------------------------------------------------------------- query-dense

SHAPES = ("chain", "layered", "general")


def query_slots(tiny: bool) -> list[tuple[int, int, str, int, bool]]:
    """(atoms, defaults, shape, base formulas, fixture) per task of a pass."""
    counts = ((12, 3),) if tiny else ((14, 2), (13, 22), (12, 76))
    slots = []
    for n, count in counts:
        for k in range(count):
            slots.append((n, 5 + k % 3, SHAPES[(k // 3) % 3], 1 + (k // 9) % 3, k % 4 == 1))
    return slots


def base_band(n: int) -> tuple[int, int]:
    # Base-model counts near 2^n/8 (2^n/16 at 14 atoms). The engine's work
    # is this count squared times the work share of engine_work, so narrow
    # bands on both keep a pass's work the same across seeds.
    target = (1 << n) >> 3 if n < 14 else (1 << n) >> 4
    return target - target // 16, target + target // 16


def query_dense(seed: int, tiny: bool = False) -> list[Task]:
    rng = rng_for("query-dense", seed)
    tasks = []
    for k, (n, d, shape, n_base, fixture) in enumerate(query_slots(tiny)):
        universe = [f"x{j}" for j in range(n)]
        cols = dict(zip(universe, L.columns(n)))
        full = (1 << (1 << n)) - 1
        lo, hi = base_band(n)
        while True:
            base = [random_formula(rng, universe, 3) for _ in range(n_base)]
            bm = full
            for f in base:
                bm &= L.mask(f, cols, full)
            if lo <= bm.bit_count() <= hi:
                break
        labels = [f"d{j + 1}" for j in range(d)]
        edges = shaped_edges(rng, d, shape, k // 9)
        above = L.closure(d, edges)
        while True:
            defaults = [random_formula(rng, universe, 2) for _ in range(d)]
            fixtures = [random_formula(rng, universe, 2)] if fixture else []
            if WORK_BAND[0] <= engine_work(universe, base, defaults, fixtures, above) <= WORK_BAND[1]:
                break
        query = ("or", literal(rng, rng.choice(universe)), literal(rng, rng.choice(universe)))
        tasks.append(Task(
            "query",
            theory_text(universe, base, labels, defaults, edges, fixtures),
            n,
            dict(universe=universe, base=base, labels=labels, defaults=defaults, edges=edges,
                 fixtures=fixtures, query=query, query_text=L.text(query)),
            mem=n == 12 and k % 13 == 0,
        ))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------- transform-wide

# Chains of 10 make the middle of a pass and chains of 12 its top, so the
# quantiles fall inside blocks of tasks of one cost. Chains of 13 and 14
# would take half of a pass each time; chain_theory(14) is a reference row.
CHAIN_SIZES = (12, 12, 12, 12, 11, 11) + (10,) * 13
# Level widths of the stratified programs: 547, 682, 1755 and 2490 outputs.
STRATA_PROFILES = ((3, 4, 4), (2, 2, 2, 2, 2), (3, 3, 3, 3), (2, 2, 3, 3, 2))


def chain_task(rng: random.Random, n: int) -> Task:
    universe = [f"p{j}" for j in range(n)]
    labels = [f"c{j + 1}" for j in range(n)]
    defaults = [literal(rng, a) for a in universe]
    edges = chain_edges(rng, n)
    return Task("chain", theory_text(universe, [], labels, defaults, edges), (1 << n) - 1,
                dict(universe=universe, labels=labels, defaults=defaults, edges=edges))


def stratified_program(rng: random.Random, profile) -> tuple[list, dict[str, int]]:
    """Clauses (head, pos, neg) whose least stratification is exactly ``profile``:
    every atom above level 0 negates an atom one level down."""
    names = [f"q{j}" for j in range(sum(profile))]
    rng.shuffle(names)
    levels: dict[str, int] = {}
    at: list[list[str]] = []
    it = iter(names)
    for lvl, width in enumerate(profile):
        at.append([next(it) for _ in range(width)])
        for a in at[-1]:
            levels[a] = lvl
    clauses = []
    for lvl, layer in enumerate(at):
        below = [a for l in at[:lvl] for a in l]
        for a in layer:
            same = [b for b in layer + below if b != a]
            pos = tuple(rng.sample(same, min(len(same), rng.randrange(2))))
            if lvl == 0:
                clauses.append((a, pos, ()) if rng.random() < 0.5 else (a, (), ()))
            else:
                negs = (rng.choice(at[lvl - 1]),)
                if below and rng.random() < 0.3:
                    negs += (rng.choice(below),)
                clauses.append((a, pos, tuple(dict.fromkeys(negs))))
    for _ in range(len(names) // 2):
        a = rng.choice(names)
        lvl = levels[a]
        le = [b for b in names if levels[b] <= lvl and b != a]
        lt = [b for b in names if levels[b] < lvl]
        clauses.append((a, tuple(rng.sample(le, min(len(le), 1))), tuple(rng.sample(lt, min(len(lt), 1)))))
    rng.shuffle(clauses)
    return clauses, levels


def program_text(clauses) -> str:
    lines = []
    for head, pos, negs in clauses:
        body = list(pos) + [f"not {b}" for b in negs]
        lines.append(f"{head} :- {', '.join(body)}." if body else f"{head}.")
    return "\n".join(lines) + "\n"


def mention_order(clauses) -> list[str]:
    seen: dict[str, None] = {}
    for head, pos, negs in clauses:
        for a in (head,) + tuple(pos) + tuple(negs):
            seen.setdefault(a)
    return list(seen)


def program_task(rng: random.Random, profile, kind: str = "program") -> Task:
    clauses, levels = stratified_program(rng, profile)
    universe = mention_order(clauses)
    outputs = sum(1 << sum(1 for b in universe if levels[b] < levels[a]) for a in universe)
    return Task(kind, program_text(clauses), outputs,
                dict(clauses=clauses, levels=levels, universe=universe))


def transform_wide(seed: int, tiny: bool = False) -> list[Task]:
    rng = rng_for("transform-wide", seed)
    chains = (6, 5) if tiny else CHAIN_SIZES
    profiles = ((2, 2), (1, 2, 2)) if tiny else STRATA_PROFILES
    tasks = [chain_task(rng, n) for n in chains] + [program_task(rng, p) for p in profiles]
    # Parsing 16383 printed lines back takes longer than the task itself, so
    # the round trip is checked on the smallest input of each kind.
    for t in (min((t for t in tasks if t.kind == k), key=lambda t: t.size) for k in ("chain", "program")):
        t.mem = True
        t.info["parse_back"] = True
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------- schema-order

# Domain sizes and task counts: domain 5 makes the middle of a pass and
# domain 7 its 90th percentile.
SCHEMA_DOMAINS = ((12, 1), (11, 1), (10, 1), (9, 2), (8, 3), (7, 12), (6, 14), (5, 22), (4, 44))
PREDICATES = ("own", "likes", "sees", "owes", "helps", "knows", "meets")


def schema_layout(k: int) -> tuple[str, list[list[int]], list[int]]:
    """Shape, schema positions per level (3-4 levels) and arities of slot k.
    Fixed per slot, so the grounded order has the same size for every seed."""
    shape = SHAPES[k % 3]
    widths = [1] * (3 + (k // 3) % 2)
    if shape != "chain":
        widths[(k // 6) % (len(widths) - 1)] = 2
    levels, nxt = [], 0
    for w in widths:
        levels.append(list(range(nxt, nxt + w)))
        nxt += w
    arity = [1 + (j + k // 3) % 2 for j in range(nxt)]
    return shape, levels, arity


def schema_task(rng: random.Random, d: int, k: int) -> Task:
    shape, levels, arity = schema_layout(k)
    edges = [(a, b) for upper, lower in zip(levels, levels[1:]) for a in upper for b in lower]
    if shape == "general":
        # The second schema of the wide level loses its edges downwards: it
        # keeps its rank but no longer sits above the next level.
        loose = next(l[1] for l in levels if len(l) == 2)
        edges = [(a, b) for a, b in edges if a != loose]
    domain = [f"k{j}" for j in range(d)]
    lines = [f"domain: {' '.join(domain)}", f"base: {rng.choice(PREDICATES)}({rng.choice(domain)})"]
    for j, a in enumerate(arity):
        p, q = rng.sample(PREDICATES, 2)
        sign = "~" if rng.random() < 0.5 else ""
        if a == 1:
            lines.append(f"schema s{j}[X]: {p}(X) -> {sign}{q}(X)")
        else:
            lines.append(f"schema s{j}[X,Y]: {p}2(X,Y) -> {sign}{q}(Y)")
    lines += [f"prefer s{a} > s{b}" for a, b in edges]
    sizes = [d ** a for a in arity]
    above = L.closure(len(arity), edges)
    m = [sum(sizes[j] for j in L.bits(above[s])) for s in range(len(arity))]
    return Task("schema", "\n".join(lines) + "\n", d, dict(
        domain=domain, arity=arity, sizes=sizes, m=m, edges=edges,
        expected="general" if shape == "general" else "layered",
    ))


def schema_order(seed: int, tiny: bool = False) -> list[Task]:
    rng = rng_for("schema-order", seed)
    tasks = []
    for d, count in (((5, 1), (4, 2)) if tiny else SCHEMA_DOMAINS):
        for k in range(count):
            t = schema_task(rng, d, k)
            t.mem = d == 5
            tasks.append(t)
    rng.shuffle(tasks)
    return tasks


def tiny_schema(seed: int) -> str:
    """Two chained unary schemas over a two-constant domain: small enough
    for every subcommand, including model enumeration."""
    rng = rng_for("schema-parity", seed)
    p, q = rng.sample(["own", "likes", "sees", "owes"], 2)
    return (
        "domain: k0 k1\n"
        f"base: {p}(k0)\n"
        f"schema s0[X]: {p}(X) -> {q}(X)\n"
        f"schema s1[X]: {q}(X) -> ~{p}(X)\n"
        "prefer s0 > s1\n"
    )


# ---------------------------------------------------------------- verify-small

POOL = ("a", "b", "c", "d", "e")


def _rule(cond: str, concl: str) -> tuple:
    rhs = L.neg(L.atom(concl[1:])) if concl.startswith("~") else L.atom(concl)
    return ("imp", L.atom(cond), rhs)


# The three built-in inheritance scenarios: one exceptional subclass, two,
# and two levels of exceptional subclasses.
INHERITANCE = (
    (("bird", "flies", "ostrich"),
     (("ostrich", "bird"),),
     (("bird", "flies"), ("ostrich", "~flies")),
     ((1, 0),)),
    (("bird", "flies", "ostrich", "penguin"),
     (("ostrich", "bird"), ("penguin", "bird")),
     (("bird", "flies"), ("ostrich", "~flies"), ("penguin", "~flies")),
     ((1, 0), (2, 0))),
    (("animal", "bird", "flies", "ostrich", "penguin"),
     (("ostrich", "bird"), ("penguin", "bird"), ("bird", "animal")),
     (("animal", "~flies"), ("bird", "flies"), ("ostrich", "~flies"), ("penguin", "~flies")),
     ((1, 0), (2, 0), (3, 0), (2, 1), (3, 1))),
)


def inheritance_task(case: int) -> Task:
    universe, base, defaults, edges = INHERITANCE[case]
    first = 0 if len(defaults) == 4 else 1
    info = dict(
        universe=list(universe),
        base=[_rule(*r) for r in base],
        labels=[f"e{first + j}" for j in range(len(defaults))],
        defaults=[_rule(*r) for r in defaults],
        edges=list(edges),
        fixtures=[],
    )
    text = theory_text(info["universe"], info["base"], info["labels"], info["defaults"], info["edges"])
    return Task("prune", text, len(universe), info)


def small_theory(rng: random.Random, kind: str, fixture_prob: float) -> Task:
    """The instance shape of the randomized equivalence suites: up to 5
    atoms, 4 defaults, 3 base formulas, edges along a hidden permutation."""
    n = rng.randint(1, 5)
    universe = list(POOL[:n])
    d = rng.randint(1, 4)
    labels = [f"d{k + 1}" for k in range(d)]
    defaults = [random_formula(rng, universe, 2) for _ in range(d)]
    edges = random_edges(rng, d)
    base = [random_formula(rng, universe, 2) for _ in range(rng.randint(0, 3))]
    fixtures = [random_formula(rng, universe, 2)] if rng.random() < fixture_prob else []
    return Task(kind, theory_text(universe, base, labels, defaults, edges, fixtures), n, dict(
        universe=universe, base=base, labels=labels, defaults=defaults, edges=edges, fixtures=fixtures))


def verify_small(seed: int, tiny: bool = False) -> list[Task]:
    rng = rng_for("verify-small", seed)
    # The circumscription suite is the largest group, so the median task
    # lies inside one kind's cost distribution.
    n_pre, n_circ, n_lp, n_prune = (4, 4, 4, 1) if tiny else (600, 1000, 400, 20)
    tasks = [small_theory(rng, "preorder", 0.0) for _ in range(n_pre)]
    tasks += [small_theory(rng, "circ", 0.5) for _ in range(n_circ)]
    for _ in range(n_lp):
        n = rng.randint(1, 6)
        profile = [1] * min(n, 3)
        for _ in range(n - len(profile)):
            profile[rng.randrange(len(profile))] += 1
        tasks.append(program_task(rng, profile, "lp"))
    for case in range(len(INHERITANCE)):
        tasks += [inheritance_task(case) for _ in range(n_prune)]
    for t in tasks:
        t.mem = t.kind == "prune"
    rng.shuffle(tasks)
    return tasks


GENERATORS = {
    "query-dense": query_dense,
    "transform-wide": transform_wide,
    "schema-order": schema_order,
    "verify-small": verify_small,
}
