"""Independent semantics used to check parapri's answers.

Nothing here imports parapri. Formulas are tuples:

    ("atom", name)  ("const", bool)  ("not", f)
    ("and", f, g)   ("or", f, g)     ("imp", f, g)   ("iff", f, g)

``text`` prints them in parapri's fully parenthesized theory-file syntax.
Semantics come from two evaluators written here: a compiled
per-interpretation evaluator (the checkers' oracle) and a bit-parallel one
(used only by the generators to steer base-model counts and by the
transform fold check). Orders are bitmask closures over default positions.
"""

from __future__ import annotations

_BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def atom(name: str) -> tuple:
    return ("atom", name)


def neg(f: tuple) -> tuple:
    return ("not", f)


def text(f: tuple) -> str:
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "const":
        return "true" if f[1] else "false"
    if tag == "not":
        return "~" + text(f[1])
    return f"({text(f[1])} {_BINARY[tag]} {text(f[2])})"


def _expr(f: tuple, pos: dict[str, int]) -> str:
    tag = f[0]
    if tag == "atom":
        return f"(i>>{pos[f[1]]}&1)"
    if tag == "const":
        return "1" if f[1] else "0"
    if tag == "not":
        return f"(1^{_expr(f[1], pos)})"
    a, b = _expr(f[1], pos), _expr(f[2], pos)
    if tag == "and":
        return f"({a}&{b})"
    if tag == "or":
        return f"({a}|{b})"
    if tag == "imp":
        return f"((1^{a})|{b})"
    return f"(1^{a}^{b})"


def _packed(formulas, pos) -> str:
    if not formulas:
        return "0"
    return "|".join(f"({_expr(f, pos)}<<{k})" for k, f in enumerate(formulas))


def vector_function(universe, base, defaults, fixtures=()):
    """Compile ``i -> (base holds, default bits, fixture bits)`` for the
    interpretation with index ``i`` (atom k is bit k of i)."""
    pos = {a: k for k, a in enumerate(universe)}
    base_expr = "&".join(_expr(f, pos) for f in base) or "1"
    src = f"lambda i: ({base_expr}, {_packed(defaults, pos)}, {_packed(fixtures, pos)})"
    return eval(src, {})  # generated from the benchmark's own formula tuples


def columns(n: int) -> list[int]:
    """Bit-parallel truth tables of the n atoms over 2^n interpretations."""
    size = 1 << n
    cols = []
    for k in range(n):
        width = 1 << k
        col = ((1 << width) - 1) << width
        span = width << 1
        while span < size:
            col |= col << span
            span <<= 1
        cols.append(col)
    return cols


def mask(f: tuple, cols: dict[str, int], full: int) -> int:
    tag = f[0]
    if tag == "atom":
        return cols[f[1]]
    if tag == "const":
        return full if f[1] else 0
    if tag == "not":
        return full ^ mask(f[1], cols, full)
    a, b = mask(f[1], cols, full), mask(f[2], cols, full)
    if tag == "and":
        return a & b
    if tag == "or":
        return a | b
    if tag == "imp":
        return (full ^ a) | b
    return full ^ a ^ b


def closure(n: int, edges) -> list[int]:
    """above[i] = bitmask of positions strictly higher than i (Warshall)."""
    above = [0] * n
    for hi, lo in edges:
        above[lo] |= 1 << hi
    for k in range(n):
        bit = 1 << k
        ak = above[k]
        for i in range(n):
            if above[i] & bit:
                above[i] |= ak
    for i in range(n):
        if above[i] >> i & 1:
            raise ValueError("priority cycle")
    return above


def classify(above: list[int]) -> str:
    """parallel, chain/columnar, layered or general, from the definitions."""
    n = len(above)
    if not any(above):
        return "parallel"
    children = [0] * n
    single_parent = True
    for i in range(n):
        transitive = 0
        for k in bits(above[i]):
            transitive |= above[k]
        cover = above[i] & ~transitive
        single_parent &= cover & (cover - 1) == 0
        for j in bits(cover):
            children[j] += 1
    if single_parent and max(children) <= 1:
        return "chain/columnar"
    level = [0] * n
    for i in sorted(range(n), key=lambda x: above[x].bit_count()):
        level[i] = max((level[j] + 1 for j in bits(above[i])), default=0)
    lower = [0] * (max(level) + 2)
    for i in range(n):
        lower[level[i] + 1] |= 1 << i
    for lvl in range(1, len(lower)):
        lower[lvl] |= lower[lvl - 1]
    return "layered" if all(above[i] == lower[level[i]] for i in range(n)) else "general"


def bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def canonical_sequence(above: list[int], i: int) -> list[int]:
    """Descending topological order of i's dominators: repeatedly the first
    remaining one (declaration order) that no remaining one dominates."""
    remaining = list(bits(above[i]))
    rem_mask = above[i]
    seq = []
    while remaining:
        for k, x in enumerate(remaining):
            if not above[x] & rem_mask:
                seq.append(x)
                rem_mask &= ~(1 << x)
                del remaining[k]
                break
    return seq


def is_descending(above: list[int], i: int, seq) -> bool:
    """Whether seq lists exactly i's dominators, higher ones first."""
    if sorted(seq) != list(bits(above[i])):
        return False
    return all(not above[seq[a]] >> seq[b] & 1 for a in range(len(seq)) for b in range(a + 1, len(seq)))


def count_descending(above: list[int], i: int) -> int:
    def count(rem: int) -> int:
        if not rem:
            return 1
        return sum(count(rem & ~(1 << x)) for x in bits(rem) if not above[x] & rem)

    return count(above[i])


def output_formula(defaults, seq, bits: str, i: int) -> tuple:
    """Right-nested s1 g1 (s2 g2 (... (sm gm d_i))), gk = & when bit k is 1."""
    acc = defaults[i]
    for k in range(len(seq) - 1, -1, -1):
        acc = ("and" if bits[k] == "1" else "or", defaults[seq[k]], acc)
    return acc


def expected_transform(labels, defaults, above, sequences=None):
    """(label, formula, source position, bits) of the canonical member, in
    parapri's documented order: blocks by declaration, bits from all-ones down."""
    out = []
    for i, label in enumerate(labels):
        seq = sequences[i] if sequences is not None else canonical_sequence(above, i)
        m = len(seq)
        for v in range((1 << m) - 1, -1, -1):
            bits = format(v, f"0{m}b") if m else ""
            w = f"w_{label}_{bits}" if bits else f"w_{label}"
            out.append((w, output_formula(defaults, seq, bits, i), i, bits))
    return out


def binding_table(above: list[int]):
    """bind(x) = defaults whose dominators all agree when the default
    vectors differ exactly in x."""
    memo: dict[int, int] = {}
    full = (1 << len(above)) - 1

    def bind(x: int) -> int:
        r = memo.get(x)
        if r is None:
            r = full
            for i, d in enumerate(above):
                if x & d:
                    r &= ~(1 << i)
            memo[x] = r
        return r

    return bind


def leq(u: int, v: int, bind) -> bool:
    """Pre-order of preorder.py on default vectors: v at least as preferred as u."""
    return not (u & ~v & bind(u ^ v))


def preferred(universe, base, defaults, above, fixtures=()) -> frozenset[int]:
    """Indices of base models that no fixture-equal base model strictly beats."""
    fn = vector_function(universe, base, defaults, fixtures)
    groups: dict[int, dict[int, list[int]]] = {}
    for i in range(1 << len(universe)):
        ok, dv, fv = fn(i)
        if ok:
            groups.setdefault(fv, {}).setdefault(dv, []).append(i)
    bind = binding_table(above)
    out = []
    for vectors in groups.values():
        keys = list(vectors)
        for u in keys:
            if not any(leq(u, v, bind) and not leq(v, u, bind) for v in keys if v != u):
                out.extend(vectors[u])
    return frozenset(out)


def preorders_agree(universe, defaults1, above1, defaults2, above2) -> bool:
    """Whether two default pre-orders agree on every interpretation pair."""
    fn1 = vector_function(universe, (), defaults1)
    fn2 = vector_function(universe, (), defaults2)
    pairs = {(fn1(i)[1], fn2(i)[1]) for i in range(1 << len(universe))}
    bind1, bind2 = binding_table(above1), binding_table(above2)
    return all(leq(a1, b1, bind1) == leq(a2, b2, bind2) for a1, a2 in pairs for b1, b2 in pairs)


def least_model(clauses, levels: dict[str, int], universe) -> int:
    """Stratum-by-stratum least fixpoint of (head, pos, neg) clauses, as an
    interpretation index over ``universe``."""
    true: set[str] = set()
    for lvl in sorted(set(levels.values())):
        layer = [c for c in clauses if levels[c[0]] == lvl]
        changed = True
        while changed:
            changed = False
            for head, pos, negs in layer:
                if head not in true and all(b in true for b in pos) and not any(b in true for b in negs):
                    true.add(head)
                    changed = True
    return sum(1 << k for k, a in enumerate(universe) if a in true)
