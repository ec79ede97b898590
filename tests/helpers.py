"""Shared test utilities: independent oracles and comparison helpers.

The oracles here deliberately avoid the package's packed-truth-table
machinery and its explicit-stack walks: they recurse over the AST per
interpretation, so agreement with the engine is a genuine cross-check.
``parse_formula_reference`` matches one token at a time into
(kind, text, offset) tuples before it parses, and
``formula_equal_reference`` walks two trees in pairs. ``perfect_model``
is the least-fixpoint model that ``encode_stratified`` and
``preferred_models`` must reproduce, and ``fixtures_to_defaults`` the
"fixture F = parallel pair F, ~F" reduction that fixture handling is
compared against. No library code calls them.
"""

from __future__ import annotations

import itertools
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from parapri.errors import CycleError, ParseError, UniverseError, ValidationError
from parapri.formula import FALSE, IDENT, TRUE, And, Atom, Const, Formula, Iff, Implies, Interpretation, Not, Or
from parapri.lp import Clause, Program, stratify
from parapri.theory import LabeledFormula, PriorityOrder, Provenance, SchemaTheory, Theory, build_theory

ROOT = Path(__file__).resolve().parents[1]


def _value(z: Interpretation, atom: str) -> bool:
    try:
        return z.values[z.universe.index(atom)]
    except ValueError:
        raise UniverseError(f"atom {atom!r} not in universe") from None


def evaluate(f: Formula, z: Interpretation) -> bool:
    """Classical truth value of ``f`` under ``z``."""
    match f:
        case Atom(name):
            return _value(z, name)
        case Const(value):
            return value
        case Not(arg):
            return not evaluate(arg, z)
        case And(l, r):
            return evaluate(l, z) and evaluate(r, z)
        case Or(l, r):
            return evaluate(l, z) or evaluate(r, z)
        case Implies(l, r):
            return (not evaluate(l, z)) or evaluate(r, z)
        case Iff(l, r):
            return evaluate(l, z) == evaluate(r, z)
    raise TypeError(f"not a formula: {f!r}")


_TOKEN_RE = re.compile(r"\s+|#[^\n]*|(?P<op><->|->|[~&|(),])|(?P<ident>" + IDENT + ")")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unknown token {text[pos]!r}", offset=pos)
        if m.group("op"):
            tokens.append(("op", m.group("op"), pos))
        elif m.group("ident"):
            tokens.append(("ident", m.group("ident"), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


_BINARY = {"<->": (1, Iff), "->": (2, Implies), "|": (3, Or), "&": (4, And)}


def _found(text: str) -> str:
    return repr(text or "end of input")


def parse_formula_reference(text: str) -> Formula:
    """The whole text tokenized first, one (kind, text, offset) tuple per
    token, then one operator-precedence loop; the reference for
    ``parse_formula``'s results and error messages."""
    tokens = _tokenize(text)
    operands: list[Formula] = []
    pending: list[str] = []  # unapplied "~", "(" and binary operators
    depth = 0  # open parentheses
    k = 0

    def reduce(strength: int) -> None:
        while pending and pending[-1] in _BINARY and _BINARY[pending[-1]][0] >= strength:
            right = operands.pop()
            operands[-1] = _BINARY[pending.pop()][1](operands[-1], right)

    def close_unary() -> None:
        while pending and pending[-1] == "~":
            pending.pop()
            operands[-1] = Not(operands[-1])

    while True:
        kind, tok, pos = tokens[k]
        k += 1
        if kind == "op" and tok in ("~", "("):
            pending.append(tok)
            depth += tok == "("
            continue
        if kind != "ident":
            raise ParseError(f"expected a formula, found {_found(tok)}", offset=pos)
        if tok in ("true", "false"):
            operands.append(TRUE if tok == "true" else FALSE)
        elif tokens[k][:2] == ("op", "("):
            args = []
            while True:
                kind, arg, pos = tokens[k + 1]
                if kind != "ident":
                    raise ParseError(f"expected an identifier, found {_found(arg)}", offset=pos)
                args.append(arg)
                k += 2
                if tokens[k][:2] != ("op", ","):
                    break
            kind, close, pos = tokens[k]
            if (kind, close) != ("op", ")"):
                raise ParseError(f"expected ')', found {_found(close)}", offset=pos)
            k += 1
            operands.append(Atom(f"{tok}({','.join(args)})"))
        else:
            operands.append(Atom(tok))
        close_unary()
        while True:
            kind, tok, pos = tokens[k]
            k += 1
            if kind == "op" and tok == ")" and depth:
                reduce(0)
                pending.pop()
                depth -= 1
                close_unary()
                continue
            if kind == "op" and tok in _BINARY:
                strength = _BINARY[tok][0]
                reduce(strength + 1 if tok == "->" else strength)  # "->" is right associative
                pending.append(tok)
                break
            if depth:
                raise ParseError(f"expected ')', found {_found(tok)}", offset=pos)
            if kind != "end":
                raise ParseError(f"unexpected {tok!r} after formula", offset=pos)
            reduce(0)
            return operands[0]


_OPS = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


def text_naive(f: Formula) -> str:
    """Fully parenthesized text of ``f``, by recursion; for formulas of
    hypothesis size, not for deep ones."""
    match f:
        case Atom(name):
            return name
        case Const(value):
            return "true" if value else "false"
        case Not(arg):
            return "~" + text_naive(arg)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return f"({text_naive(l)} {_OPS[type(f)]} {text_naive(r)})"
    raise TypeError(f"not a formula: {f!r}")


def formula_equal_reference(f: Formula, g: Formula) -> bool:
    """Structural equality by a pairwise walk of both trees on one stack,
    skipping a pair of identical subtrees; the reference for ``==``."""
    todo = [(f, g)]
    while todo:
        f, g = todo.pop()
        t = type(f)
        if f is g:
            continue
        if t is not type(g):
            return False
        if t is Not:
            todo.append((f.arg, g.arg))
        elif t in _OPS:
            todo += ((f.right, g.right), (f.left, g.left))
        elif t is Atom:
            if f.name != g.name:
                return False
        elif t is Const:
            if f.value != g.value:
                return False
        elif f != g:  # operands that are not formulas
            return False
    return True


def _check_universes(z: Interpretation, z2: Interpretation) -> None:
    if z.universe != z2.universe:
        raise UniverseError("interpretations over different universes are incomparable")


def default_leq(spec: Theory, z: Interpretation, z2: Interpretation) -> bool:
    """Whether z2 is at least as preferred as z under the prioritized pre-order."""
    _check_universes(z, z2)
    formulas = dict(spec.defaults)
    doms = spec.priority.dominators_map
    for label, f in spec.defaults:
        binding = all(
            evaluate(formulas[j], z) == evaluate(formulas[j], z2) for j in doms[label]
        )
        if binding and evaluate(f, z) and not evaluate(f, z2):
            return False
    return True


def fixture_equiv(fixtures: Iterable[Formula], z: Interpretation, z2: Interpretation) -> bool:
    """Whether every fixture formula has the same truth value in z and z2."""
    _check_universes(z, z2)
    return all(evaluate(f, z) == evaluate(f, z2) for f in fixtures)


def strictly_better(spec: Theory, z2: Interpretation, z: Interpretation) -> bool:
    """Whether z2 strictly improves on z: fixture-equivalent, z below z2, not conversely."""
    return (
        fixture_equiv((f for _, f in spec.fixtures), z, z2)
        and default_leq(spec, z, z2)
        and not default_leq(spec, z2, z)
    )



def closure_pairs(order: PriorityOrder) -> frozenset[tuple[str, str]]:
    """The (higher, lower) label pairs of ``order``'s closure, read bit by
    bit off its ``above`` masks."""
    names = order.indices
    return frozenset((names[j], names[i]) for i, a in enumerate(order.above) for j in range(len(names)) if a >> j & 1)


def transitive_closure_naive(edges: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Smallest transitive superset of ``edges``; raises CycleError if it
    would contain a reflexive pair, naming the least label on a cycle."""
    direct: dict[str, set[str]] = {}
    nodes: set[str] = set()
    for a, b in edges:
        direct.setdefault(a, set()).add(b)
        nodes.update((a, b))
    reach = {x: set(direct.get(x, ())) for x in nodes}
    changed = True
    while changed:
        changed = False
        for x in nodes:
            extra = set()
            for y in reach[x]:
                extra |= reach.get(y, set())
            if not extra <= reach[x]:
                reach[x] |= extra
                changed = True
    cyclic = [x for x in nodes if x in reach[x]]
    if cyclic:
        raise CycleError(f"priority cycle through {min(cyclic)!r}")
    return frozenset((x, y) for x in nodes for y in reach[x])


def order_masks_by_kahn(names: tuple[str, ...], edges: Iterable[tuple[int, int]]) -> list[int]:
    """For (higher, lower) position pairs over ``names``: one int per name
    whose bit k is set when ``names[k]`` is strictly higher, filled in
    Kahn's topological order. A name left over lies on a cycle or below
    one; Warshall's closure among those names keeps the ones that reach
    themselves, and CycleError names the least of them."""
    below: dict[int, list[int]] = {}
    pending: dict[int, int] = {}
    for hi, lo in edges:
        below.setdefault(hi, []).append(lo)
        pending[lo] = pending.get(lo, 0) + 1
    above = [0] * len(names)
    ready = [k for k in below if k not in pending]
    for hi in ready:  # the list grows while it is read
        up = above[hi] | 1 << hi
        for lo in below.get(hi, ()):
            above[lo] |= up
            pending[lo] -= 1
            if not pending[lo]:
                ready.append(lo)
    left = [k for k, p in pending.items() if p]
    if left:
        reach = {k: sum({1 << lo for lo in below.get(k, ())}) for k in left}
        for k in left:
            bit, rk = 1 << k, reach[k]
            for i in left:
                if reach[i] & bit:
                    reach[i] |= rk
        raise CycleError(f"priority cycle through {min(names[k] for k in left if reach[k] >> k & 1)!r}")
    return above


def cycle_through_negation_by_literals(clauses) -> tuple[str, ...] | None:
    """The witness of a cycle through negation in ``clauses`` (objects with
    ``head``, ``pos`` and ``neg``), or None: for each negated body atom of
    each clause in turn, a breadth-first search along head -> body edges
    for a path from it to the clause's head; the first path found."""
    deps: dict[str, list[str]] = {}
    for c in clauses:
        for a in (c.head, *c.pos, *c.neg):
            deps.setdefault(a, [])
        deps[c.head] += [*c.pos, *c.neg]
    for c in clauses:
        for start in c.neg:
            parent: dict[str, str | None] = {start: None}
            queue = [start]
            while queue:
                x = queue.pop(0)
                if x == c.head:
                    path = [x]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return tuple(reversed(path))
                for y in deps[x]:
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
    return None


def descending_naive(
    indices: tuple[str, ...], edges: Iterable[tuple[str, str]], label: str
) -> Iterator[tuple[str, ...]]:
    """The descending topological orderings of ``label``'s dominators, by
    recursion: a remaining label that no remaining label is above comes
    next, candidates in declaration order. The dominators come from the
    fixpoint closure of the entered ``edges``."""
    closure = transitive_closure_naive(edges)

    def walk(rest: frozenset[str]) -> Iterator[tuple[str, ...]]:
        if not rest:
            yield ()
            return
        for x in indices:
            if x in rest and not any((y, x) in closure for y in rest):
                for tail in walk(rest - {x}):
                    yield (x,) + tail

    return walk(frozenset(j for j, i in closure if i == label))


def build_wil(formulas: Mapping[str, Formula], index: str, sigma: Sequence[str], bits: str) -> Formula:
    """One transform output built as a separate nest: the dominators in
    ``sigma`` outermost, the default ``index`` innermost, and ``sigma[k]``
    joined by ``&`` where bit k is 1, by ``|`` where it is 0."""
    acc = formulas[index]
    for s, b in reversed(list(zip(sigma, bits, strict=True))):
        acc = (And if b == "1" else Or)(formulas[s], acc)
    return acc


def labels_and_provenance_eagerly(
    names: Sequence[str], sigmas: Sequence[Sequence[int]]
) -> tuple[list[str], list[Provenance]]:
    """The transform's output labels and provenance built one output at a
    time, a bit string by ``format`` for each, for the sources ``names``
    whose dominator positions are ``sigmas``: label ``w_<source>_<bits>``,
    or ``w_<source>`` with no dominators. A label made twice is refused
    with the transform's message, naming the first repeat."""
    labels: list[str] = []
    prov: list[Provenance] = []
    for label, sigma in zip(names, sigmas, strict=True):
        m = len(sigma)
        named = tuple(names[j] for j in sigma)
        for v in range((1 << m) - 1, -1, -1):
            bits = format(v, f"0{m}b") if m else ""
            labels.append(f"w_{label}_{bits}" if m else f"w_{label}")
            prov.append(Provenance(label, named, bits))
    seen: set[str] = set()
    for l in labels:
        if l in seen:
            raise ValidationError(f"generated label {l!r} is not unique")
        seen.add(l)
    return labels, prov


def classify_order_naive(indices: tuple[str, ...], edges: Iterable[tuple[str, str]]) -> str:
    """Shape of the priority order: parallel, chain/columnar, layered, general.

    Cover relation by the cubic scan over closure pairs and levels by
    recursion; the closure and dominators come from the fixpoint oracle
    over the entered ``edges``."""
    closure = transitive_closure_naive(edges)
    if not closure:
        return "parallel"
    cover = {
        (j, i)
        for (j, i) in closure
        if not any((j, k) in closure and (k, i) in closure for k in indices)
    }
    parents: dict[str, int] = {i: 0 for i in indices}
    children: dict[str, int] = {i: 0 for i in indices}
    for j, i in cover:
        children[j] += 1
        parents[i] += 1
    if all(parents[x] <= 1 and children[x] <= 1 for x in indices):
        return "chain/columnar"
    doms = {i: {j for j, k in closure if k == i} for i in indices}
    level: dict[str, int] = {}

    def rank(x: str) -> int:
        if x not in level:
            level[x] = 0 if not doms[x] else 1 + max(rank(j) for j in doms[x])
        return level[x]

    for x in indices:
        rank(x)
    layered = all(
        ((j, i) in closure) == (level[j] < level[i])
        for j in indices
        for i in indices
        if j != i
    )
    return "layered" if layered else "general"


def _substitute_naive(f: Formula, binding: dict[str, str]) -> Formula:
    """``f`` with every bound name replaced: an argument of ``p(...)``, or
    a whole bare atom name."""
    match f:
        case Atom(name):
            m = re.fullmatch(r"(\w+)\((.*)\)", name)
            if m:
                return Atom(f"{m.group(1)}({','.join(binding.get(p, p) for p in m.group(2).split(','))})")
            return Atom(binding.get(name, name))
        case Const():
            return f
        case Not(arg):
            return Not(_substitute_naive(arg, binding))
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            return type(f)(_substitute_naive(l, binding), _substitute_naive(r, binding))
    raise TypeError(f"not a formula: {f!r}")


def _mentions_naive(f: Formula) -> Iterator[str]:
    match f:
        case Atom(name):
            yield name
        case Not(arg):
            yield from _mentions_naive(arg)
        case And(l, r) | Or(l, r) | Implies(l, r) | Iff(l, r):
            yield from _mentions_naive(l)
            yield from _mentions_naive(r)


def _instance_label_naive(schema, combo: tuple[str, ...]) -> str:
    return f"{schema.label}[{','.join(combo)}]" if schema.params else schema.label


def lifted_edges_naive(s: SchemaTheory) -> list[tuple[str, str]]:
    """``s``'s priority edges lifted to every pair of instances: a plain
    default is its own single instance."""
    instances = {d.label: [d.label] for d in s.defaults}
    for schema in s.schemas:
        combos = itertools.product(s.domain, repeat=len(schema.params))
        instances[schema.label] = [_instance_label_naive(schema, combo) for combo in combos]
    return [(x, y) for a, b in s.edges for x in instances[a] for y in instances[b]]


def ground_naive(s: SchemaTheory) -> Theory:
    """Grounding by recursive substitution of each instance's binding, with
    edges lifted to every instance pair and the universe in first-mention
    order by recursion."""
    defaults = list(s.defaults)
    for schema in s.schemas:
        for combo in itertools.product(s.domain, repeat=len(schema.params)):
            binding = dict(zip(schema.params, combo))
            defaults.append((_instance_label_naive(schema, combo), _substitute_naive(schema.formula, binding)))
    formulas = [*s.base, *(f for _, f in defaults), *(f for _, f in s.fixtures)]
    return build_theory(
        atoms=tuple(dict.fromkeys(n for f in formulas for n in _mentions_naive(f))),
        base=s.base,
        defaults=defaults,
        prefer=lifted_edges_naive(s),
        fixtures=s.fixtures,
    )


def models_naive(base, universe) -> list[Interpretation]:
    out = []
    for idx in range(2 ** len(universe)):
        z = Interpretation.from_index(universe, idx)
        if all(evaluate(b, z) for b in base):
            out.append(z)
    return out


def preferred_indices_naive(t: Theory) -> set[int]:
    """Enumerate all interpretations and apply the strict-domination test pairwise."""
    ms = models_naive(t.base, t.universe)
    return {m.index for m in ms if not any(strictly_better(t, m2, m) for m2 in ms)}


def perfect_model(p: Program) -> Interpretation:
    """Stratum-by-stratum least fixpoint model of a stratified program."""
    level = stratify(p)
    layers: list[list[Clause]] = [[] for _ in range(max(level.values(), default=0) + 1)]
    for c in p.clauses:
        layers[level[c.head]].append(c)
    true: set[str] = set()
    for layer in layers:
        changed = True
        while changed:
            changed = False
            for c in layer:
                if c.head in true:
                    continue
                if all(b in true for b in c.pos) and not any(n in true for n in c.neg):
                    true.add(c.head)
                    changed = True
    return Interpretation(p.atoms, tuple(a in true for a in p.atoms))


def fixtures_to_defaults(t: Theory) -> Theory:
    """Replace each fixture F by the parallel pair of defaults F and ~F."""
    existing = {d.label for d in t.defaults}
    new_defaults = list(t.defaults)
    for label, f in t.fixtures:
        for new_label, g in ((f"fix_{label}", f), (f"nfix_{label}", Not(f))):
            if new_label in existing:
                raise ValidationError(f"generated label {new_label!r} clashes with an existing default")
            existing.add(new_label)
            new_defaults.append(LabeledFormula(new_label, g))
    above = t.priority.above + (0,) * (2 * len(t.fixtures))  # the new labels are unordered
    return replace(
        t,
        defaults=tuple(new_defaults),
        priority=PriorityOrder._closed(tuple(d.label for d in new_defaults), above),
        fixtures=(),
    )


def _flatten(f: Formula, cls) -> list[str]:
    if isinstance(f, cls):
        return _flatten(f.left, cls) + _flatten(f.right, cls)
    return [ac_key(f)]


def ac_key(f: Formula) -> str:
    """Canonical string invariant under reordering of & / | / <-> operands."""
    match f:
        case Atom(name):
            return name
        case Const(v):
            return "true" if v else "false"
        case Not(g):
            return f"~{ac_key(g)}"
        case And() | Or():
            op = "&" if isinstance(f, And) else "|"
            return "(" + op.join(sorted(_flatten(f, type(f)))) + ")"
        case Implies(l, r):
            return f"({ac_key(l)}->{ac_key(r)})"
        case Iff(l, r):
            return "(" + "<->".join(sorted((ac_key(l), ac_key(r)))) + ")"
    raise TypeError(f)


def ac_set(formulas) -> frozenset[str]:
    return frozenset(ac_key(f) for f in formulas)


def positive_closure_naive(masks: Iterable[int]) -> set[int]:
    """Closure of truth masks under & and |: every &/| combination of them."""
    vals = set(masks)
    while True:
        fresh = {c for a in vals for b in vals for c in (a & b, a | b)} - vals
        if not fresh:
            return vals
        vals |= fresh


def chain_theory(n: int) -> Theory:
    """n single-atom defaults totally ordered d1 > d2 > ... > dn."""
    defaults = [(f"d{k}", f"p{k}") for k in range(1, n + 1)]
    prefer = [(f"d{k}", f"d{k + 1}") for k in range(1, n)]
    return build_theory(defaults=defaults, prefer=prefer)


def run_python(*args, preexec_fn=None, **env: str) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` in a child process that imports parapri from this
    checkout's ``src``; ``env`` entries are added to the environment, and
    ``preexec_fn`` runs in the child before it starts."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=300,
        preexec_fn=preexec_fn,
    )
