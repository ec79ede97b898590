"""Propositional normal logic programs: stratification, the layered-priority
encoding into a default theory, and the perfect-model oracle.

Program file format: one clause per line, terminated by a period; atoms
may take arguments, as in formulas::

    q.
    p :- a, b, not c.
    r(x,y) :- q, not s(x).

Stratification assigns each atom the least level such that positive body
atoms sit no higher than the head and negated body atoms sit strictly
lower. A cycle through negation makes that impossible.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from .errors import NotStratifiedError, ParseError, ValidationError
from .formula import ATOM_RE, And, Atom, Formula, Implies, Interpretation, Not
from .theory import LabeledFormula, PriorityOrder, Theory


@dataclass(frozen=True)
class Clause:
    head: str
    pos: tuple[str, ...] = ()
    neg: tuple[str, ...] = ()


@dataclass(frozen=True)
class Program:
    clauses: tuple[Clause, ...]

    @cached_property
    def atoms(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for c in self.clauses:
            seen.setdefault(c.head)
            for a in c.pos + c.neg:
                seen.setdefault(a)
        return tuple(seen)


@dataclass(frozen=True)
class Stratification:
    stratum: dict[str, int]

    def of(self, atom: str) -> int:
        return self.stratum[atom]

    @property
    def max_level(self) -> int:
        return max(self.stratum.values(), default=0)


def _parse_atom(token: str, lineno: int) -> str:
    token = token.strip()
    if not ATOM_RE.fullmatch(token):
        raise ParseError(f"bad atom {token!r}", line=lineno)
    return token


_ARGS_RE = re.compile(r"(\([^()]*\))")  # ``split`` keeps these closed groups at odd positions


def parse_program(text: str) -> Program:
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.endswith("."):
            raise ParseError("clause does not end with '.'", line=lineno)
        line = line[:-1].strip()
        head_text, sep, body_text = line.partition(":-")
        head = _parse_atom(head_text, lineno)
        pos: list[str] = []
        neg: list[str] = []
        if sep:
            if not body_text.strip():
                raise ParseError("empty clause body after ':-'", line=lineno)
            literals = [""]  # the body split on its commas outside parentheses
            for k, piece in enumerate(_ARGS_RE.split(body_text)):
                first, *rest = (piece,) if k % 2 else piece.split(",")
                literals[-1] += first
                literals += rest
            for lit in literals:
                lit = lit.strip()
                if lit.startswith("not "):
                    neg.append(_parse_atom(lit[4:], lineno))
                else:
                    pos.append(_parse_atom(lit, lineno))
        clauses.append(Clause(head, tuple(pos), tuple(neg)))
    return Program(tuple(clauses))


def _not_stratified(p: Program, deps: dict[str, list[tuple[str, int]]]) -> NotStratifiedError:
    # For a program with a cycle through negation: the first such cycle, from
    # the first negated body atom of the first clause that closes one.
    for c in p.clauses:
        for target in c.neg:
            # path target ~> c.head closes a cycle through this negation
            path = _find_path(deps, target, c.head)
            if path is not None:
                return NotStratifiedError(
                    f"program is not stratified (cycle through negation: {' -> '.join(path)})", cycle=tuple(path)
                )
    raise AssertionError("no cycle through negation")


def _find_path(deps: dict[str, list[tuple[str, int]]], start: str, goal: str) -> list[str] | None:
    parent: dict[str, str | None] = {start: None}
    queue = [start]
    while queue:
        x = queue.pop(0)
        if x == goal:
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return list(reversed(path))
        for y, _ in deps[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return None


def stratify(p: Program) -> Stratification:
    """Least level assignment, or NotStratifiedError with a witness cycle.

    The atoms of a strongly connected component of the dependencies share
    the least level that covers the edges leaving it; Tarjan's algorithm
    emits each component after those it depends on, so one pass does."""
    # head -> (body atom, 1 if negated), in first-mention order
    deps: dict[str, list[tuple[str, int]]] = {a: [] for a in p.atoms}
    for c in p.clauses:
        deps[c.head] += [(b, 0) for b in c.pos] + [(b, 1) for b in c.neg]
    level: dict[str, int] = {}  # the atoms of emitted components
    index: dict[str, int] = {}  # visit order
    low: dict[str, int] = {}  # the least index on the stack that an atom reaches
    stack: list[str] = []  # visited atoms not yet emitted
    for root in p.atoms:
        work = [] if root in index else [(root, None)]
        while work:
            a, edges = work.pop()
            if edges is None:
                index[a] = low[a] = len(index)
                stack.append(a)
                edges = iter(deps[a])
            for b, _ in edges:
                if b not in index:
                    work += [(a, edges), (b, None)]
                    break
                if b not in level:
                    low[a] = min(low[a], index[b])
            else:
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[a])
                if low[a] == index[a]:  # ``a`` and the atoms above it on the stack
                    component = set()
                    while a not in component:
                        component.add(stack.pop())
                    need = 0
                    for x in component:
                        for b, w in deps[x]:
                            if b not in component:
                                need = max(need, level[b] + w)
                            elif w:
                                raise _not_stratified(p, deps)
                    level.update(dict.fromkeys(component, need))
    return Stratification(level)


def _clause_formula(c: Clause) -> Formula:
    if not c.pos and not c.neg:
        return Atom(c.head)
    literals: list[Formula] = [Atom(a) for a in c.pos] + [Not(Atom(a)) for a in c.neg]
    body = literals[0]
    for lit in literals[1:]:
        body = And(body, lit)
    return Implies(body, Atom(c.head))


def _default_label(atom: str) -> str:
    return "min_" + re.sub(r"[(),]", "_", atom)


def encode_stratified(p: Program) -> Theory:
    """Clauses become for-sure premises; every atom is minimized, atoms of
    lower strata at strictly higher priority."""
    strata = stratify(p)
    labels = [_default_label(a) for a in p.atoms]
    if len(set(labels)) != len(labels):
        raise ValidationError("atom names collide after label sanitization")
    defaults = tuple(LabeledFormula(l, Not(Atom(a))) for l, a in zip(labels, p.atoms))
    # The labels above an atom's are those of every lower stratum: already closed and acyclic.
    strata_masks = [0] * (strata.max_level + 1)
    for k, a in enumerate(p.atoms):
        strata_masks[strata.of(a)] |= 1 << k
    below = list(itertools.accumulate(strata_masks, initial=0))  # the strata are disjoint: sums are unions
    return Theory._known_atoms(
        universe=p.atoms,
        base=tuple(_clause_formula(c) for c in p.clauses),
        defaults=defaults,
        priority=PriorityOrder._closed(tuple(labels), tuple(below[strata.of(a)] for a in p.atoms)),
    )


def perfect_model(p: Program) -> Interpretation:
    """Stratum-by-stratum least fixpoint model of a stratified program."""
    strata = stratify(p)
    true: set[str] = set()
    for lvl in range(strata.max_level + 1):
        layer = [c for c in p.clauses if strata.of(c.head) == lvl]
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
