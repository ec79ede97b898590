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


def _negative_cycle_witness(p: Program) -> tuple[str, ...]:
    # dependency edges head -> body atom, kept in first-mention order
    deps: dict[str, dict[str, None]] = {a: {} for a in p.atoms}
    for c in p.clauses:
        deps[c.head].update(dict.fromkeys(c.pos + c.neg))
    for c in p.clauses:
        for target in c.neg:
            # path target ~> c.head closes a cycle through this negation
            path = _find_path(deps, target, c.head)
            if path is not None:
                return tuple(path)
    return ()


def _find_path(deps: dict[str, dict[str, None]], start: str, goal: str) -> list[str] | None:
    parent: dict[str, str | None] = {start: None}
    queue = [start]
    while queue:
        x = queue.pop(0)
        if x == goal:
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return list(reversed(path))
        for y in deps.get(x, ()):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    return None


def stratify(p: Program) -> Stratification:
    """Least level assignment, or NotStratifiedError with a witness cycle."""
    level = {a: 0 for a in p.atoms}
    bound = len(p.atoms)
    for _ in range(bound + 1):
        changed = False
        for c in p.clauses:
            need = max(
                [level[b] for b in c.pos] + [level[n] + 1 for n in c.neg],
                default=0,
            )
            if need > level[c.head]:
                level[c.head] = need
                changed = True
        if not changed:
            return Stratification(level)
    cycle = _negative_cycle_witness(p)
    raise NotStratifiedError(
        f"program is not stratified (cycle through negation: {' -> '.join(cycle) or 'unlocated'})",
        cycle=cycle,
    )


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
