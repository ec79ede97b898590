"""Propositional normal logic programs: stratification and the
layered-priority encoding into a default theory. The perfect-model oracle
that the encoding is checked against lives in the tests.

Program file format: one clause per line, terminated by a period; atoms
may take arguments, as in formulas::

    q.
    p :- a, b, not c.
    r(x,y) :- q, not s(x).

Stratification assigns each atom the least level such that positive body
atoms sit no higher than the head and negated body atoms sit strictly
lower. A cycle through negation makes that impossible. Both follow from
one walk over the strongly connected components of the head -> body
graph, the one that ``theory`` runs over priority orders.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from .errors import NotStratifiedError, ParseError, ValidationError
from .formula import And, Atom, Formula, Implies, Not, parse_atom
from .theory import LabeledFormula, PriorityOrder, Theory, strongly_connected


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
        """Every atom, in first-mention order."""
        return tuple(dict.fromkeys(a for c in self.clauses for a in (c.head, *c.pos, *c.neg)))


def _parse_atom(token: str, names: dict[str, Atom]) -> str:
    # ``names`` holds the atoms read so far under their names, as in
    # ``parse_formula``, so that the program shares one Atom per name.
    if (atom := parse_atom(token, names)) is None:
        raise ParseError(f"bad atom {token.strip()!r}")
    return atom.name


_ARGS_RE = re.compile(r"(\([^()]*\))")  # ``split`` keeps these closed groups at odd positions


def parse_program(text: str) -> Program:
    """Parse a program file; each error a line raises is numbered in one
    place, after its own message, as ``theory.parse_theory`` numbers them."""
    clauses = []
    names: dict[str, Atom] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if not line.endswith("."):
                raise ParseError("clause does not end with '.'")
            head_text, sep, body_text = line[:-1].strip().partition(":-")
            head = _parse_atom(head_text, names)
            pos: list[str] = []
            neg: list[str] = []
            if sep:
                if not body_text.strip():
                    raise ParseError("empty clause body after ':-'")
                literals = [""]  # the body split on its commas outside parentheses
                for k, piece in enumerate(_ARGS_RE.split(body_text)):
                    first, *rest = (piece,) if k % 2 else piece.split(",")
                    literals[-1] += first
                    literals += rest
                for lit in literals:
                    lit = lit.strip()
                    if lit.startswith("not "):
                        neg.append(_parse_atom(lit[4:], names))
                    else:
                        pos.append(_parse_atom(lit, names))
        except ParseError as e:
            raise ParseError(str(e), line=lineno) from None
        clauses.append(Clause(head, tuple(pos), tuple(neg)))
    return Program(tuple(clauses))


def _witness(p: Program, deps: dict[str, list[str]]) -> NotStratifiedError:
    # For a program with a cycle through negation: the first negated body atom
    # of the first clause whose head shares its component, and a shortest
    # path from it back to the head, breadth first.
    owner = {x: k for k, component in enumerate(strongly_connected(deps)) for x in component}
    c, start = next((c, n) for c in p.clauses for n in c.neg if owner[n] == owner[c.head])
    parent: dict[str, str | None] = {start: None}
    queue = [start]
    for x in queue:  # the queue grows while it is read
        if x == c.head:
            break
        for y in deps[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    path = [c.head]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return NotStratifiedError(
        f"program is not stratified (cycle through negation: {' -> '.join(path)})", cycle=tuple(path)
    )


def stratify(p: Program) -> dict[str, int]:
    """Least level of each atom, or NotStratifiedError with a witness cycle.

    The atoms of a strongly connected component of the head -> body graph
    share the least level that covers the edges leaving it, and the walk
    yields each component after those it reaches, so the atoms with no
    level yet are those of the component at hand. A negated body atom
    closes a cycle through negation exactly when it lies in its head's
    component."""
    deps: dict[str, list[str]] = {a: [] for a in p.atoms}  # head -> body atoms, clause by clause
    for c in p.clauses:
        deps[c.head] += c.pos + c.neg
    negated = {(c.head, n) for c in p.clauses for n in c.neg}
    level: dict[str, int] = {}
    for component in strongly_connected(deps):
        need = 0
        for x in component:
            for b in deps[x]:
                if b in level:
                    need = max(need, level[b] + ((x, b) in negated))
                elif (x, b) in negated:
                    raise _witness(p, deps)
        level.update(dict.fromkeys(component, need))
    return level


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
    level = stratify(p)
    first: dict[str, str] = {}  # default label -> the first atom, in program order, that gives it
    for a in p.atoms:
        if (b := first.setdefault(_default_label(a), a)) != a:
            raise ValidationError(f"atoms {b!r} and {a!r} both give the default label {_default_label(a)!r}")
    labels = tuple(first)
    defaults = tuple(LabeledFormula(l, Not(Atom(a))) for l, a in zip(labels, p.atoms))
    # The labels above an atom's are those of every lower stratum: already closed and acyclic.
    strata_masks = [0] * (max(level.values(), default=0) + 1)
    for k, a in enumerate(p.atoms):
        strata_masks[level[a]] |= 1 << k
    below = list(itertools.accumulate(strata_masks, initial=0))  # the strata are disjoint: sums are unions
    return Theory._known_atoms(
        universe=p.atoms,
        base=tuple(_clause_formula(c) for c in p.clauses),
        defaults=defaults,
        priority=PriorityOrder._closed(labels, tuple(below[level[a]] for a in p.atoms)),
    )

