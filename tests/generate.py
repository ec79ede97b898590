"""Seeded random instances for the randomized equivalence suites."""

from __future__ import annotations

import random
from typing import Sequence

from parapri.formula import And, Atom, Formula, Iff, Implies, Not, Or
from parapri.lp import Clause, Program
from parapri.theory import LabeledFormula, PriorityOrder, Theory

ATOM_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")


def random_formula(rng: random.Random, atoms: Sequence[str], max_depth: int = 3) -> Formula:
    if max_depth == 0 or rng.random() < 0.35:
        return Atom(rng.choice(list(atoms)))
    op = rng.choice(("not", "and", "or", "implies", "iff"))
    if op == "not":
        return Not(random_formula(rng, atoms, max_depth - 1))
    left = random_formula(rng, atoms, max_depth - 1)
    right = random_formula(rng, atoms, max_depth - 1)
    return {"and": And, "or": Or, "implies": Implies, "iff": Iff}[op](left, right)


def random_edges(rng: random.Random, labels: Sequence[str], density: float = 0.4) -> frozenset[tuple[str, str]]:
    """A random strict-order edge set, acyclic by construction: edges only
    run forward along a hidden random permutation."""
    perm = list(labels)
    rng.shuffle(perm)
    edges = set()
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if rng.random() < density:
                edges.add((perm[i], perm[j]))
    return frozenset(edges)


def random_theory(
    rng: random.Random,
    max_atoms: int = 5,
    max_defaults: int = 4,
    max_base: int = 3,
    fixtures: int | None = None,
    fixture_prob: float = 0.0,
) -> Theory:
    n_atoms = rng.randint(1, max_atoms)
    atoms = ATOM_POOL[:n_atoms]
    n_defaults = rng.randint(1, max_defaults)
    labels = tuple(f"d{k}" for k in range(1, n_defaults + 1))
    defaults = tuple(LabeledFormula(l, random_formula(rng, atoms, 2)) for l in labels)
    n_fix = fixtures if fixtures is not None else (1 if rng.random() < fixture_prob else 0)
    return Theory(
        universe=atoms,
        base=tuple(random_formula(rng, atoms, 2) for _ in range(rng.randint(0, max_base))),
        defaults=defaults,
        priority=PriorityOrder(labels, random_edges(rng, labels)),
        fixtures=tuple(
            LabeledFormula(f"fx{k}", random_formula(rng, atoms, 2)) for k in range(1, n_fix + 1)
        ),
    )


def random_stratified_program(
    rng: random.Random,
    max_atoms: int = 6,
    max_clauses: int = 8,
    max_level: int = 2,
) -> Program:
    """Stratified by construction: negated body atoms sit strictly below the
    head's level, positive ones at most at it."""
    n_atoms = rng.randint(1, max_atoms)
    atoms = [f"q{k}" for k in range(1, n_atoms + 1)]
    level = {a: rng.randint(0, max_level) for a in atoms}
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        head = rng.choice(atoms)
        le = [a for a in atoms if level[a] <= level[head] and a != head]
        lt = [a for a in atoms if level[a] < level[head]]
        pos = tuple(rng.sample(le, min(len(le), rng.randint(0, 2))))
        neg = tuple(rng.sample(lt, min(len(lt), rng.randint(0, 2))))
        clauses.append(Clause(head, pos, neg))
    return Program(tuple(clauses))
