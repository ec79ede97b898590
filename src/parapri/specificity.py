"""Inheritance-style specificity: pruning a transform's output and the
guarded-rule ("abnormality") parallel encoding of a prioritized theory.

A transformed formula can be dropped, relative to the base, when it is
entailed by the base, inconsistent with the base, or base-equivalent to a
combination built with conjunction and disjunction only from at most k of
the other surviving formulas. All three conditions preserve the preferred
models of the parallel circumscription; the pruner re-checks that claim
after the fact.

The guarded encoding is the other front end: it takes the prioritized
theory itself, fixtures included, and replaces its priorities by one
abnormality atom per default and cancellation axioms in the base.

The built-in inheritance scenarios that exercise both, and the report of
which cancellation variants reproduce them, live in ``tests/scenarios.py``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import config
from .circumscription import cell_columns, circ_equivalent
from .errors import CapExceededError, InternalError, ValidationError
from .formula import Formula, Implies, Not, iter_bits, parse_atom
from .theory import LabeledFormula, PriorityOrder, Theory
from .transform import TransformOutput, parallel_theory, transform_canonical

TAUT_TRUE = "tautologically-true"
TAUT_FALSE = "tautologically-false"
COMBINATION = "base-equivalent-to-positive-combination"


@dataclass(frozen=True)
class DropRecord:
    label: str
    formula: Formula
    reason: str
    witnesses: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.reason == COMBINATION:
            return f"{self.reason}({','.join(self.witnesses)})"
        return self.reason


@dataclass(frozen=True)
class PruneReport:
    kept: tuple[LabeledFormula, ...]
    dropped: tuple[DropRecord, ...]


def _positive_combination(fm: int, masks: Sequence[int], base_mask: int) -> bool:
    # Whether some &/| combination c of the masks has c & base_mask == fm.
    # Every such c contains the least combination true on fm's points: the
    # union, over those points, of the masks' conjunction there. Exact
    # unless fm is 0 or base_mask, where that least one may be a constant.
    least, rest = 0, fm
    while rest:
        # The highest point of rest is a minimal one (``_quotient``'s order),
        # so its term, the conjunction of the masks holding there, is large.
        point = 1 << rest.bit_length() - 1
        term = -1
        for m in masks:
            if m & point:
                term &= m
        least |= term
        rest &= ~term
    return least & base_mask == fm


def prune_redundant(
    w: TransformOutput,
    base: Sequence[Formula],
    universe: Sequence[str],
    k: int = 2,
) -> PruneReport:
    """Iteratively drop redundant formulas from a transform's output."""
    _check_k(k)
    names = tuple(universe)
    # Each output is constant on each cell of its leaves, and
    # _positive_combination reads only the outputs' values at each point.
    cells, _, masks = cell_columns(base, [w.nest], names)
    base_mask = (1 << len(cells)) - 1

    # The nest holds one block of 2^len(sigma) outputs per source, block b at
    # bounds[b]:bounds[b + 1], its bit strings from all ones down. Visiting
    # the blocks last to first, each in order, is descending on (source
    # block, bit value).
    bounds = [*itertools.accumulate((1 << len(sigma) for sigma in w.nest.sigmas), initial=0)]
    alive = set(range(bounds[-1]))
    drops: dict[int, DropRecord] = {}
    for pos in itertools.chain(*map(range, bounds[-2::-1], bounds[:0:-1])):
        label, f = w.defaults[pos]
        fm = masks[pos]
        # This check keeps fm off 0 and base_mask, where
        # _positive_combination is exact.
        if fm in (0, base_mask):
            drops[pos] = DropRecord(label, f, TAUT_TRUE if fm == base_mask else TAUT_FALSE)
            alive.discard(pos)
            continue
        others = [q for q in sorted(alive) if q != pos]
        # The test is monotone in the masks: if all others fail, so does every subset.
        if not _positive_combination(fm, [masks[q] for q in others], base_mask):
            continue
        # Smallest subsets first. The search is bound to no name, so it is freed before the self-check below.
        found = next((c for size in range(1, k + 1) for c in itertools.combinations(others, size)
                      if _positive_combination(fm, [masks[q] for q in c], base_mask)), None)
        if found:
            drops[pos] = DropRecord(label, f, COMBINATION, tuple(w.defaults[q].label for q in found))
            alive.discard(pos)

    kept = tuple(w.defaults[pos] for pos in sorted(alive))
    dropped = tuple(drops[pos] for pos in sorted(drops))
    before = parallel_theory(_parallel(names, base, ()), w)  # through w's nest
    after = _parallel(names, base, kept)
    if not circ_equivalent(before, after):
        raise InternalError("pruning changed the preferred models")
    return PruneReport(kept=kept, dropped=dropped)


def _check_k(k: int) -> None:
    if k < 0:
        raise ValidationError(f"k must be non-negative, got {k}")


def _parallel(universe: tuple[str, ...], base: Sequence[Formula], defaults: Sequence[LabeledFormula]) -> Theory:
    # ``cell_columns`` has valued the nest's sources, and so every output, over
    # ``universe`` already, and raised UniverseError on any atom outside it.
    return Theory._known_atoms(universe, tuple(base), tuple(defaults), PriorityOrder(tuple(l for l, _ in defaults)))


AB_VARIANTS = ("violation", "class", "class-positive")


def encode_abnormality(t: Theory, variant: str = "violation") -> Theory:
    """Guarded-rule parallel encoding of a theory of prioritized implication rules.

    Each default f = c -> q gains a fresh atom ab_<label>, the label's
    brackets turned into parentheses (ab_e1(tweety) for e1[tweety]), and
    the for-sure guard ~ab -> f. The name is read by ``parse_atom``, as a
    theory file's atoms are, so the printed encoding loads back: a label
    with text after its brackets (e1[a]_x) names no atom, and is refused
    with ValidationError. Every strict priority pair (j, i)
    contributes one cancellation axiom; its shape depends on the variant:

      violation       ~f_j -> ab_i
      class           ~c_j -> ab_i
      class-positive  c_j -> ab_i

    The only defaults of the result are the ~ab atoms, in parallel, labeled
    ab_<label>; the base and the fixtures of ``t`` carry over unchanged.
    More guards and axioms than ``config.TRANSFORM_FORMULAS`` are refused
    with CapExceededError, from the order alone.
    """
    if variant not in AB_VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; choose from {AB_VARIANTS}")
    # One guard per default and one cancellation axiom per priority pair,
    # counted from the order before any default is read.
    order, cap = t.priority, config.TRANSFORM_FORMULAS
    total = len(order.indices) + sum(a.bit_count() for a in order.above)
    if total > cap:
        raise CapExceededError(f"guarded encoding would emit {total} formulas, above the cap of {cap}")
    for label, f in t.defaults:
        if not isinstance(f, Implies):
            raise ValidationError(f"default {label!r} is not an implication rule")
    ab = []
    for label in t.priority.indices:
        name = "ab_" + label.replace("[", "(").replace("]", ")")
        if (a := parse_atom(name, {})) is None:  # text after the brackets, as in e1[a]_x
            raise ValidationError(f"default {label!r} gives no abnormality atom: {name!r} is not an atom name")
        ab.append(a)
    declared = set(t.universe)
    for a in ab:
        if a.name in declared:
            raise ValidationError(f"abnormality atom {a.name!r} clashes with an existing atom")

    base = [*t.base, *(Implies(Not(a), f) for a, (_, f) in zip(ab, t.defaults))]
    for a, above in zip(ab, t.priority.above):
        for j in iter_bits(above):
            f = t.defaults[j].formula
            trigger = Not(f) if variant == "violation" else Not(f.left) if variant == "class" else f.left
            base.append(Implies(trigger, a))

    defaults = tuple(LabeledFormula(f"ab_{label}", Not(a)) for label, a in zip(t.priority.indices, ab))
    return Theory(
        universe=t.universe + tuple(a.name for a in ab),
        base=tuple(base),
        defaults=defaults,
        priority=PriorityOrder(tuple(l for l, _ in defaults)),
        fixtures=t.fixtures,
    )


def transformed_then_pruned(t: Theory, k: int = 2) -> PruneReport:
    """Convenience pipeline used by the CLI: eliminate priorities, then prune."""
    # Refuse before building a transform that pruning could not enumerate.
    _check_k(k)
    config.check_atoms(t.universe)
    out = transform_canonical(t.defaults, t.priority)
    return prune_redundant(out, t.base, t.universe, k=k)
