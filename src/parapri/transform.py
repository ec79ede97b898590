"""Elimination of priorities: rewrite prioritized defaults into parallel ones.

For each default i with dominators sigma_1 .. sigma_m (a descending
topological ordering of the strictly higher-priority defaults) and each bit
string l of length m, emit the right-nested formula

    E_sigma_1  g1  (E_sigma_2  g2  ( ... (E_sigma_m  gm  E_i) ... ))

where bit k of l selects gk: 1 means conjunction, 0 means disjunction.
The 2^m formulas of one source default form a block; blocks are emitted in
declaration order, bit strings from all-ones down to all-zeros.

The construction never inspects the default formulas themselves, only the
priority order, so its output size depends solely on the order's shape.
The transform builds only the output labels, checks them for clashes, and
keeps them with the sources, their labels and dominator positions as its
``nest``; ``parallel_theory`` hands that on. A label is its source's head
``w_<label>_`` and a bit string from one list per length, built by
doubling and shared by every block of that length. The engine and the
printers value the outputs by the one recurrence, ``theory.nest_values``,
over the sources' cell columns and texts. The output formulas are built
by the same recurrence only when ``defaults`` is first read, each block
innermost first, so a block's outputs share their suffix subtrees; the
``provenance`` only when it is first read, and neither read builds the
other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterator, Sequence

from . import config
from .errors import CapExceededError, ValidationError
from .theory import (
    BuiltOnFirstRead,
    LabeledFormula,
    Nest,
    OnFirstRead,
    PriorityOrder,
    Provenance,
    Theory,
    bit_strings,
)

TOP_HEAVY_THRESHOLD = 10


@dataclass(frozen=True)
class TransformOutput(BuiltOnFirstRead):
    defaults: tuple[LabeledFormula, ...] = OnFirstRead()
    provenance: tuple[Provenance, ...] = OnFirstRead()


@dataclass(frozen=True)
class SizeReport:
    total: int
    m: tuple[tuple[str, int], ...]
    top_heavy: bool

    @property
    def max_m(self) -> int:
        return max((v for _, v in self.m), default=0)


def _iter_descending(order: PriorityOrder, remaining: int) -> Iterator[tuple[int, ...]]:
    # ``remaining`` is a mask of label positions, and a sequence is a tuple
    # of positions. Emit maximal elements first; candidate choice follows
    # declaration order, so the first sequence generated is the canonical
    # one. A depth-first walk on an explicit stack, so the number of
    # dominators is not bounded by recursion; a level looks for its next
    # maximal candidate only when the walk returns.
    if not remaining:
        yield ()
        return
    above = order.above
    stack = [[remaining, remaining, -1]]  # per level: labels left, candidates untried, choice
    while stack:
        level = stack[-1]
        rest, untried, _ = level
        while untried and above[x := (untried & -untried).bit_length() - 1] & rest:
            untried ^= 1 << x
        if not untried:
            stack.pop()
            continue
        level[1:] = untried ^ 1 << x, x
        if rest ^ 1 << x:
            stack.append([rest ^ 1 << x, rest ^ 1 << x, -1])
        else:
            yield tuple(lv[2] for lv in stack)


def output_size(order: PriorityOrder) -> SizeReport:
    """Output size sum(2^m_i) without materializing anything."""
    m = tuple((i, a.bit_count()) for i, a in zip(order.indices, order.above))
    total = sum(1 << v for _, v in m)
    return SizeReport(total=total, m=m, top_heavy=any(v > TOP_HEAVY_THRESHOLD for _, v in m))


def _assemble(
    defaults: Sequence[LabeledFormula], names: tuple[str, ...], sigmas: tuple[tuple[int, ...], ...]
) -> TransformOutput:
    # ``names``: the order's labels, which are the defaults'. ``sigmas[i]``:
    # the dominator positions of defaults[i], in descending order.
    bits = bit_strings(max(map(len, sigmas), default=0))
    labels: list[str] = []
    for label, sigma in zip(names, sigmas):
        if sigma:
            labels += map(f"w_{label}_".__add__, bits[len(sigma)])
        else:
            labels.append(f"w_{label}")
    if len(set(labels)) < len(labels):  # name the first label that repeats an earlier one
        seen: set[str] = set()
        clash = next(l for l in labels if l in seen or seen.add(l))
        raise ValidationError(f"generated label {clash!r} is not unique")
    return TransformOutput._from_recipe(Nest(tuple(labels), tuple(f for _, f in defaults), sigmas, names))


def decimal_text(n: int) -> str:
    """``n`` in decimal, at any length: ``str`` refuses an int of more than
    4300 digits (CPython's default limit), and an output size can have more."""
    return str(Decimal(n))


def guard_size(order: PriorityOrder) -> None:
    """Refuse an order whose transform is above ``TRANSFORM_FORMULAS``: the
    order alone decides, so a caller can refuse before it reads the
    defaults, which a grounded theory builds on that read."""
    total, cap = output_size(order).total, config.TRANSFORM_FORMULAS
    if total > cap:
        raise CapExceededError(f"transform would emit {decimal_text(total)} formulas, above the cap of {cap}")


def transform_canonical(defaults: Sequence[LabeledFormula], order: PriorityOrder) -> TransformOutput:
    """The deterministic member: canonical topological ordering per default,
    the first of ``_sigma_combinations`` and so the first of ``transform_all``."""
    _check_alignment(defaults, order)
    guard_size(order)
    return _assemble(defaults, order.indices, next(_sigma_combinations(order)))


def transform_all(defaults: Sequence[LabeledFormula], order: PriorityOrder, limit: int) -> list[TransformOutput]:
    """Members generated by all combinations of descending orderings, up to
    ``limit``; the first is ``transform_canonical``'s output."""
    if limit <= 0:
        raise ValidationError("limit must be positive")
    _check_alignment(defaults, order)
    guard_size(order)
    members = _sigma_combinations(order)
    return [_assemble(defaults, order.indices, sigmas) for sigmas in itertools.islice(members, limit)]


def _sigma_combinations(order: PriorityOrder) -> Iterator[tuple[tuple[int, ...], ...]]:
    # A lazy odometer over the labels' descending orderings, the last label
    # turning fastest. Each digit restarts its own generator instead of
    # holding a label's orderings, which can number m!.
    above = order.above
    digits = [_iter_descending(order, a) for a in above]
    current = [next(d) for d in digits]
    while True:
        yield tuple(current)
        for k in reversed(range(len(above))):
            sigma = next(digits[k], None)
            if sigma is not None:
                current[k] = sigma
                break
            digits[k] = _iter_descending(order, above[k])
            current[k] = next(digits[k])
        else:
            return


def _check_alignment(defaults: Sequence[LabeledFormula], order: PriorityOrder) -> None:
    if tuple(l for l, _ in defaults) != order.indices:
        raise ValidationError("defaults and priority order disagree on labels")


def parallel_theory(t: Theory, out: TransformOutput) -> Theory:
    """The input theory with its defaults replaced by the parallel output.

    ``out`` must be a transform of ``t``'s own defaults: its atoms are then
    ``t``'s, and are not checked again. The result keeps ``out.nest`` (the
    identity nest for a hand-built output), and builds its defaults from it
    on first read."""
    nest = out.nest
    return Theory._from_recipe(
        nest, universe=t.universe, base=t.base, priority=PriorityOrder(nest.labels), fixtures=t.fixtures
    )


def transform_theory(t: Theory) -> Theory:
    return parallel_theory(t, transform_canonical(t.defaults, t.priority))
