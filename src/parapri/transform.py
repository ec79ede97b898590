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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple, Sequence

from . import config
from .errors import CapExceededError, ValidationError
from .formula import And, Formula, Or, iter_bits
from .theory import LabeledFormula, PriorityOrder, Theory, parallel_order

TOP_HEAVY_THRESHOLD = 10


class Provenance(NamedTuple):
    source: str
    sigma: tuple[str, ...]
    bits: str


@dataclass(frozen=True)
class TransformOutput:
    defaults: tuple[LabeledFormula, ...]
    provenance: tuple[Provenance, ...]

    @property
    def formulas(self) -> tuple[Formula, ...]:
        return tuple(f for _, f in self.defaults)


@dataclass(frozen=True)
class SizeReport:
    total: int
    m: tuple[tuple[str, int], ...]
    top_heavy: bool

    @property
    def max_m(self) -> int:
        return max((v for _, v in self.m), default=0)


def _dominator_mask(order: PriorityOrder, index: str) -> int:
    try:
        return order.above[order.position[index]]
    except KeyError:
        raise ValidationError(f"unknown index {index!r}") from None


def dominators(order: PriorityOrder, index: str) -> frozenset[str]:
    """Labels strictly higher in priority than ``index``."""
    return frozenset(order.indices[k] for k in iter_bits(_dominator_mask(order, index)))


def _iter_descending(order: PriorityOrder, remaining: int) -> Iterator[tuple[str, ...]]:
    # ``remaining`` is a mask of label positions. Emit maximal elements first;
    # candidate choice follows declaration order, so the first sequence
    # generated is the canonical one. A depth-first walk on an explicit
    # stack, so the number of dominators is not bounded by recursion; a
    # level looks for its next maximal candidate only when the walk returns.
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
            yield tuple(order.indices[lv[2]] for lv in stack)


def descending_sequences(order: PriorityOrder, index: str) -> list[tuple[str, ...]]:
    """All descending topological orderings of ``index``'s dominators."""
    return list(_iter_descending(order, _dominator_mask(order, index)))


def build_wil(formulas: Mapping[str, Formula], index: str, sigma: Sequence[str], bits: str) -> Formula:
    """One output formula: dominators outermost, source default innermost."""
    if len(sigma) != len(bits):
        raise ValidationError(f"bit string {bits!r} does not match sequence length {len(sigma)}")
    acc = formulas[index]
    for k in range(len(sigma) - 1, -1, -1):
        conn = And if bits[k] == "1" else Or
        acc = conn(formulas[sigma[k]], acc)
    return acc


def output_size(order: PriorityOrder) -> SizeReport:
    """Output size sum(2^m_i) without materializing anything."""
    m = tuple((i, a.bit_count()) for i, a in zip(order.indices, order.above))
    total = sum(1 << v for _, v in m)
    return SizeReport(total=total, m=m, top_heavy=any(v > TOP_HEAVY_THRESHOLD for _, v in m))


def _label_for(source: str, bits: str) -> str:
    return f"w_{source}_{bits}" if bits else f"w_{source}"


def _assemble(
    defaults: Sequence[LabeledFormula],
    sigmas: Mapping[str, tuple[str, ...]],
) -> TransformOutput:
    formulas = dict(defaults)
    out: list[LabeledFormula] = []
    prov: list[Provenance] = []
    seen: set[str] = set()
    for label, f in defaults:
        sigma = sigmas[label]
        m = len(sigma)
        block = [f]  # innermost first: block[v] is build_wil's nest for v's bits
        for j in reversed(sigma):
            s = formulas[j]
            block = [Or(s, a) for a in block] + [And(s, a) for a in block]
        for v in range((1 << m) - 1, -1, -1):
            bits = format(v, f"0{m}b") if m else ""
            w_label = _label_for(label, bits)
            if w_label in seen:
                raise ValidationError(f"generated label {w_label!r} is not unique")
            seen.add(w_label)
            out.append(LabeledFormula(w_label, block[v]))
            prov.append(Provenance(label, sigma, bits))
    return TransformOutput(tuple(out), tuple(prov))


def _guard_size(order: PriorityOrder) -> None:
    total, cap = output_size(order).total, config.TRANSFORM_FORMULAS
    if total > cap:
        raise CapExceededError(f"transform would emit {total} formulas, above the cap of {cap}")


def transform_canonical(defaults: Sequence[LabeledFormula], order: PriorityOrder) -> TransformOutput:
    """The deterministic member: canonical topological ordering per default,
    the first of ``_sigma_combinations`` and so the first of ``transform_all``."""
    _check_alignment(defaults, order)
    _guard_size(order)
    return _assemble(defaults, next(_sigma_combinations(order)))


def transform_all(defaults: Sequence[LabeledFormula], order: PriorityOrder, limit: int) -> list[TransformOutput]:
    """Members generated by all combinations of descending orderings, up to
    ``limit``; the first is ``transform_canonical``'s output."""
    if limit <= 0:
        raise ValidationError("limit must be positive")
    _check_alignment(defaults, order)
    _guard_size(order)
    members = _sigma_combinations(order)
    return [_assemble(defaults, sigmas) for sigmas in itertools.islice(members, limit)]


def _sigma_combinations(order: PriorityOrder) -> Iterator[dict[str, tuple[str, ...]]]:
    # A lazy odometer over the labels' descending orderings, the last label
    # turning fastest. Each digit restarts its own generator instead of
    # holding a label's orderings, which can number m!.
    labels, above = order.indices, order.above
    digits = [_iter_descending(order, a) for a in above]
    current = [next(d) for d in digits]
    while True:
        yield dict(zip(labels, current))
        for k in reversed(range(len(labels))):
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
    ``t``'s, and are not checked again."""
    return Theory._known_atoms(t.universe, t.base, out.defaults, parallel_order(l for l, _ in out.defaults), t.fixtures)


def transform_theory(t: Theory) -> Theory:
    return parallel_theory(t, transform_canonical(t.defaults, t.priority))
