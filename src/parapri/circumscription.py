"""Brute-force model semantics for prioritized default circumscription.

All operations enumerate total interpretations explicitly, so they are exact
but only usable at small atom counts; the caps make the limit explicit.
Truth tables are packed into ints (bit i = truth under interpretation index
i), which keeps the quadratic pairwise domination checks cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .config import DEFAULT_CAPS, check_atoms
from .errors import UniverseError
from .formula import Formula, Interpretation, truth_mask
from .preorder import PreorderSpec
from .theory import Theory


@dataclass(frozen=True)
class PreferredModelSet:
    universe: tuple[str, ...]
    models: tuple[Interpretation, ...]   # sorted by interpretation index

    @cached_property
    def index_set(self) -> frozenset[int]:
        return frozenset(m.index for m in self.models)

    def __iter__(self):
        return iter(self.models)

    def __len__(self):
        return len(self.models)


def _conjoin_masks(formulas: Iterable[Formula], universe: tuple[str, ...], full: int) -> int:
    mask = full
    for f in formulas:
        mask &= truth_mask(f, universe)
    return mask


def models_of(
    base: Iterable[Formula],
    universe: Iterable[str],
    max_atoms: int = DEFAULT_CAPS.model_atoms,
) -> list[Interpretation]:
    """All total assignments satisfying every base formula, by index order."""
    names = tuple(universe)
    check_atoms(names, max_atoms)
    size = 1 << len(names)
    mask = _conjoin_masks(base, names, (1 << size) - 1)
    return [Interpretation.from_index(names, z) for z in _iter_bits(mask)]


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _leq_row(
    z: int,
    default_masks: Sequence[int],
    dom_positions: Sequence[Sequence[int]],
    full: int,
) -> int:
    """Bitmask over z2 of: z is at most as preferred as z2."""
    row = full
    for i, ti in enumerate(default_masks):
        if not (ti >> z) & 1:
            continue
        # z2 must satisfy default i unless some dominator changes truth value.
        premise = full
        for j in dom_positions[i]:
            tj = default_masks[j]
            premise &= tj if (tj >> z) & 1 else full ^ tj
        row &= (full ^ premise) | ti
    return row


def _spec_tables(spec: PreorderSpec, universe: tuple[str, ...]) -> tuple[list[int], list[list[int]], int]:
    size = 1 << len(universe)
    full = (1 << size) - 1
    position = {label: k for k, (label, _) in enumerate(spec.defaults)}
    masks = [truth_mask(f, universe) for _, f in spec.defaults]
    doms = [
        [position[j] for j in spec.priority.dominators_map[label]]
        for label, _ in spec.defaults
    ]
    return masks, doms, full


def preferred_models(t: Theory, max_atoms: int = DEFAULT_CAPS.model_atoms) -> PreferredModelSet:
    """Base models not strictly dominated by any fixture-equivalent base model."""
    check_atoms(t.universe, max_atoms)
    size = 1 << len(t.universe)
    full = (1 << size) - 1
    base_mask = _conjoin_masks(t.base, t.universe, full)
    spec = PreorderSpec.of(t)
    masks, doms, _ = _spec_tables(spec, t.universe)
    fixture_masks = [truth_mask(f, t.universe) for _, f in t.fixtures]

    model_idxs = list(_iter_bits(base_mask))
    rows = {z: _leq_row(z, masks, doms, full) for z in model_idxs}
    preferred = []
    for z in model_idxs:
        candidates = rows[z] & base_mask
        for fm in fixture_masks:
            candidates &= fm if (fm >> z) & 1 else full ^ fm
        if all((rows[z2] >> z) & 1 for z2 in _iter_bits(candidates)):
            preferred.append(z)
    return PreferredModelSet(
        t.universe,
        tuple(Interpretation.from_index(t.universe, z) for z in preferred),
    )


def skeptical_entails(t: Theory, q: Formula, max_atoms: int = DEFAULT_CAPS.model_atoms) -> bool:
    """Whether q holds in every preferred model (vacuously true when none)."""
    pm = preferred_models(t, max_atoms)
    qm = truth_mask(q, t.universe)
    return all((qm >> z) & 1 for z in pm.index_set)


def circ_equivalent(
    t1: Theory,
    t2: Theory,
    project: Sequence[str] | None = None,
    max_atoms: int = DEFAULT_CAPS.model_atoms,
) -> bool:
    """Equality of preferred-model sets, optionally restricted to ``project`` atoms."""
    if project is None:
        if t1.universe != t2.universe:
            raise UniverseError("theories compare over different universes; pass a projection")
        return preferred_models(t1, max_atoms).index_set == preferred_models(t2, max_atoms).index_set
    names = tuple(project)
    for t in (t1, t2):
        missing = [a for a in names if a not in t.universe]
        if missing:
            raise UniverseError(f"projection atoms {missing} not in universe")

    def projected(t: Theory) -> frozenset[tuple[bool, ...]]:
        return frozenset(
            tuple(m.value(a) for a in names) for m in preferred_models(t, max_atoms).models
        )

    return projected(t1) == projected(t2)


def preorder_equivalent(
    s1: PreorderSpec,
    s2: PreorderSpec,
    universe: Iterable[str],
    max_atoms: int = DEFAULT_CAPS.pairwise_atoms,
) -> bool:
    """Whether two default pre-orders agree on every ordered interpretation pair."""
    names = tuple(universe)
    check_atoms(names, max_atoms)
    size = 1 << len(names)
    masks1, doms1, full = _spec_tables(s1, names)
    masks2, doms2, _ = _spec_tables(s2, names)
    for z in range(size):
        if _leq_row(z, masks1, doms1, full) != _leq_row(z, masks2, doms2, full):
            return False
    return True


def format_model(z: Interpretation) -> str:
    """One-line model: positive atoms then negated ones, each group sorted."""
    tokens = sorted((not v, a) for a, v in zip(z.universe, z.values))
    return " ".join(("~" if neg else "") + a for neg, a in tokens)
