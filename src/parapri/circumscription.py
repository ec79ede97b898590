"""Brute-force model semantics for prioritized default circumscription.

All operations enumerate total interpretations explicitly, so they are exact
but only usable at small atom counts; the caps make the limit explicit.
Truth tables are packed into ints (bit i = truth under interpretation index
i).

The prioritized pre-order and fixture equivalence read an interpretation
only through its truth values on the defaults and fixtures, so domination
is decided on a quotient: the models are split into cells, the non-empty
sets of models that agree on every default and fixture (at most
min(#models, 2^(defaults+fixtures)) of them), each mask is re-expressed as
a K-bit mask over the K cells, and the packed pre-order rows compare cells,
not interpretations. The preferred models are the union of the undominated
cells; ``preorder_equivalent`` compares both pre-orders on the joint cells
of their defaults over the whole universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .config import DEFAULT_CAPS, check_atoms
from .errors import UniverseError
from .formula import Formula, Interpretation, iter_bits, truth_mask
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
    return [Interpretation.from_index(names, z) for z in iter_bits(mask)]


def _leq_row(
    z: int,
    default_masks: Sequence[int],
    dom_positions: Sequence[Sequence[int]],
    full: int,
) -> int:
    """Bitmask over z2 of: z is at most as preferred as z2 (indices of cells
    or of interpretations alike, over the same packed default masks)."""
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


def _dominator_positions(spec: PreorderSpec) -> list[list[int]]:
    # the spec's defaults are its priority labels, in the same order
    return [list(iter_bits(a)) for a in spec.priority.above]


def _quotient(base_mask: int, masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """Split ``base_mask`` into the non-empty cells on which every mask is
    constant; return the cells and each mask re-expressed over them (bit k =
    the mask holds on cell k)."""
    cells, profiles = ([base_mask], [0]) if base_mask else ([], [])
    for i, m in enumerate(masks):
        bit = 1 << i
        split_cells, split_profiles = [], []
        for c, p in zip(cells, profiles):
            inside = c & m
            if inside:
                split_cells.append(inside)
                split_profiles.append(p | bit)
            if inside != c:
                split_cells.append(c ^ inside)
                split_profiles.append(p)
        cells, profiles = split_cells, split_profiles
    return cells, _transpose(profiles, len(masks))


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Transpose a bit matrix of ``width``-bit rows: bit k of column i is
    bit i of rows[k]."""
    # One fixed-width binary string per row, last row first; every width-th
    # character from offset width-1-i then spells column i, high bit first.
    table = "".join(format(r, f"0{width}b") for r in reversed(rows))
    return [int(table[width - 1 - i :: width] or "0", 2) for i in range(width)]


def preferred_models(t: Theory, max_atoms: int = DEFAULT_CAPS.model_atoms) -> PreferredModelSet:
    """Base models not strictly dominated by any fixture-equivalent base model."""
    check_atoms(t.universe, max_atoms)
    full = (1 << (1 << len(t.universe))) - 1
    base_mask = _conjoin_masks(t.base, t.universe, full)
    spec = PreorderSpec.of(t)
    masks = [truth_mask(f, t.universe) for _, f in spec.defaults]
    doms = _dominator_positions(spec)
    fixture_masks = [truth_mask(f, t.universe) for _, f in t.fixtures]

    cells, quotient = _quotient(base_mask, masks + fixture_masks)
    cell_masks, cell_fixtures = quotient[: len(masks)], quotient[len(masks):]
    cells_full = (1 << len(cells)) - 1
    rows = [_leq_row(k, cell_masks, doms, cells_full) for k in range(len(cells))]
    below = _transpose(rows, len(cells))  # bit k2 of below[k]: k2 is at most as preferred as k
    preferred = 0
    for k, row in enumerate(rows):
        # cells at least as preferred as k, fixture-equivalent to it, and not conversely
        better = row & (cells_full ^ below[k])
        for fm in cell_fixtures:
            better &= fm if (fm >> k) & 1 else cells_full ^ fm
        if not better:
            preferred |= cells[k]
    return PreferredModelSet(
        t.universe,
        tuple(Interpretation.from_index(t.universe, z) for z in iter_bits(preferred)),
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
    full = (1 << (1 << len(names))) - 1
    masks1 = [truth_mask(f, names) for _, f in s1.defaults]
    doms1 = _dominator_positions(s1)
    masks2 = [truth_mask(f, names) for _, f in s2.defaults]
    doms2 = _dominator_positions(s2)
    cells, quotient = _quotient(full, masks1 + masks2)
    cell_masks1, cell_masks2 = quotient[: len(masks1)], quotient[len(masks1):]
    cells_full = (1 << len(cells)) - 1
    return all(
        _leq_row(k, cell_masks1, doms1, cells_full) == _leq_row(k, cell_masks2, doms2, cells_full)
        for k in range(len(cells))
    )


def format_model(z: Interpretation) -> str:
    """One-line model: positive atoms then negated ones, each group sorted."""
    tokens = sorted((not v, a) for a, v in zip(z.universe, z.values))
    return " ".join(("~" if neg else "") + a for neg, a in tokens)
