"""Brute-force model semantics for prioritized default circumscription.

All operations enumerate total interpretations explicitly, so they are exact
but only usable at small atom counts; ``cell_columns``, where every 2^n
enumeration starts, refuses a universe above the atom cap through
``config.check_atoms``, which reads ``PARAPRI_MAX_ATOMS`` at call time.
Truth tables are packed into ints (bit i = truth under interpretation index
i), and so are results: a ``PreferredModelSet`` is the mask of its models.

The prioritized pre-order and fixture equivalence read an interpretation
only through its truth values on the defaults and fixtures, and each
default is a Boolean function of the sources of the theory's ``nest``: the
transform's sources for a theory made from a transform, else the identity
nest, whose sources are the defaults themselves. So domination is decided
on a quotient: the models are split into cells, the non-empty sets of
models that agree on every source and fixture (at most
min(#models, 2^(sources+fixtures)) of them), one streamed truth mask at a
time, and each default is valued over the K cells as a K-bit column,
through ``nest_values`` from the sources' columns. Cells of one fixture
class on which every default agrees are decided as one. Because the
priority order is transitively closed, z <= z2 holds exactly when every
default that holds at z but not at z2 has a dominator that holds at z2 but
not at z; so for two cells of one fixture class, which differ on some
default, z <= z2 already rules out z2 <= z, and a key that sums 2^rank
over a cell's defaults, where each default outranks all it dominates, is
larger at z2 whenever z2 is strictly preferred. One sweep therefore decides
every order, as in sort-filter skyline (Chomicki et al., ICDE 2003): it
visits each class's cells by descending key, so a cell comes after every
cell that dominates it, and a cell is dominated exactly when a preferred
cell found before it is at least as preferred. That is tested pair by pair
against the preferred cells found, or, when they outnumber the cell's
defaults, as one packed pre-order row over them; without priorities the
pair test is profile containment. The preferred models are the union of
the undominated cells; ``preorder_equivalent`` compares two theories'
pre-orders, row by row, on the joint cells of both nests' sources over the
whole universe.

Memory: the sources' masks reach the cell split one at a time, and profiles
are transposed ``TRANSPOSE_BLOCK`` columns at a time; what stays is the
cells, one 2^n-bit mask each, and the defaults' K-bit columns.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .config import check_atoms
from .errors import UniverseError
from .formula import Formula, Interpretation, _columns, iter_bits, truth_mask
from .theory import LabeledFormula, Nest, Theory, nest_values


@dataclass(frozen=True)
class PreferredModelSet:
    """Preferred models as a mask (bit z: interpretation z is preferred);
    ``PreferredModelSet(universe, models)`` builds one from interpretations."""

    universe: tuple[str, ...]
    mask: int

    def __init__(self, universe: Iterable[str], models: Iterable[Interpretation] = (), mask: int = 0):
        for m in models:
            mask |= 1 << m.index
        object.__setattr__(self, "universe", tuple(universe))
        object.__setattr__(self, "mask", mask)

    @cached_property
    def models(self) -> tuple[Interpretation, ...]:
        return tuple(Interpretation.from_index(self.universe, z) for z in iter_bits(self.mask))

    @cached_property
    def index_set(self) -> frozenset[int]:
        return frozenset(iter_bits(self.mask))

    def __iter__(self):
        return iter(self.models)

    def __len__(self):
        return self.mask.bit_count()


def cell_columns(
    base: Iterable[Formula],
    nests: Sequence[Nest],
    universe: tuple[str, ...],
    fixtures: Sequence[LabeledFormula] = (),
) -> tuple[list[int], list[int], list[int]]:
    """Split the base models into the cells of the nests' sources and
    ``fixtures``. Return the cells, their profiles (bit i of profiles[k]:
    output i of the nests, in order, then fixture i - n, holds on cell k),
    and each output's column over the cells (bit k: it holds on cell k).
    The columns come from the sources' columns by ``nest_values``, with no
    2^n-bit step and no formula per output, and the profiles from the
    columns; when no sigma is non-empty, the outputs are the sources, and
    the split's profiles are already theirs. Every enumeration of
    interpretations starts here, and a universe above the atom cap is
    refused first."""
    check_atoms(universe)
    base_mask = _columns(universe)[2]
    for b in base:
        base_mask &= truth_mask(b, universe)
    leaves = [f for nest in nests for f in nest.sources]
    cells, profiles = _quotient(base_mask, (truth_mask(f, universe) for f in [*leaves, *(f for _, f in fixtures)]))
    if not any(sigma for nest in nests for sigma in nest.sigmas):
        return cells, profiles, _transpose(profiles, len(leaves))
    columns = _transpose(profiles, len(leaves) + len(fixtures))
    rest: Iterator[int] = iter(columns)  # each nest's sources' columns in turn, then the fixtures'
    outputs: list[int] = []
    for nest in nests:
        outputs += nest_values([*itertools.islice(rest, len(nest.sources))], nest.sigmas, operator.or_, operator.and_)
    return cells, _transpose([*outputs, *rest], len(cells)), outputs


def _leq_row(p: int, masks: Sequence[int], above: Sequence[int], row: int) -> int:
    """The part of ``row`` at least as preferred as a point whose default
    profile is ``p`` (bit i: default i holds there), where ``masks[i]`` is
    default i's mask over the same points and ``above[i]`` the mask of
    default i's dominators (``PriorityOrder.above``). Stops as soon as the
    row is empty."""
    for i in iter_bits(p):
        holds = masks[i]
        if not above[i]:
            row &= holds
        else:
            # Out go the points where i fails and every dominator of i keeps its
            # value at p; narrowing them, not widening the rest, can stop early.
            # x ^ x & m is x less m, with no complement as wide as the cells.
            out = row ^ row & holds
            for j in iter_bits(above[i]):
                if not out:
                    break
                out = out & masks[j] if p >> j & 1 else out ^ out & masks[j]
            row ^= out
        if not row:
            break
    return row


def _sweep_keys(above: Sequence[int], profiles: list[int], columns: Sequence[int]) -> list[int]:
    """One key per cell that rises along the pre-order within a fixture
    class (module docstring): the sum of 2^rank over the cell's defaults,
    ranked by descending dominator count, so that a default outweighs all
    it dominates. Without priorities the profile itself is such a key."""
    if not any(above):
        return profiles
    ranked = sorted(range(len(above)), key=lambda i: above[i].bit_count(), reverse=True)
    return _transpose([columns[i] for i in ranked], len(profiles))


def _quotient(base_mask: int, masks: Iterable[int]) -> tuple[list[int], list[int]]:
    """Split ``base_mask`` into the non-empty cells on which every mask is
    constant, taking the masks one at a time; return the cells and their
    profiles (bit i of profiles[k] = mask i holds on cell k). A cell comes
    after every cell whose profile is a superset of its own."""
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
    return cells, profiles


# Columns per ``_transpose`` block: its strings hold K·256 characters for K
# rows, not K·width. On the 4096 profiles of a 12-default chain's transform
# (CPython 3.11, best of 7, two runs), 256 adds 2 MB to peak RSS in 96-167 ms,
# one block 31 MB in 154-163 ms, 512 7 MB; at 8191 outputs, 7 against 127 MB.
# The benchmark's query-dense and verify-small never pass 128 columns.
TRANSPOSE_BLOCK = 256


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Transpose a bit matrix of ``width``-bit rows: bit k of column i is
    bit i of rows[k]; a row's bits from ``width`` on are ignored."""
    columns: list[int] = []
    for first in range(0, width, TRANSPOSE_BLOCK):
        # One fixed-width binary string per row for the block's w columns,
        # last row first; every w-th character from offset w-1-i then spells
        # column first+i, high bit first.
        w = min(TRANSPOSE_BLOCK, width - first)
        keep, spec = (1 << w) - 1, f"0{w}b"
        table = "".join([format(r >> first & keep, spec) for r in reversed(rows)])
        columns += [int(table[w - 1 - i :: w] or "0", 2) for i in range(w)]
    return columns


def preferred_models(t: Theory) -> PreferredModelSet:
    """Base models not strictly dominated by any fixture-equivalent base model."""
    above = t.priority.above
    n = len(above)
    cells, profiles, columns = cell_columns(t.base, [t.nest], t.universe, t.fixtures)
    # Cells that share a (fixture, output) profile are decided once, through
    # the last of them, which takes in the others' models. The identity nest
    # and every transform member keep distinct source profiles apart (a
    # member's block holds its source wherever the dominators are known),
    # but a nest built otherwise need not.
    last = dict(zip(profiles, itertools.count()))
    if len(last) < len(cells):
        for k, p in enumerate(profiles):
            if (j := last[p]) != k:
                cells[j] |= cells[k]
    kept = last.values()
    low = (1 << n) - 1
    keys = _sweep_keys(above, profiles, columns)
    free = sum(1 << i for i, a in enumerate(above) if not a) if any(above) else low  # defaults with no dominator
    tops: defaultdict[int, list[int]] = defaultdict(list)  # fixture profile -> preferred default profiles
    rows: defaultdict[int, int] = defaultdict(int)  # fixture profile -> mask of its preferred cells
    preferred = 0
    # Best first: a cell is dominated iff a preferred cell of its class found
    # before it is at least as preferred (module docstring). Pair by pair, a
    # default held at d but not at m needs a dominator held at m but not at
    # d, and a default with none rules m out at once; when the preferred
    # cells outnumber d's defaults, one row over them is the cheaper test.
    for k in sorted(kept, key=keys.__getitem__, reverse=True):
        d, c = profiles[k] & low, profiles[k] >> n
        found = tops[c]
        if len(found) <= d.bit_count():
            dominated = any(
                m & d == d or not d & free & ~m and all(above[i] & m & ~d for i in iter_bits(d & ~m)) for m in found
            )
        else:
            dominated = _leq_row(d, columns, above, rows[c]) != 0
        if not dominated:
            found.append(d)
            rows[c] |= 1 << k
            preferred |= cells[k]
    return PreferredModelSet(t.universe, mask=preferred)


def skeptical_entails(t: Theory, q: Formula) -> bool:
    """Whether q holds in every preferred model (vacuously true when none)."""
    pm = preferred_models(t)
    return pm.mask & ~truth_mask(q, t.universe) == 0


def circ_equivalent(t1: Theory, t2: Theory, project: Sequence[str] | None = None) -> bool:
    """Equality of preferred-model sets, optionally restricted to ``project`` atoms."""
    if project is None:
        if t1.universe != t2.universe:
            raise UniverseError("theories compare over different universes; pass a projection")
        return preferred_models(t1).mask == preferred_models(t2).mask
    names = tuple(project)
    for t in (t1, t2):
        missing = [a for a in names if a not in t.universe]
        if missing:
            raise UniverseError(f"projection atoms {missing} not in universe")

    def projected(t: Theory) -> set[int]:
        positions = [t.universe.index(a) for a in names]  # bit j of a projected index: names[j]
        pm = preferred_models(t)
        return {sum((z >> p & 1) << j for j, p in enumerate(positions)) for z in iter_bits(pm.mask)}

    return projected(t1) == projected(t2)


def preorder_equivalent(s1: Theory, s2: Theory, universe: Iterable[str]) -> bool:
    """Whether the default pre-orders of ``s1`` and ``s2`` (their nests and
    priorities; bases and fixtures are not read) agree on every ordered
    interpretation pair over ``universe``."""
    n1 = len(s1.priority.indices)
    cells, profiles, columns = cell_columns((), [s1.nest, s2.nest], tuple(universe))
    masks1, masks2 = columns[:n1], columns[n1:]
    above1, above2 = s1.priority.above, s2.priority.above
    low, full = (1 << n1) - 1, (1 << len(cells)) - 1
    return all(
        _leq_row(p & low, masks1, above1, full) == _leq_row(p >> n1, masks2, above2, full) for p in profiles
    )


def format_row(universe: Sequence[str], values: Sequence[bool]) -> str:
    """One-line model: positive atoms then negated ones, each group sorted."""
    tokens = sorted((not v, a) for a, v in zip(universe, values))
    return " ".join(("~" if neg else "") + a for neg, a in tokens)


def format_model(z: Interpretation) -> str:
    """One-line model: positive atoms then negated ones, each group sorted."""
    return format_row(z.universe, z.values)
