"""Tunable brute-force bounds.

Every enumeration in the package is capped; exceeding a cap raises
CapExceededError instead of silently truncating.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from .errors import CapExceededError, ValidationError


@dataclass(frozen=True)
class Caps:
    model_atoms: int = 20          # 2^n interpretations enumerated for model sets
    tautology_atoms: int = 24      # 2^n rows for tautology / entailment checks
    pairwise_atoms: int = 12       # pre-order comparison over all 2^n x 2^n pairs
    transform_formulas: int = 1 << 20
    members: int = 64              # enumerated alternatives of the transform
    combination_tables: int = 4096  # and/or closure of a pruning candidate's witnesses


DEFAULT_CAPS = Caps()


def check_atoms(universe: Sequence[str], max_atoms: int) -> None:
    """Refuse a 2^n enumeration over more than ``max_atoms`` atoms."""
    if len(universe) > max_atoms:
        raise CapExceededError(f"{len(universe)} atoms exceeds the enumeration cap of {max_atoms}")


def caps_from_env(environ=None) -> Caps:
    """Caps with PARAPRI_MAX_ATOMS applied to all three atom bounds."""
    env = os.environ if environ is None else environ
    raw = env.get("PARAPRI_MAX_ATOMS")
    if raw is None:
        return DEFAULT_CAPS
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"PARAPRI_MAX_ATOMS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValidationError("PARAPRI_MAX_ATOMS must be non-negative")
    return Caps(model_atoms=n, tautology_atoms=n, pairwise_atoms=n)
