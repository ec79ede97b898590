"""Brute-force bounds.

Every enumeration in the package is capped; exceeding a cap raises
CapExceededError instead of silently truncating. The atom cap of the 2^n
interpretation enumerations is the one bound a user sets, through
``PARAPRI_MAX_ATOMS`` (``MODEL_ATOMS`` when unset); ``check_atoms`` reads
it at call time, so the CLI and library calls obey the same value, and is
the only place that compares a universe against it. ``TRANSFORM_FORMULAS``
is fixed, and read as ``config.TRANSFORM_FORMULAS`` at call time, so a
test can lower it.
"""

from __future__ import annotations

import os
from typing import Sequence

from .errors import CapExceededError, ValidationError

MODEL_ATOMS = 20  # 2^n interpretations enumerated for model sets and pre-orders
TRANSFORM_FORMULAS = 1 << 20  # formulas the transform, or the guarded encoding, may emit


def check_atoms(universe: Sequence[str]) -> None:
    """Refuse a 2^n enumeration over more atoms than the atom cap."""
    cap = atom_cap_from_env()
    if len(universe) > cap:
        raise CapExceededError(f"{len(universe)} atoms exceeds the enumeration cap of {cap}")


def atom_cap_from_env() -> int:
    """The model atom cap, overridden by PARAPRI_MAX_ATOMS."""
    raw = os.environ.get("PARAPRI_MAX_ATOMS")
    if raw is None:
        return MODEL_ATOMS
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"PARAPRI_MAX_ATOMS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ValidationError("PARAPRI_MAX_ATOMS must be non-negative")
    return n
