"""Built-in single-individual inheritance scenarios.

Each scenario is a prioritized theory together with a hand-listed parallel
default set that should have the same preferred models. The tests and
``scripts/specificity_report.py`` check the transform, pruning and the
guarded-rule encoding (``specificity.encode_abnormality``) against them.
"""

from __future__ import annotations

from typing import NamedTuple

from parapri.circumscription import circ_equivalent
from parapri.errors import ValidationError
from parapri.specificity import AB_VARIANTS, encode_abnormality
from parapri.theory import Theory, build_theory


class InheritanceCase(NamedTuple):
    universe: tuple[str, ...]
    base: tuple[str, ...]
    defaults: tuple[tuple[str, str], ...]
    prefer: tuple[tuple[str, str], ...]
    parallel_defaults: tuple[tuple[str, str], ...]


# Built-in single-individual inheritance scenarios of increasing size:
# one exceptional subclass, two exceptional subclasses, and two levels of
# exceptional subclasses.
INHERITANCE_CASES: dict[int, InheritanceCase] = {
    11: InheritanceCase(
        universe=("bird", "flies", "ostrich"),
        base=("ostrich -> bird",),
        defaults=(("e1", "bird -> flies"), ("e2", "ostrich -> ~flies")),
        prefer=(("e2", "e1"),),
        parallel_defaults=(
            ("d1", "bird -> (flies & ~ostrich)"),
            ("d2", "ostrich -> ~flies"),
        ),
    ),
    12: InheritanceCase(
        universe=("bird", "flies", "ostrich", "penguin"),
        base=("ostrich -> bird", "penguin -> bird"),
        defaults=(
            ("e1", "bird -> flies"),
            ("e2", "ostrich -> ~flies"),
            ("e3", "penguin -> ~flies"),
        ),
        prefer=(("e2", "e1"), ("e3", "e1")),
        parallel_defaults=(
            ("d1", "bird -> (flies & ~ostrich & ~penguin)"),
            ("d2", "ostrich -> ~flies"),
            ("d3", "penguin -> ~flies"),
        ),
    ),
    13: InheritanceCase(
        universe=("animal", "bird", "flies", "ostrich", "penguin"),
        base=("ostrich -> bird", "penguin -> bird", "bird -> animal"),
        defaults=(
            ("e0", "animal -> ~flies"),
            ("e1", "bird -> flies"),
            ("e2", "ostrich -> ~flies"),
            ("e3", "penguin -> ~flies"),
        ),
        prefer=(("e1", "e0"), ("e2", "e0"), ("e3", "e0"), ("e2", "e1"), ("e3", "e1")),
        parallel_defaults=(
            ("d0", "animal -> (~flies & ~bird)"),
            ("d1", "bird -> (flies & ~ostrich & ~penguin)"),
            ("d2", "ostrich -> ~flies"),
            ("d3", "penguin -> ~flies"),
        ),
    ),
}


def inheritance_theory(case: int) -> Theory:
    c = INHERITANCE_CASES[case]
    return build_theory(atoms=c.universe, base=c.base, defaults=c.defaults, prefer=c.prefer)


def inheritance_parallel_theory(case: int) -> Theory:
    c = INHERITANCE_CASES[case]
    return build_theory(atoms=c.universe, base=c.base, defaults=c.parallel_defaults)


def verify_special_case(case: int) -> bool:
    """Whether the prioritized scenario and its hand-listed parallel
    counterpart have the same preferred models."""
    if case not in INHERITANCE_CASES:
        raise ValidationError(f"unknown built-in case {case}; choose from {sorted(INHERITANCE_CASES)}")
    return circ_equivalent(inheritance_theory(case), inheritance_parallel_theory(case))


def abnormality_variant_report() -> dict[str, dict[int, bool]]:
    """For each cancellation variant: which built-in cases it reproduces,
    judged by projection equivalence on the original vocabulary."""
    theories = {case: inheritance_theory(case) for case in INHERITANCE_CASES}
    return {
        variant: {
            case: circ_equivalent(t, encode_abnormality(t, variant), project=t.universe)
            for case, t in theories.items()
        }
        for variant in AB_VARIANTS
    }
