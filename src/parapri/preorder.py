"""Preference pre-orders over interpretations.

A prioritized default pre-order compares two interpretations default by
default: the clause for default i only binds when every strictly
higher-priority default j keeps the same truth value in both
interpretations; it then demands that i's truth value does not drop.
With an empty priority order this degenerates to the parallel case,
pointwise implication for every default.

``circumscription.preorder_equivalent`` reads a theory's ``nest`` and
``priority``, so it takes theories as they are. A ``PreorderSpec`` is a
theory's defaults, order and fixtures without a base or universe; its
``nest`` is the identity nest of ``BuiltOnFirstRead``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError
from .theory import BuiltOnFirstRead, LabeledFormula, PriorityOrder, Theory


@dataclass(frozen=True)
class PreorderSpec(BuiltOnFirstRead):
    defaults: tuple[LabeledFormula, ...]
    priority: PriorityOrder
    fixtures: tuple[LabeledFormula, ...] = ()

    def __post_init__(self):
        if self.priority.indices != tuple(d.label for d in self.defaults):
            raise ValidationError("priority indices do not match default labels")

    @classmethod
    def of(cls, t: Theory) -> "PreorderSpec":
        return cls(t.defaults, t.priority, t.fixtures)

    @classmethod
    def parallel(cls, defaults: Iterable[LabeledFormula], fixtures: Iterable[LabeledFormula] = ()) -> "PreorderSpec":
        ds = tuple(defaults)
        return cls(ds, PriorityOrder(tuple(d.label for d in ds)), tuple(fixtures))
