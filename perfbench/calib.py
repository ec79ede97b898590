"""Frozen calibration kernel and the clock that scales task times by it.

The machines this runs on change speed in phases of about a second to tens
of seconds (up to 1.6x), and CPU time slows as much as wall time. So every
task time is multiplied by REFERENCE_S / (the kernel's time measured around
the task): a figure at the speed of a machine on which the kernel takes
REFERENCE_S. The kernel does what parapri spends its time on, in the same
style: interpreter loops, small frozen objects walked by ``match``, dict and
set hashing, string building and 4096-bit int and/or/xor/shift. It imports
nothing from parapri. (A synthetic loop of the same operations slowed
1.8x in this machine's slow phases where parapri slowed 1.25-1.7x; this
one slows about as much as parapri does.)

Do not edit ``kernel``: REFERENCE_S and CHECKSUM hold for this exact code.
"""

from __future__ import annotations

import bisect
import statistics
import time
from dataclasses import dataclass

ROUNDS = 130
REFERENCE_S = 0.0065
CHECKSUM = 1015084

GAP_S = 0.1       # wall time between kernel samples
WINDOW_S = 0.3    # samples this close to a task scale it

_WIDTH = 1 << 12
_FULL = (1 << _WIDTH) - 1
_COLUMNS = {f"a{k}": _FULL // ((1 << (1 << k)) + 1) for k in range(12)}
_NAMES = list(_COLUMNS)


@dataclass(frozen=True)
class _Leaf:
    name: str


@dataclass(frozen=True)
class _Pair:
    op: str
    left: object
    right: object


def _text(f) -> str:
    match f:
        case _Leaf(name):
            return name
        case _Pair(op, left, right):
            return f"({_text(left)} {op} {_text(right)})"


def _mask(f) -> int:
    match f:
        case _Leaf(name):
            return _COLUMNS[name]
        case _Pair("&", left, right):
            return _mask(left) & _mask(right)
        case _Pair(_, left, right):
            return _mask(left) | (_FULL ^ _mask(right))


def kernel() -> int:
    """Per round: build a nested formula of frozen nodes, print it, take its
    4096-bit truth mask, pull 20 bits off one at a time, and fill a dict and
    a set with tuple keys."""
    out = 0
    for i in range(ROUNDS):
        f = _Leaf(_NAMES[i % 12])
        for k in range(8):
            f = _Pair("&" if (i >> k) & 1 else "|", _Leaf(_NAMES[(i + k) % 12]), f)
        out += len(_text(f))
        m = _mask(f) ^ (_FULL >> (i % 64))
        for _ in range(20):
            low = m & -m
            out += low.bit_length()
            m ^= low
        seen = {}
        keys = set()
        for k in range(40):
            seen[(i, k & 7, _NAMES[k % 12])] = k
            keys.add((k * 2654435761) & 0xFFFF)
        out += len(seen) + len(keys)
    return out


class Clock:
    """Kernel samples taken between tasks, every GAP_S of wall time."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self._next = 0.0

    def sample(self) -> float:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.values.append(t1 - t0)
        self._next = t1 + GAP_S
        return t1 - t0

    def tick(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time near [start, end]. The mean,
        not the median: when the machine switches speed faster than the
        window, a task sees the average slowdown."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo, hi = max(0, mid - 2), min(len(self.times), mid + 2)
        return REFERENCE_S / statistics.fmean(self.values[lo:hi])

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.values)
