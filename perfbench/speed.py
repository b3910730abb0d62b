"""Host-speed calibration: how fast the host runs Python right now.

The benchmark runs on shared hosts whose speed drifts by tens of
percent over minutes, and a virtual CPU that the host pauses reports no
steal time, so CPU time drifts with wall time. To keep runs at
different times comparable, a run interleaves a fixed pure-Python
kernel with the program at step boundaries, about one part in
``1 / SHARE`` of its wall time, and scales every time it reports by
``REFERENCE_S / mean kernel time``. The kernel is the benchmark's own
code, so a change to the program leaves it alone and moves the scaled
times exactly as it moves the raw ones.
"""

from __future__ import annotations

import time
from typing import List

__all__ = ["HostSpeed", "REFERENCE_S", "kernel"]

_clock = time.perf_counter

#: Kernel time on the reference host (a 2-core x86-64 VM in its fast
#: phase, CPython 3). Scaled times read as times on that host.
REFERENCE_S = 0.0025

#: Share of a run's wall time given to the kernel.
SHARE = 0.08


class _Cell:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def kernel(n: int = 2000) -> int:
    """A fixed mix of what the program does most: bytecode dispatch,
    calls, slot attributes, tuple hashing, dict and list traffic, small
    allocations and string formatting."""
    table = {}
    head = None
    acc = 0
    for i in range(n):
        key = (i & 127, i % 7)
        cell = table.get(key)
        if cell is None:
            head = _Cell(key, i, head)
            table[key] = head
        else:
            cell.value += i
        acc ^= hash(key) & 0xFFFF
        if i % 64 == 0:
            acc += len([cell.value for cell in table.values()])
            table = dict(table)
        acc += len(f"{i}:{acc}")
    return acc


class HostSpeed:
    """Kernel passes interleaved with a run, spread evenly over time."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.spent_s = 0.0
        self._owed_s = 0.0
        self._last = _clock()

    def tick(self) -> None:
        """Call at a step boundary: runs kernel passes until the kernel
        has had its share of the time since the previous call."""
        now = _clock()
        self._owed_s += (now - self._last) * SHARE
        while self._owed_s > 0.0:
            start = _clock()
            kernel()
            spent = _clock() - start
            self.samples.append(spent)
            self._owed_s -= spent
        self._last = _clock()
        self.spent_s += self._last - now

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-host time."""
        return REFERENCE_S * len(self.samples) / sum(self.samples)
