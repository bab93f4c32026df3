"""Host speed: a fixed stdlib loop, timed between jobs.

The reference host runs other tenants' work on the same cores, and its speed
drifts by a fifth or more over tens of seconds; CPU time drifts with wall
time, so it is the host's speed that moves, not the scheduling.  The loop
below touches the same kinds of objects as the program (tuple keys in a
dict, small ints, Fractions) and does not import hkdensity, so a change to
the program cannot change its time.  ``normalise`` scales a wall time to the
speed at which the loop takes NOMINAL_S, its median on the reference host
when quiet.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0023


def probe() -> float:
    """Wall time of the loop, about NOMINAL_S on the reference host."""
    t0 = time.perf_counter()
    seen: dict[tuple[int, int, int], int] = {}
    for i in range(4000):
        key = ((i * 7919) % 1009, i % 13, i & 7)
        seen[key] = seen.get(key, 0) + i
    acc = sum(a * b - c for (a, b, c) in seen)
    total = Fraction(acc % 7 + 1)
    for i in range(1, 60):
        total += Fraction(1, i * (i + 1))
    return time.perf_counter() - t0


def factor(probes: list[float]) -> float:
    """Scale from wall seconds to reference seconds, given the probes taken
    just before and just after the timed work."""
    return NOMINAL_S / statistics.mean(probes)
