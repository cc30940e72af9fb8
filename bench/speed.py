"""Machine-speed reference for the benchmark's normalized times.

On a shared host the CPU this benchmark gets runs at changing speeds: the
same pure-Python work takes up to about 1.6 times as long in some phases
as in others, in phases of seconds to minutes, so a wall-clock time
depends on when it was taken.  The benchmark therefore pins itself and
every process it starts to one CPU (``pin``), times a fixed reference
kernel on that CPU before and after every timed interval (``sample``), and
reports each interval scaled to the speed at which the kernel takes
``REFERENCE_S`` seconds:

    normalized = wall * REFERENCE_S / mean(kernel before, kernel after)

The kernel is benchmark-owned code of the kind the program spends its time
on (``frozenset`` unions and subset tests, as in its subset searches); it
shares nothing with the program, so a change to the program moves the
normalized time exactly as it moves the wall time at a fixed machine speed.
The raw wall times are reported beside the normalized ones on the detail
line.

Measured against fixed requests replayed for two minutes on each workload,
the logarithm of a request's wall time rose with the logarithm of this
kernel's time with a slope of 0.91 to 1.04 (1 is exact tracking), where an
exact-``Fraction`` elimination kernel gave 0.69 to 0.82: that kernel slowed
down more than the program did, so normalizing by it over-corrected.
"""

from __future__ import annotations

import itertools
import os
from time import perf_counter

#: Kernel seconds that define the reference speed.  Normalized times are
#: seconds at the speed where one ``kernel()`` call takes this long.
REFERENCE_S = 0.005

#: The kernel's data: every 4-element subset of 14 items.
_SUBSETS = tuple(frozenset(c) for c in itertools.combinations(range(14), 4))


def kernel() -> int:
    """A fixed amount of set work, about 5 ms: 15,150 unions and subset tests."""
    covered = 0
    for a in _SUBSETS[:150]:
        for b in _SUBSETS[::10]:
            covered += a <= (a | b)
    return covered


def sample() -> float:
    """Wall seconds of one kernel call, now, on this process's CPU."""
    started = perf_counter()
    kernel()
    return perf_counter() - started


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` seconds measured between two kernel samples, at the reference speed."""
    return wall * REFERENCE_S * 2 / (before + after)


def pin() -> int | None:
    """Pin this process, and so every process it starts, to one CPU; return it.

    The kernel only tracks the program's speed when both run on the same
    CPU.  Returns ``None`` where affinity cannot be set.
    """
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
