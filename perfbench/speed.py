"""The reference loop that the benchmark's times are scaled by.

On a shared host the same pure-Python work runs up to 2x slower for
seconds to minutes at a time, and a little of that even changes within
a second; no steal time shows, and CPU time slows with wall time.  Each
timed operation therefore runs a fixed loop now and then in its own
process (child.py), and its wall time is reported at the reference
speed: wall time x REFERENCE_S / (the loop's mean time).  A change to
the program moves the scaled time as it moves the wall time; a slowdown
of the whole machine slows the loop as well and cancels.

This module imports nothing but ``time``, so that importing it adds
nothing to the set-up time it helps to measure.
"""
from __future__ import annotations

import time

REFERENCE_ITERATIONS = 8000
REFERENCE_S = 0.002     # a round figure near the loop's time on a 2-vCPU host, CPython 3.11
SAMPLE_ITERATIONS = 1000
SAMPLE_EVERY_S = 0.02


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Seconds per REFERENCE_ITERATIONS of a fixed loop of dict updates and
    integer arithmetic, the kinds of work the checker and simulator do.
    It does not touch the program, and it allocates nothing the garbage
    collector tracks, so that the size of the program's heap cannot slow
    it."""
    started = time.perf_counter()
    seen: dict = {}
    x = 0
    for i in range(iterations):
        key = (i & 63) << 4 | x & 15
        seen[key] = seen.get(key, 0) + 1
        x = (x * 31 + i) % 1009
    return (time.perf_counter() - started) * REFERENCE_ITERATIONS / iterations


def scaled(wall_s: float, loop_s: float) -> float:
    """``wall_s`` at the reference speed, given the loop's time beside it."""
    return wall_s * REFERENCE_S / loop_s
