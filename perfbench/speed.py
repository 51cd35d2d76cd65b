"""Timings scaled to a reference host speed.

On a shared two-vCPU host the same code runs up to 1.7 times slower in
some seconds than in others: one in-process titanic oracle build took
1.04 to 1.80 s within a minute, and its process CPU time moved with its
wall time to within 3%, so CPU time is no steadier than wall time.  A
fixed pure-Python loop slows down with it (27 to 46 ms over the same
builds).  So a timing of work done in this process is taken between two
timings of that loop and scaled by how long the loop took around it::

    scaled = wall * REFERENCE_LOOP_MS / mean(loop_ms before, loop_ms after)

A scaled second is a second of a host on which the loop takes
``REFERENCE_LOOP_MS``.  The loop is the benchmark's own code, so a
change to the program moves a scaled time by the same share as it moves
the wall time on a steady host.  The loop tracks only this process:
work done in child processes spread more once scaled than as wall time
(see ``workloads._setup_metric``).
"""

from __future__ import annotations

import statistics
import time

#: The loop's time, in ms, on an unloaded two-vCPU x86-64 host with
#: CPython 3.11.  Only ratios of scaled times mean anything; this fixes
#: their scale near the wall time of such a host.
REFERENCE_LOOP_MS = 10.0
LOOP_ITERATIONS = 130_000
LOOP_REPEATS = 5


def loop_ms() -> float:
    """Mean time of the fixed loop over a few repeats, in ms.  The host's
    speed moves within a second, so a mean over 50 ms or so estimates it
    better than any one repeat does."""
    times = []
    for _ in range(LOOP_REPEATS):
        t0 = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.fmean(times)


class HostClock:
    """Wall and scaled seconds of laps of work.

    The clock calibrates when it is made and at the end of every lap;
    the calibration is not part of any lap.  A lap's scale is the mean
    of the loop times on either side of it.
    """

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.scaled: list[float] = []
        self._loop_ms = loop_ms()
        self._t0 = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def scaled_s(self) -> float:
        return sum(self.scaled)

    def start(self) -> None:
        """Start the lap now, leaving out the time since the last one."""
        self._t0 = time.perf_counter()

    def lap(self, exclude: float = 0.0) -> None:
        """End the lap, less ``exclude`` seconds of it, and start the next."""
        wall = time.perf_counter() - self._t0 - exclude
        after = loop_ms()
        self.walls.append(wall)
        self.scaled.append(
            wall * REFERENCE_LOOP_MS / ((self._loop_ms + after) / 2))
        self._loop_ms = after
        self._t0 = time.perf_counter()

    def lap_every(self, seconds: float) -> None:
        """End the lap if it has run for ``seconds`` or more."""
        if time.perf_counter() - self._t0 >= seconds:
            self.lap()
