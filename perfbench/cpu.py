"""Keep the benchmark on the least contended CPU it may use.

On a shared host one virtual CPU can run this single-threaded benchmark
1.5-2x slower than its sibling for tens of seconds at a time, while the
other stays fast (measured on a 2-vCPU cloud VM).  Before each instance
the benchmark times a short pure-Python loop on every CPU in its own
affinity set and pins itself to the fastest one.  This acts only on the
benchmark's own process; with a single allowed CPU it does nothing.
"""

from __future__ import annotations

import os
import statistics
import time

PROBE_EVERY_S = 0.5
_LOOP = 20_000


def _probe() -> float:
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(_LOOP):
            x += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class CpuPicker:
    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self._last = -float("inf")
        self.moves = 0
        self.current = None
        self.probes: list[float] = []   # the chosen CPU's probe, per pick

    def maybe_repin(self) -> None:
        """Re-pick the fastest allowed CPU, at most every PROBE_EVERY_S."""
        if len(self.cpus) < 2:
            return
        now = time.perf_counter()
        if now - self._last < PROBE_EVERY_S:
            return
        best, best_t = None, float("inf")
        for c in self.cpus:
            os.sched_setaffinity(0, {c})
            t = _probe()
            if t < best_t:
                best, best_t = c, t
        os.sched_setaffinity(0, {best})
        self.probes.append(best_t)
        if best != self.current:
            self.moves += 1
            self.current = best
        self._last = time.perf_counter()
