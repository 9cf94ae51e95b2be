"""Host-speed gauge, run inside every benchmark child.

On a shared host the same deterministic command runs up to 1.5-2x slower
for minutes at a time, when other tenants load the physical core.  The
gauge measures how fast the child's CPU is while the child works: every
``PERIOD_S`` seconds a SIGALRM handler times a fixed kernel, interleaved
with momentbc's own work on the same CPU.  The kernel mixes interpreter
arithmetic with random reads from a list larger than the per-core caches,
the two things momentbc's Python code spends its time on.  It uses no
momentbc code, so no change to the program moves its own time.

run.py scales a measured time t with the gauge's mean kernel time g over
the same interval to ``(t - ticks) * REFERENCE_S / g``: the seconds the
work would take on a host on which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import random
import signal
import time

PERIOD_S = 0.05
# About the kernel's time inside a momentbc child on a calm 2.1 GHz Xeon
# vCPU (Python 3.11); in isolation it takes about half as long.
REFERENCE_S = 1.0e-3

_CHUNK = 1 << 11


class Gauge:
    def __init__(self):
        rng = random.Random(0)
        self._values = [rng.random() for _ in range(1 << 18)]   # ~8 MB of float objects
        self._order = [rng.randrange(len(self._values)) for _ in range(1 << 14)]
        self._offset = 0
        self.times: list[float] = []

    def _kernel(self) -> float:
        s = 0
        for i in range(3000):
            s += i * i
        start = self._offset
        self._offset = (start + _CHUNK) % len(self._order)
        values = self._values
        x = 0.0
        for i in self._order[start:start + _CHUNK]:
            x += values[i]
        return s + x

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self._kernel()
        self.times.append(time.perf_counter() - t0)

    def start(self):
        self.times = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> dict:
        """Stop ticking; the ticks' count, total and mean seconds.  The
        total fell inside the measured interval; an interval too short
        for a tick gets one right after it, outside."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        ticks = len(self.times)
        total = sum(self.times)
        if not self.times:
            self._tick()
        return {"ticks": ticks, "total_s": total,
                "mean_s": sum(self.times) / len(self.times)}
