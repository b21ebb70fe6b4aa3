"""Speed probe that converts wall time into reference seconds.

The machine the benchmark was defined on is a VM whose vCPUs switch between
a fast and a slow state (about 1.6x) for seconds to minutes at a time,
independently per vCPU, under load from outside the VM.  No statistic over
a 25 s run removes that, so each timed block is scaled by the speed of a
small fixed kernel run on the same CPU, three times on each side of the
block.  Those outside probes set the scale.  The kernel also runs every
``TICK_S`` inside the block (from a SIGALRM handler, which runs between the
program's bytecodes) to follow speed changes within a long block, but these
ticks share the CPU with the program: its threads, GIL hand-offs and cache
pressure slow them too.  So the median over all probes is clamped to the
range of the outside probes, and a change to the program can move the scale
only within that range.  The kernel mixes interpreted loops with NumPy
arithmetic, as the pipeline does.  The estimated cost of the ticks is
subtracted.  A scaled time reads in seconds at the speed where the kernel
takes ``REFERENCE_S``; raw wall times are printed alongside.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

#: Kernel time on an uncontended 2.1 GHz Xeon vCPU, the reference speed.
REFERENCE_S = 0.0015
TICK_S = 0.25


class SpeedProbe:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((120, 120))
        self._vector = rng.random(100_000)
        self._out = np.empty_like(self._vector)
        self._ticks: list[float] = []
        self.clamped = 0  # blocks whose in-block ticks fell outside the outside range
        self._recent = [self._kernel() for _ in range(3)]
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _kernel(self) -> float:
        started = time.perf_counter()
        total, table = 0.0, {}
        for i in range(8_000):
            total += (i * 0.5) % 7.0
            table[i & 255] = total
        float((self._matrix @ self._matrix).sum())
        np.multiply(self._vector, 1.5, out=self._out)
        return time.perf_counter() - started

    def _on_alarm(self, signum, frame) -> None:
        self._ticks.append(self._kernel())

    @contextmanager
    def ticking(self):
        """Probe every ``TICK_S`` while the block runs."""
        self._ticks = []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)

    def scale(self, wall_seconds: float) -> float:
        """Reference seconds per wall second for the block just timed."""
        during = self._ticks
        self._ticks = []
        after = [self._kernel() for _ in range(3)]
        outside = self._recent + after
        self._recent = after
        tracked = statistics.median(outside + during)
        speed = min(max(tracked, min(outside)), max(outside))
        self.clamped += speed != tracked
        return (wall_seconds - len(during) * speed) / wall_seconds * REFERENCE_S / speed
