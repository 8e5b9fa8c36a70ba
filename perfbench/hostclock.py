"""Host speed, from a fixed kernel timed between operations.

On the shared host the benchmark was written on, the same round of
operations ran from 4.97 to 7.84 s within three minutes, and this kernel,
timed beside such rounds, slowed in step (correlations 0.88-0.95).  No run
length averages that out, so the end-to-end times are scaled to a host of
fixed speed: one on which a kernel pass takes ``REFERENCE_S``.

The kernel is the benchmark's own reference model, not sivodmr: H/h and
``numpy.linalg.eigvalsh`` for 64 fixed fields.  It runs between
operations, one timed pass per ``KERNEL_EVERY_S`` of operation time, after
one untimed pass that refills the caches the operation used.
"""

from __future__ import annotations

import time

import numpy as np

import reference as ref

REFERENCE_S = 125e-6
KERNEL_EVERY_S = 0.01
_FIELDS = np.random.default_rng(0).uniform((0.0, 0.0), (0.02, 1.5), (64, 2)).T


def _kernel() -> None:
    ref.gaps(*_FIELDS)


class HostClock:
    """Kernel passes timed over a stretch of a run."""

    def __init__(self):
        self.passes = 0
        self.seconds = 0.0

    def sample(self, busy_s: float) -> None:
        """Time kernel passes in proportion to ``busy_s`` of work just done."""
        n = max(1, round(busy_s / KERNEL_EVERY_S))
        _kernel()
        t0 = time.perf_counter()
        for _ in range(n):
            _kernel()
        self.seconds += time.perf_counter() - t0
        self.passes += n

    def slowness(self) -> float:
        """Mean kernel pass over ``REFERENCE_S``: above 1 on a slower host."""
        return self.seconds / self.passes / REFERENCE_S
