"""Timings scaled to a reference host speed.

The benchmark runs on a few cores of a host shared with other programs.
Their load makes the same pass take up to twice as long from one minute to
the next, so raw wall times of two runs of the same code can differ by more
than any change worth measuring.

``Stopwatch`` times a block of code and, every ``PERIOD_S`` of it, runs a
fixed probe kernel from a timer signal.  The kernel is interpreter-bound
Python, half on small numpy arrays and half on scalars, like h2xr's inner
loops, so other load slows it about as much as it slows the block it
interrupts.  The block's time without the probes, multiplied by
``REFERENCE_S`` over the mean probe time, is its time at the host speed at
which the kernel takes ``REFERENCE_S``.  A change to h2xr moves that time in
full; a change in the host's load moves it much less than the raw time.
Code that other load slows differently from the kernel (long vectorised
numpy calls, for example) is scaled less accurately.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.01        # wall time between two probes
REFERENCE_S = 4e-4     # kernel time that defines the reference host speed
FALLBACK_PROBES = 3    # probes run after a block that ended before the first

clock = time.perf_counter


def _scaled_sum(x: float, y: float) -> float:
    return x * y + 1.0


def probe_kernel() -> float:
    """Fixed work of about 0.4 ms on a 2-core x86 VM: 3x3 numpy products,
    then scalar Python arithmetic with calls and dict stores."""
    a = np.eye(3)
    v = np.ones(3)
    s = 0.0
    for i in range(20):
        x = 0.5 * math.sin(1e-3 * i)
        b = np.array(((1.0, x, 0.0), (x, 1.0, x), (0.0, x, 1.0)))
        a = b @ a
        a /= np.abs(a).max()
        s += float(v @ a @ v) + x * x
    last = {}
    for i in range(600):
        s += _scaled_sum(math.sqrt(i + 1.0), 0.5) % 7.0
        last[i & 15] = s
        s += i * i % 7
    return s


def probe_s() -> float:
    t0 = clock()
    probe_kernel()
    return clock() - t0


class Stopwatch:
    """Times a ``with`` block.

    Afterwards ``raw_s`` is the block's wall time without the probes,
    ``speed`` is ``REFERENCE_S`` over the mean probe time, and ``scaled_s``
    is ``raw_s * speed``.  With ``probe=False`` no probe runs (a traced pass,
    whose per-layer times must not hold probe time), ``speed`` is 1 and
    ``scaled_s`` equals ``raw_s``.  Stopwatches must not be nested."""

    def __init__(self, probe: bool = True):
        self.probe = probe
        self.samples: list[float] = []
        self._probing_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = clock()
        self.samples.append(probe_s())
        self._probing_s += clock() - t0

    def __enter__(self) -> Stopwatch:
        if self.probe:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = clock()
        return self

    def __exit__(self, *exc) -> bool:
        if self.probe:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = clock() - self._t0 - self._probing_s
        self.speed = 1.0
        if self.probe:
            samples = self.samples or [probe_s() for _ in range(FALLBACK_PROBES)]
            self.speed = REFERENCE_S / statistics.fmean(samples)
        self.scaled_s = self.raw_s * self.speed
        return False
