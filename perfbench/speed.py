"""A speed probe that scales measured times to a fixed reference speed.

On a shared VM the speed of one vCPU can drift by tens of percent from one
run to the next, and by as much within a run, and every kind of Python work
slows together.  So while the benchmark measures, a timer interrupts it
every ``interval`` seconds and times a small fixed kernel of pure Python
that does not touch cyclodiff.
A measured interval is then scaled by ``REFERENCE_KERNEL_S / (mean kernel
time during the interval)``: the time it would have taken at the speed
where the kernel takes ``REFERENCE_KERNEL_S``.  The time spent in the probe
itself is taken out of the interval first.

Unscaled times are kept next to the scaled ones, so both can be reported.
"""

from __future__ import annotations

import signal
import statistics
import time

# Warm kernel time on an idle 2-vCPU Xeon VM with Python 3.11.
REFERENCE_KERNEL_S = 0.30e-3


def kernel() -> int:
    """Interpreter dispatch, a small dict and big-int products."""
    acc = 0
    table = {}
    for i in range(1500):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = acc
    big = (1 << 8000) - 12345
    for _ in range(4):
        acc ^= (big * (big + acc)).bit_length()
    return acc


class SpeedProbe:
    """Context manager: samples the kernel on a SIGALRM timer while open."""

    def __init__(self, interval: float = 0.05, seed_samples: int = 3):
        self.interval = interval
        self.seed_samples = seed_samples
        self.samples = []  # warm kernel seconds, in time order
        self.busy = 0.0  # seconds spent inside the probe so far
        self._previous = None

    def _sample(self, *_):
        start = time.perf_counter()
        kernel()  # the first run warms caches the program just used
        mid = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(end - mid)
        self.busy += end - start

    def __enter__(self):
        for _ in range(self.seed_samples):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return len(self.samples), self.busy, time.perf_counter()

    def since(self, mark):
        """(raw seconds, scaled seconds) since ``mark``, probe time excluded."""
        count, busy, start = mark
        raw = time.perf_counter() - start - (self.busy - busy)
        during = self.samples[count:] or self.samples[-self.seed_samples :]
        return raw, raw * REFERENCE_KERNEL_S / statistics.fmean(during)
