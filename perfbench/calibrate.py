"""A fixed pure-Python kernel that measures how fast the machine runs right now.

On a shared machine the speed of one core swings by up to 2x within
seconds (other tenants contend for the core and its caches), and CPU time
swings with it.  The benchmark samples this kernel around and during each
job and scales the job's latency by ``REFERENCE_S / speed``, where speed is
the mean of those samples: a job is reported in seconds at the speed at
which one kernel run takes ``REFERENCE_S``.  The kernel uses only the
standard library (``Fraction`` arithmetic, tuple keys, a dict and a keyed
sort, the same kinds of work as the engine), so no change to ``src/`` can
change its speed.
"""
from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

__all__ = ["REFERENCE_S", "sample", "SpeedProbe"]

# Kernel time, in seconds, that defines reference speed: the best-of-three
# time on the 2-core Xeon box the workloads were sized on, when no other
# tenant contended for the core.  Under contention the kernel took up to
# twice as long there.
REFERENCE_S = 0.0004


def _kernel():
    acc = {}
    q = Fraction(1, 3)
    for i in range(1, 80):
        key = (i % 7, Fraction(i, 6) + q)
        acc[key] = acc.get(key, 0) + i
    return sorted(acc.items(), key=lambda kv: (kv[0][0], kv[0][1]))


def sample() -> float:
    """Best of three kernel runs, in seconds (the best run misses interrupts)."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class SpeedProbe:
    """Samples the kernel every ``period`` seconds of wall time from SIGALRM,
    so that a long job is normalized by the speed the machine had while it
    ran, not only at its ends.  ``spent`` is the time the samples took; the
    caller subtracts the part that fell inside a measured interval."""

    def __init__(self, period: float = 0.1):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
