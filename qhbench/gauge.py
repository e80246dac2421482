"""How fast this core runs right now, sampled while a workload runs.

On a shared host another tenant can slow the benchmark's core by a third or
more, for seconds or for many minutes, and the slowdown hits the
interpreter and numpy alike: CPU time grows with wall time.  Raw pass
times then drift more between two sets of runs of the same code than any
useful regression bound.  The gauge measures that speed where the workload
runs: a SIGALRM handler in the worker's main thread times three fixed
kernels every INTERVAL seconds of wall time, between two bytecodes of
whatever quiverhopf is doing.  The kernels are the three kinds of work
quiverhopf does: a pure-Python integer loop, an int64 matrix product mod p
and numpy row operations mod p as in ``linalg.rref``.

A pass's time at the reference speed is its own time, with the handler's
time taken out, times the speed factor: the mean over the kernels and over
the samples taken during the pass of (the kernel's reference time / its
sampled time).  The workload advances at a rate proportional to 1/time, and
the samples are spread evenly over wall time.  One sample of one kernel is
noisy; averaged over a pass, the factor follows the slowdown of quiverhopf's
own operations.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05          # seconds of wall time between two samples

_A = (np.arange(64 * 64, dtype=np.int64).reshape(64, 64) * 7919) % 10007
_B = (np.arange(48 * 96, dtype=np.int64).reshape(48, 96) * 31) % 101


def _loop() -> None:
    s = 0
    for i in range(4000):
        s += i * i % 7


def _matmul() -> None:
    (_A @ _A) % 10007


def _row_ops() -> None:
    m = _B.copy()
    for r in range(12):
        m[r + 1:] = (m[r + 1:] - np.outer(m[r + 1:, r], m[r])) % 101


# Each kernel with its time at the reference speed, about its median time on
# a 2.1 GHz Xeon core shared with other tenants.
KERNELS = ((_loop, 0.4e-3), (_matmul, 0.35e-3), (_row_ops, 0.5e-3))


class Gauge:
    """Samples the kernels from a timer signal between start and stop."""

    def __init__(self):
        self.samples: list[float] = []     # speed factor of each sample
        self.wall = 0.0                    # wall seconds spent in the handler
        self.cpu = 0.0                     # CPU seconds spent in the handler
        self._previous = None

    def _sample(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        factor, t = 0.0, t0
        for kernel, ref in KERNELS:
            kernel()
            t, before = time.perf_counter(), t
            factor += ref / (t - before)
        self.samples.append(factor / len(KERNELS))
        self.wall += t - t0
        self.cpu += time.process_time() - c0

    def _tick(self, signum, frame) -> None:
        self._sample()

    def start(self) -> None:
        for _ in range(20):                # warm the kernels' code and data
            for kernel, _ref in KERNELS:
                kernel()
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def measure(self, n: int = 10) -> float:
        """The speed factor now, from `n` samples taken back to back."""
        for kernel, _ref in KERNELS:       # the first call of a kernel is slow
            kernel()
        first = len(self.samples)
        for _ in range(n):
            self._sample()
        return statistics.fmean(self.samples[first:])

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        return len(self.samples), self.wall, self.cpu

    def since(self, mark: tuple[int, float, float]) -> tuple[float, float, float]:
        """The handler's wall and CPU seconds since `mark`, and the speed
        factor over the samples taken since then (all samples so far if
        there were none)."""
        n, wall, cpu = mark
        return (self.wall - wall, self.cpu - cpu,
                statistics.fmean(self.samples[n:] or self.samples))
