"""Host-speed calibration: fixed pieces of work timed between cases.

A shared host runs the same code at speeds up to about 1.8x apart, in
states that drift over tens of seconds, so that a whole run can sit in a
slow or a fast stretch.  A worker times two kernels between cases, at least
every INTERVAL_S, and divides each case's time by the host's slowdown
against REFERENCE_S at the calibration points on either side of it
(HostClock.slowdown): a case's time reads as a time at the reference speed.
A faster program still reads faster, because the kernels run no program
code; a slower host no longer does.  No calibration runs inside a timed
interval.

The kernels stand for the two kinds of work the solvers do: interpreted
Python over tuples and dicts, and dense complex numpy sampling.  Timed
between solve_large cases for 150 s, their geometric mean cut the spread
of per-pass times from 0.16 to 0.06 (coefficient of variation).  They are
frozen: changing them, REPEATS or REFERENCE_S changes every reported time.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median times of one call of each kernel on a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.x).  Only the ratio to them matters.
REFERENCE_S = {"python": 0.0005, "numpy": 0.00015}
REPEATS = 20  # calls of each kernel per calibration point; the median counts
INTERVAL_S = 0.2

_DFT16 = np.exp(2j * np.pi * np.outer(np.arange(16), np.arange(16)) / 16)
_DFT32 = np.exp(2j * np.pi * np.outer(np.arange(32), np.arange(32)) / 32)


def python_kernel() -> int:
    """Interpreted work over tuples and dicts, with a few small contractions."""
    table: dict = {}
    acc = 0
    for i in range(800):
        key = (i % 97, (i * 31) % 89)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 0xFF
    psi = np.ones((16, 128), dtype=np.complex128)
    for _ in range(3):
        psi = np.tensordot(_DFT16, psi, axes=([1], [0])) / 4.0
    return acc + len(table) + int(abs(psi[0, 0]) > 0)


def numpy_kernel() -> int:
    """One dense sampling round, shaped like the solvers' statevector step."""
    psi = np.ones((32, 64), dtype=np.complex128) / 32.0
    for _ in range(2):
        psi = np.moveaxis(np.tensordot(_DFT32, psi, axes=([1], [0])), 0, 0)
    amp = np.abs(psi.reshape(-1))
    amp[amp < 1e-9] = 0.0
    probs = amp * amp
    probs /= probs.sum()
    return int(np.random.default_rng(0).choice(probs.size, p=probs))


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def _median_time(fn) -> float:
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure() -> float:
    """The host's slowdown now: the geometric mean over the kernels of
    their median time against REFERENCE_S."""
    return statistics.geometric_mean(
        _median_time(fn) / REFERENCE_S[name] for name, fn in KERNELS.items()
    )


class HostClock:
    """Calibration points of one process, and the host slowdown over an
    interval between two of them."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter at each point, increasing
        self.slowdowns: list[float] = []  # measure() at each point
        self.spent_s = 0.0  # time spent calibrating

    def sample(self) -> None:
        t0 = time.perf_counter()
        slowdown = measure()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.slowdowns.append(slowdown)
        self.spent_s += t1 - t0

    def due(self) -> bool:
        return not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S

    def slowdown(self, start: float, end: float) -> float:
        """Mean slowdown of the last point before `start` and the first
        point after `end`."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        points = [self.slowdowns[i] for i in (before, after) if 0 <= i < len(self.times)]
        return statistics.fmean(points)
