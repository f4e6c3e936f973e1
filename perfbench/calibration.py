"""Machine-speed calibration for the benchmark's timings.

The 2-core VM this benchmark was written on shares its cores with other
tenants: over tens of seconds its speed drifts by up to 2x, and not evenly,
since interpreter-bound code slows more than streaming BLAS.  That moves a
run's raw median by far more than any bound could allow.  Every gated time
is therefore reported at a nominal machine speed: the wall time, times the
nominal calibration time over the calibration time measured close to it.
The calibration uses numpy only, never coldgp, so no change to the program
can move it.  Raw wall times are always reported next to the scaled ones.

The calibration times two kinds of work separately, and a workload weights
them by how closely its sweep time follows each (workloads.SPEED_WEIGHTS):

  python  small numpy calls from a Python loop (per-call overhead: the
          likelihood, the sampler's bookkeeping, per-point objects);
  blas    a matrix product streaming 8 MB (Cholesky, the prior draw, and
          the memory-bound passes of Gram assembly).
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

KINDS = ("python", "blas")
# Median part times on a 2-core Intel Xeon box (numpy 2.4, OpenBLAS 0.3.31,
# one BLAS thread), so a scaled time reads as seconds on that box.
NOMINAL_S = (0.0013, 0.0039)
SAMPLE_PERIOD_S = 0.25
LOCAL_SAMPLES = 5

_SMALL = np.sin(np.arange(40000.0)).reshape(200, 200)
_MATRIX = np.sin(np.arange(1000000.0)).reshape(1000, 1000)
_COLUMNS = np.cos(np.arange(2000.0)).reshape(1000, 2)


def calibrate() -> tuple:
    """One calibration pass; returns the wall seconds of each part, in KINDS order."""
    clock = time.perf_counter
    t0 = clock()
    acc = 0.0
    for i in range(250):
        row = _SMALL[i % 200]
        acc += float(np.exp(-row * row).sum())
    t1 = clock()
    for _ in range(3):
        acc += float((_MATRIX @ _COLUMNS).sum())
    t2 = clock()
    if not np.isfinite(acc):
        raise ArithmeticError("calibration produced a non-finite value")
    return t1 - t0, t2 - t1


def medians(passes) -> tuple:
    """Median time of each part over calibration passes."""
    return tuple(statistics.median(column) for column in zip(*passes))


def burst(count: int) -> tuple:
    """Median time of each part over ``count`` back-to-back passes."""
    return medians(calibrate() for _ in range(count))


def scale(wall: float, local: tuple, weights) -> float:
    """``wall`` at nominal speed, given the median time of each calibration part
    measured close to it.  The slowdown is the weighted mean, over KINDS, of
    each part's time over its nominal time; ``weights`` sum to 1.
    """
    return wall / sum(w * m / n for w, m, n in zip(weights, local, NOMINAL_S))


class SpeedSampler:
    """Runs a calibration pass every SAMPLE_PERIOD_S from a SIGALRM handler.

    The handler runs between bytecodes of the main thread, so the samples
    land inside the sweeps they are compared with.  ``local`` removes the
    samples' own time from an interval.
    """

    def __init__(self):
        self.samples = []  # (start, part seconds)
        self._previous = None

    def _sample(self, signum, frame):
        started = time.perf_counter()
        self.samples.append((started, calibrate()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def local(self, start: float, end: float):
        """(wall seconds of [start, end] without sampling time, median time of each
        calibration part in that interval, or in the LOCAL_SAMPLES nearest to it)."""
        inside = [parts for t, parts in self.samples if start <= t <= end]
        wall = end - start - sum(sum(parts) for parts in inside)
        if len(inside) < LOCAL_SAMPLES:
            middle = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [parts for _, parts in nearest[:LOCAL_SAMPLES]]
        return wall, medians(inside)

    def median(self) -> tuple:
        """Median time of each calibration part over the whole run."""
        return medians(parts for _, parts in self.samples)
