"""Speed calibration: a fixed piece of interpreter and small-NumPy work,
timed around and during each measured call.

On a shared host the speed of one core drifts by tens of percent within a
minute as other tenants load the machine, and the process's CPU time
drifts with it.  The calibration does the same kind of work as the
verifier (a recursive tree walk with ``isinstance`` dispatch and float
arithmetic, plus small NumPy calls), so it slows down together with it.
A call's time divided by the mean calibration measured before, during and
after it, times `REFERENCE_S`, is the call's time at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

#: Median calibration time on an idle core of the reference machine
#: (2-vCPU Intel Xeon VM, Python 3.11, NumPy 2.4).  It only fixes the
#: scale of the reported times.
REFERENCE_S = 8.0e-4
#: Calibration runs taken before and after a call; their median counts.
REPEATS = 3
#: Period of the calibration samples taken during a call.
INTERVAL_S = 0.25


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _walk(node, x) -> float:
    if isinstance(node, float):
        return node
    if isinstance(node, int):
        return float(x[node])
    left = _walk(node.left, x)
    right = _walk(node.right, x)
    if node.op == "+":
        return left + right
    if node.op == "*":
        return left * right
    return abs(left - right)


_TREE = _Node(
    "+",
    _Node("*", 0.6, _Node("-", 0, 0.25)),
    _Node("+", _Node("*", _Node("-", 1, 0.5), _Node("-", 1, 0.5)), _Node("*", 0.3, 2)),
)
_POINTS = np.random.default_rng(0).uniform(-1.0, 1.0, size=(100, 3))


def _once() -> float:
    t0 = perf_counter()
    total = 0.0
    for x in _POINTS:
        total += _walk(_TREE, x)
        total += float(np.linalg.norm(x - np.clip(x, -0.5, 0.5)))
    return perf_counter() - t0


def calibrate() -> float:
    """Seconds the calibration work takes now (median of a few runs)."""
    return statistics.median(_once() for _ in range(REPEATS))


class SpeedProbe:
    """Times the body of a ``with`` block and calibrates around and during it.

    During the block a SIGALRM interval timer runs one calibration every
    `INTERVAL_S`; the time those samples take is left out of `elapsed`.
    """

    def __enter__(self) -> "SpeedProbe":
        self.samples = [calibrate()]
        self._stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(_once())
        self._stolen += perf_counter() - t0

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.elapsed = end - self._t0 - self._stolen
        self.samples.append(calibrate())

    @property
    def speed(self) -> float:
        """Mean calibration time over the block."""
        return statistics.fmean(self.samples)
