"""Vectors of intervals and their componentwise algebra.

An interval vector is a fixed-length tuple of closed intervals, stored as a
pair of endpoint arrays for cheap vectorized work.  The special product
pairs a real vector with an interval vector and yields a single interval;
on degenerate interval vectors it collapses to the ordinary inner product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .intervals import Interval


def _as_float_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class IVector:
    """Element of the n-fold product of intervals, n >= 1."""

    los: np.ndarray
    his: np.ndarray

    def __post_init__(self):
        los = _as_float_array(self.los).copy()
        his = _as_float_array(self.his).copy()
        if los.shape != his.shape or len(los) == 0:
            raise ValueError("endpoint arrays must be equal-length and nonempty")
        if not (np.isfinite(los).all() and np.isfinite(his).all()):
            raise ValueError("interval vector endpoints must be finite")
        if np.any(los > his):
            raise ValueError("component endpoints out of order")
        los.flags.writeable = False
        his.flags.writeable = False
        object.__setattr__(self, "los", los)
        object.__setattr__(self, "his", his)

    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "IVector":
        items = list(intervals)
        return cls(np.array([a.lo for a in items]), np.array([a.hi for a in items]))

    @classmethod
    def degenerate(cls, values: Sequence[float]) -> "IVector":
        arr = _as_float_array(values)
        return cls(arr, arr.copy())

    @classmethod
    def zeros(cls, n: int) -> "IVector":
        return cls(np.zeros(n), np.zeros(n))

    @property
    def dimension(self) -> int:
        return len(self.los)

    def __len__(self) -> int:
        return len(self.los)

    def component(self, i: int) -> Interval:
        return Interval(self.los[i], self.his[i])

    @property
    def components(self) -> tuple[Interval, ...]:
        return tuple(self.component(i) for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, IVector):
            return NotImplemented
        return np.array_equal(self.los, other.los) and np.array_equal(self.his, other.his)

    def __repr__(self) -> str:
        parts = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.los, self.his))
        return f"({parts})"


def vstar(a: IVector, b: IVector, op: Callable[[Interval, Interval], Interval]) -> IVector:
    """Componentwise combination of two equal-length interval vectors by an
    interval operation such as ``add``, ``minkowski_sub`` or
    ``gh_difference``."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return IVector.from_intervals(op(a.component(i), b.component(i)) for i in range(len(a)))


def special_product(x: Sequence[float], a: IVector) -> Interval:
    """Interval-valued pairing of a real vector with an interval vector.

    Both candidate sums (against the lower endpoints and against the upper
    endpoints) are formed; the result is the interval between them.  On a
    degenerate interval vector this is the ordinary inner product.
    """
    x = _as_float_array(x)
    if len(x) != len(a):
        raise ValueError(f"length mismatch: {len(x)} vs {len(a)}")
    s_lo = float(x @ a.los)
    s_hi = float(x @ a.his)
    return Interval(min(s_lo, s_hi), max(s_lo, s_hi))


def vnorm(a: IVector) -> float:
    """Sum of component norms: zero exactly for the all-zero vector."""
    return float(np.maximum(np.abs(a.los), np.abs(a.his)).sum())
