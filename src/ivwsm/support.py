"""Support functions of sets of interval vectors.

The support value of a set at a direction x is the least upper bound, under
the endpoint order, of the pairings of x with the set's members.  Three
representations are enough for everything downstream:

* ``FiniteIVecSet`` - an explicit list of interval vectors;
* ``IntervalBoxSet`` - all interval vectors between a lower and an upper
  corner under componentwise dominance (the shape subdifferential sets
  take in one dimension);
* ``OracleIVecSet`` - a callable producing support values directly, used
  for subdifferentials represented through directional derivatives.

Support values may be the PLUS_INF marker (oracle sets only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .geometry import require_vector
from .intervals import ExtInterval, Interval, is_finite, sup_family
from .ivectors import IVector, special_product, vnorm


@dataclass(frozen=True)
class FiniteIVecSet:
    members: tuple[IVector, ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("finite set must be nonempty")
        n = self.members[0].dimension
        if any(m.dimension != n for m in self.members):
            raise ValueError("members must share one dimension")

    @property
    def dimension(self) -> int:
        return self.members[0].dimension

    def support(self, x: Sequence[float]) -> Interval:
        x = require_vector(x, self.dimension, "d", "direction")
        return sup_family([special_product(x, m) for m in self.members])


@dataclass(frozen=True)
class IntervalBoxSet:
    """All interval vectors G with lower <= G <= upper componentwise."""

    lower: IVector
    upper: IVector

    def __post_init__(self):
        if self.lower.dimension != self.upper.dimension:
            raise ValueError("corner dimension mismatch")
        if np.any(self.lower.los > self.upper.los) or np.any(
            self.lower.his > self.upper.his
        ):
            raise ValueError("lower corner must dominate the upper corner")

    @property
    def dimension(self) -> int:
        return self.lower.dimension

    def support(self, x: Sequence[float]) -> Interval:
        """Closed-form support: maximize both candidate sums independently.

        Per component the maximizing member picks the upper corner's
        endpoints where x_i > 0 and the lower corner's where x_i < 0; both
        sums are attained by one feasible member, so reassembling them as
        an interval gives the exact least upper bound.
        """
        x = require_vector(x, self.dimension, "d", "direction")
        pos = x > 0
        s_lo = float(x @ np.where(pos, self.upper.los, self.lower.los))
        s_hi = float(x @ np.where(pos, self.upper.his, self.lower.his))
        return Interval(min(s_lo, s_hi), max(s_lo, s_hi))


@dataclass(frozen=True)
class OracleIVecSet:
    dimension: int
    support_fn: Callable[[np.ndarray], ExtInterval]

    def support(self, x: Sequence[float]) -> ExtInterval:
        """Support value along x; PLUS_INF is possible."""
        return self.support_fn(require_vector(x, self.dimension, "d", "direction"))


IVecSet = Union[FiniteIVecSet, IntervalBoxSet, OracleIVecSet]


@dataclass(frozen=True)
class BoundednessResult:
    bounded: bool
    bound: Optional[float] = None
    unbounded_direction: Optional[np.ndarray] = None


def boundedness_check(s: IVecSet) -> BoundednessResult:
    """Boundedness of the set, decided through its support values.

    Finite sets are bounded by construction and return an exact norm
    bound.  Other sets are probed over the signed basis: an infinite
    support value pins down an unbounded direction; otherwise a norm bound
    is assembled from the probes (each component's endpoints are bounded
    by the support values along +-e_i, exactly so for an interval box).
    """
    if isinstance(s, FiniteIVecSet):
        return BoundednessResult(True, max(vnorm(m) for m in s.members))
    per_axis = np.zeros(s.dimension)
    for i, d in enumerate(signed_basis(s.dimension)):
        val = s.support(d)
        if not is_finite(val):
            return BoundednessResult(False, None, d)
        per_axis[i // 2] = max(per_axis[i // 2], abs(val.hi))
    return BoundednessResult(True, float(per_axis.sum()))


def signed_basis(dimension: int) -> np.ndarray:
    """The rows e_1, -e_1, ..., e_n, -e_n (the -e_i rows hold -0.0 off
    their axis)."""
    eye = np.eye(dimension)
    return np.stack([eye, -eye], axis=1).reshape(-1, dimension)


def default_directions(dimension: int, seed: int, count: int) -> np.ndarray:
    """Signed basis vectors plus seeded uniform unit directions."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, dimension))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0] = 1.0
    return np.vstack([signed_basis(dimension), raw / norms[:, None]])
