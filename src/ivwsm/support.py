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

Support values may be the PLUS_INF marker (oracle sets only); dominance
checks treat an infinite right-hand side as automatically satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .geometry import OrthantCone
from .intervals import (
    PLUS_INF,
    ExtInterval,
    Interval,
    ext_leq,
    is_finite,
    sup_family,
)
from .ivectors import IVector, special_product, vnorm

DIRECTION_SLACK = 1e-9


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
        x = np.asarray(x, dtype=float)
        if len(x) != self.dimension:
            raise ValueError("direction dimension mismatch")
        pos = x > 0
        s_lo = float(x @ np.where(pos, self.upper.los, self.lower.los))
        s_hi = float(x @ np.where(pos, self.upper.his, self.lower.his))
        return Interval(min(s_lo, s_hi), max(s_lo, s_hi))

    def contains_vector(self, g: IVector, slack: float = DIRECTION_SLACK) -> bool:
        return bool(
            np.all(self.lower.los <= g.los + slack)
            and np.all(self.lower.his <= g.his + slack)
            and np.all(g.los <= self.upper.los + slack)
            and np.all(g.his <= self.upper.his + slack)
        )

    def contains_point(self, p: Sequence[float], slack: float = DIRECTION_SLACK) -> bool:
        """Membership of a real vector embedded as a degenerate member."""
        return self.contains_vector(IVector.degenerate(p), slack)


@dataclass(frozen=True)
class OracleIVecSet:
    dimension: int
    support_fn: Callable[[np.ndarray], ExtInterval]

    def support(self, x: Sequence[float]) -> ExtInterval:
        """Support value along x; PLUS_INF is possible."""
        x = np.asarray(x, dtype=float)
        if len(x) != self.dimension:
            raise ValueError(f"direction has length {len(x)}, set dimension {self.dimension}")
        return self.support_fn(x)


IVecSet = Union[FiniteIVecSet, IntervalBoxSet, OracleIVecSet]


def support_dominates(
    s1: IVecSet,
    s2: IVecSet,
    directions: Sequence[Sequence[float]],
    slack: float = DIRECTION_SLACK,
) -> Optional[np.ndarray]:
    """Check support(s1) <= support(s2) on each direction.

    Returns None on success, otherwise the first failing direction.
    """
    if s1.dimension != s2.dimension:
        raise ValueError("set dimension mismatch")
    for d in directions:
        d = np.asarray(d, dtype=float)
        if not ext_leq(s1.support(d), s2.support(d), slack):
            return d
    return None


@dataclass(frozen=True)
class InclusionResult:
    included: bool
    exact: bool
    counter_direction: Optional[np.ndarray] = None

    def __str__(self) -> str:
        if not self.included:
            return f"not included (direction {self.counter_direction})"
        return "included" if self.exact else "included (sampled)"


def inclusion_test(
    points: Sequence[Sequence[float]],
    q: IVecSet,
    directions: Sequence[Sequence[float]],
    slack: float = DIRECTION_SLACK,
) -> InclusionResult:
    """Test whether each real vector lies in the closed convex set q.

    Points are embedded as degenerate interval vectors.  Against an
    interval box the componentwise test is exact; otherwise support values
    are compared over the sampled directions only, and the verdict says so.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    if len(pts) == 0:
        raise ValueError("inclusion_test needs a nonempty point set")
    if isinstance(q, IntervalBoxSet):
        for p in pts:
            if not q.contains_point(p, slack):
                # report a separating coordinate direction for the witness
                d = _separating_direction(p, q, slack)
                return InclusionResult(False, True, d)
        return InclusionResult(True, True)
    p_set = FiniteIVecSet(tuple(IVector.degenerate(p) for p in pts))
    counter = support_dominates(p_set, q, directions, slack)
    if counter is not None:
        return InclusionResult(False, False, counter)
    return InclusionResult(True, False)


def _separating_direction(p: np.ndarray, q: IntervalBoxSet, slack: float) -> np.ndarray:
    d = np.zeros(len(p))
    for i in range(len(p)):
        if p[i] > q.upper.los[i] + slack:
            d[i] = 1.0
            return d
        if p[i] < q.lower.his[i] - slack:
            d[i] = -1.0
            return d
    return d


@dataclass(frozen=True)
class BoundednessResult:
    bounded: bool
    bound: Optional[float] = None
    unbounded_direction: Optional[np.ndarray] = None


def boundedness_check(
    s: IVecSet, directions: Sequence[Sequence[float]] = ()
) -> BoundednessResult:
    """Boundedness of the set, decided through its support values.

    Finite sets and interval boxes are bounded by construction and return
    an exact norm bound.  Oracle sets are probed over the signed basis plus
    any supplied directions: an infinite support value pins down an
    unbounded direction; otherwise a norm bound is assembled from the basis
    probes (each component's endpoints are bounded by the support values
    along +-e_i).
    """
    if isinstance(s, FiniteIVecSet):
        return BoundednessResult(True, max(vnorm(m) for m in s.members))
    if isinstance(s, IntervalBoxSet):
        bound = float(
            np.maximum(
                np.maximum(np.abs(s.lower.los), np.abs(s.lower.his)),
                np.maximum(np.abs(s.upper.los), np.abs(s.upper.his)),
            ).sum()
        )
        return BoundednessResult(True, bound)
    n = s.dimension
    basis = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        basis.extend([e, -e])
    per_axis = np.zeros(n)
    for d in list(basis) + [np.asarray(d, dtype=float) for d in directions]:
        val = s.support(d)
        if not is_finite(val):
            return BoundednessResult(False, None, d)
        axis = int(np.argmax(np.abs(d)))
        if np.count_nonzero(d) == 1:
            per_axis[axis] = max(per_axis[axis], abs(val.hi))
    return BoundednessResult(True, float(per_axis.sum()))


def augment_with_polar_cone(q: IVecSet, k: OrthantCone) -> OracleIVecSet:
    """Oracle for the sum of q with the polar cone of k (as degenerate rays).

    The polar cone's own support value is zero inside k and +infinity
    outside, so the augmented support is q's on k and infinite elsewhere.
    """
    if q.dimension != k.dimension:
        raise ValueError("dimension mismatch")

    def fn(d: np.ndarray) -> ExtInterval:
        if k.contains(d, tol=1e-12):
            return q.support(d)
        return PLUS_INF

    return OracleIVecSet(q.dimension, fn)


def default_directions(dimension: int, seed: int, count: int) -> np.ndarray:
    """Signed basis vectors plus seeded uniform unit directions."""
    rows = []
    for i in range(dimension):
        e = np.zeros(dimension)
        e[i] = 1.0
        rows.extend([e.copy(), -e])
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(count, dimension))
    norms = np.linalg.norm(raw, axis=1)
    norms[norms == 0] = 1.0
    rows.extend(raw / norms[:, None])
    return np.array(rows)
