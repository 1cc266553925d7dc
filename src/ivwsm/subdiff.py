"""Subgradient sets of convex interval-valued functions.

An interval vector G is a subgradient of F at xbar when the pairing of
(x - xbar) with G is dominated by F(x) gh- F(xbar) for every x.  For convex
F this is equivalent to the pairing of h with G being dominated by the
directional derivative of F at xbar along h, for every direction h; both
criteria are implemented and cross-checked, through one margin rule.

A subgradient set is a set of interval vectors, so it is returned as one
of the :mod:`ivwsm.support` set types:

* ``OracleIVecSet``, the canonical one - by the support identity the
  support value of the subgradient set along h *is* the directional
  derivative along h, so nothing beyond ``Ivf.dir_deriv`` is needed;
* ``IntervalBoxSet`` in one dimension, between the corners -F'(x; -1) and
  F'(x; +1), which that identity gives as support values along -1 and +1;
* ``FiniteIVecSet`` with one member, the interval gradient, only from
  ``subdiff_1d`` at a point where both endpoints are differentiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import IEEE
from .intervals import is_finite
from .ivectors import IVector
from .ivf import GRAD_MATCH_RTOL, Ivf, RestrictedIvf, endpoint_rows
from .support import FiniteIVecSet, IntervalBoxSet, OracleIVecSet

MEMBERSHIP_SLACK = 1e-9
DIRECTIONAL_SLACK = 1e-7

IvfLike = Union[Ivf, RestrictedIvf]


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    margin: float
    witness: Optional[np.ndarray] = None  # violating probe point or direction


def _gh_diff_rows(
    f: IvfLike, xbar: np.ndarray, probes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of F(x) gh- F(xbar) per probe row; +inf rows auto-satisfy.

    F is evaluated by one :func:`endpoint_rows` call over the probes where
    it is finite (for a restriction, those in the feasible set); the other
    rows are +inf.  A probe outside the domain of an ``Ivf`` raises the
    ``DomainError`` of :meth:`Ivf.value`, unless a probe before it fails
    first.
    """
    base = f.value(xbar)
    if not is_finite(base):
        raise ValueError("xbar must lie in the effective domain")
    if isinstance(f, RestrictedIvf):
        f, inside = f.base, f.feasible.contains(probes)
    else:
        inside = f.domain.contains(probes)
        if not inside.all():
            first_out = int(np.argmin(inside))
            endpoint_rows(f, probes[:first_out])  # an earlier probe fails first
            f.value(probes[first_out])  # raises DomainError
    lo, hi = np.full(len(probes), np.inf), np.full(len(probes), np.inf)
    val_lo, val_hi = endpoint_rows(f, probes[inside])
    d1, d2 = val_lo - base.lo, val_hi - base.hi
    # min/max(d1, d2) with Python's first-wins semantics
    lo[inside], hi[inside] = np.where(d2 < d1, d2, d1), np.where(d2 > d1, d2, d1)
    return lo, hi


@IEEE
def subgradient_margins(
    h: np.ndarray,
    g_los: np.ndarray,
    g_his: np.ndarray,
    rhs_lo: np.ndarray,
    rhs_hi: np.ndarray,
) -> np.ndarray:
    """Margin of the subgradient inequality at each row of ``h``.

    ``h`` holds the probe offsets x - xbar (or the directions) as rows,
    ``g_los``/``g_his`` the endpoint arrays of the candidate g, and
    ``rhs_lo``/``rhs_hi`` the endpoints of F(x) gh- F(xbar) (or of the
    directional derivative); each margin is the smaller endpoint gap to the
    special product of h with g.  A +inf right-hand side (both endpoints)
    gives a +inf margin.  For a degenerate g both pairings are the one
    product ``s = h @ g_los``, and the margin is ``rhs_lo - s``: callers
    pass ``rhs_lo <= rhs_hi``, and subtracting the same s keeps that order
    after rounding, so this equals ``min(rhs_lo - s, rhs_hi - s)`` bit for
    bit.  Products that overflow give -inf or NaN margins, which read as
    failures.
    """
    s1 = h @ g_los
    if g_los is g_his or np.array_equal(g_los, g_his):
        return rhs_lo - s1
    s2 = h @ g_his
    return np.minimum(rhs_lo - np.minimum(s1, s2), rhs_hi - np.maximum(s1, s2))


def _membership(margins: np.ndarray, rows: np.ndarray, slack: float) -> MembershipResult:
    """Verdict from the first worst margin; its row is the witness."""
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    if margin >= -slack:
        return MembershipResult(True, margin)
    return MembershipResult(False, margin, rows[worst])


def _candidate_point(f: IvfLike, xbar: Sequence[float], g: IVector) -> np.ndarray:
    if g.dimension != f.dimension:
        raise ValueError(f"g has dimension {g.dimension}, F has dimension {f.dimension}")
    return np.asarray(xbar, dtype=float)


def is_subgradient(
    f: IvfLike,
    xbar: Sequence[float],
    g: IVector,
    probe_points: Sequence[Sequence[float]],
    slack: float = MEMBERSHIP_SLACK,
) -> MembershipResult:
    """Defining membership test at every probe point; probes where F is
    infinite pass automatically."""
    xbar = _candidate_point(f, xbar, g)
    probes = np.asarray(probe_points, dtype=float)
    if probes.ndim == 1:
        probes = probes[:, None]
    rhs = _gh_diff_rows(f, xbar, probes)
    return _membership(subgradient_margins(probes - xbar, g.los, g.his, *rhs), probes, slack)


def is_subgradient_directional(
    f: IvfLike,
    xbar: Sequence[float],
    g: IVector,
    directions: Sequence[Sequence[float]],
) -> MembershipResult:
    """Directional membership test: pairing with h versus the derivative;
    directions leaving the feasible set pass automatically."""
    xbar = _candidate_point(f, xbar, g)
    directions = np.asarray(directions, dtype=float)
    deriv_lo, deriv_hi = f.dir_derivs(xbar, directions)
    margins = subgradient_margins(directions, g.los, g.his, deriv_lo, deriv_hi)
    return _membership(margins, directions, DIRECTIONAL_SLACK)


def subdiff_1d(f: Ivf, xbar: float | Sequence[float]) -> FiniteIVecSet | IntervalBoxSet:
    """Explicit subgradient set of a one-dimensional convex function.

    By the support identity the set is the box between the corners
    -F'(x; -1) (with its endpoints swapped, so lower not above upper) and
    F'(x; +1), one :func:`subdiff_support` call per side.  For convex endpoints
    the corners agree exactly when both endpoints are differentiable; then
    the box collapses and the singleton gradient is returned instead.
    Otherwise corners that cross (a concave kink) raise ValueError naming x.
    """
    if f.dimension != 1:
        raise ValueError("subdiff_1d needs a one-dimensional function")
    x = np.atleast_1d(np.asarray(xbar, dtype=float))
    lo_b, hi_b = f.domain.lo[0], f.domain.hi[0]
    if not (lo_b < x[0] < hi_b):
        raise ValueError(f"xbar={x[0]} is not interior to the domain [{lo_b}, {hi_b}]")
    # one support call per side, so a failure is that side's own
    up, down = map(subdiff_support(f, x).support, ([1.0], [-1.0]))
    upper = IVector([up.lo], [up.hi])  # F'(x; +1)
    lower = IVector([-down.hi], [-down.lo])  # -F'(x; -1), endpoints swapped
    if _agree(upper.los[0], lower.los[0]) and _agree(upper.his[0], lower.his[0]):
        return FiniteIVecSet((upper,))
    if lower.los[0] > upper.los[0] or lower.his[0] > upper.his[0]:
        raise ValueError(
            f"F is not convex at x={x[0]:.9g}: the subgradient corners cross, "
            f"-F'(x; -1) = [{lower.los[0]:.9g}, {lower.his[0]:.9g}] is not below "
            f"F'(x; +1) = [{upper.los[0]:.9g}, {upper.his[0]:.9g}]"
        )
    return IntervalBoxSet(lower, upper)


def _agree(a: float, b: float) -> bool:
    return abs(a - b) <= GRAD_MATCH_RTOL * max(1.0, abs(a), abs(b))


def subdiff_support(f: IvfLike, xbar: Sequence[float]) -> OracleIVecSet:
    """Canonical representation: the support value along d is the
    directional derivative along d, one ``f.dir_deriv`` call."""
    xbar = np.asarray(xbar, dtype=float)
    return OracleIVecSet(f.dimension, lambda d: f.dir_deriv(xbar, d))
