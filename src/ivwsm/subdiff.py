"""Subgradient sets of convex interval-valued functions.

An interval vector G is a subgradient of F at xbar when the pairing of
(x - xbar) with G is dominated by F(x) gh- F(xbar) for every x.  For convex
F this is equivalent to the pairing of h with G being dominated by the
directional derivative of F at xbar along h, for every direction h; both
criteria are implemented and cross-checked.

Representations of the whole set:

* the canonical one is a support oracle - by the support identity the
  support value of the subgradient set along h *is* the directional
  derivative along h, so nothing beyond `dir_derivative` is needed;
* in one dimension the set is an explicit interval box assembled from the
  one-sided derivatives of the two endpoint functions;
* at points where the interval gradient exists the set is that singleton.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .intervals import ExtInterval, Interval, is_finite
from .ivectors import IVector, special_product
from .ivf import (
    GRAD_MATCH_RTOL,
    Ivf,
    NotGHDifferentiableError,
    RestrictedIvf,
    gh_gradient,
    one_sided_derivative,
)
from .support import IntervalBoxSet, OracleIVecSet

MEMBERSHIP_SLACK = 1e-9
DIRECTIONAL_SLACK = 1e-7

IvfLike = Union[Ivf, RestrictedIvf]


@dataclass(frozen=True)
class SingletonSubdiff:
    gradient: IVector

    @property
    def dimension(self) -> int:
        return self.gradient.dimension

    def support(self, d: Sequence[float]) -> Interval:
        return special_product(d, self.gradient)


@dataclass(frozen=True)
class ExplicitBoxSubdiff:
    box: IntervalBoxSet

    @property
    def dimension(self) -> int:
        return self.box.dimension

    def support(self, d: Sequence[float]) -> Interval:
        return self.box.support(d)


@dataclass(frozen=True)
class SupportOracleSubdiff:
    dimension: int
    support_fn: Callable[[np.ndarray], ExtInterval]

    def support(self, d: Sequence[float]) -> ExtInterval:
        return self.support_fn(np.asarray(d, dtype=float))

    def as_ivecset(self) -> OracleIVecSet:
        return OracleIVecSet(self.dimension, self.support_fn)


SubdiffRep = Union[SingletonSubdiff, ExplicitBoxSubdiff, SupportOracleSubdiff]


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    margin: float
    witness: Optional[np.ndarray] = None  # violating probe point or direction

    def __bool__(self) -> bool:
        return self.member


def _gh_diff_rows(
    f: IvfLike, xbar: np.ndarray, probes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of F(x) gh- F(xbar) per probe row; +inf rows auto-satisfy."""
    base = f.value(xbar)
    if not is_finite(base):
        raise ValueError("xbar must lie in the effective domain")
    lo = np.empty(len(probes))
    hi = np.empty(len(probes))
    for j, x in enumerate(probes):
        val = f.value(x)
        if is_finite(val):
            d1 = val.lo - base.lo
            d2 = val.hi - base.hi
            lo[j] = min(d1, d2)
            hi[j] = max(d1, d2)
        else:
            lo[j] = hi[j] = np.inf
    return lo, hi


def subgradient_margins(
    h: np.ndarray, g: IVector, rhs_lo: np.ndarray, rhs_hi: np.ndarray
) -> np.ndarray:
    """Margin of the defining subgradient inequality at each probe.

    ``h`` holds the probe offsets x - xbar as rows, and ``rhs_lo``/``rhs_hi``
    the endpoints of F(x) gh- F(xbar); each margin is the smaller endpoint
    gap to the special product of h with g.  For a degenerate g both
    pairings are the one product ``h @ g``.
    """
    s1 = h @ g.los
    if g.is_degenerate:
        lhs_lo = lhs_hi = s1
    else:
        s2 = h @ g.his
        lhs_lo = np.minimum(s1, s2)
        lhs_hi = np.maximum(s1, s2)
    return np.minimum(rhs_lo - lhs_lo, rhs_hi - lhs_hi)


def is_subgradient(
    f: IvfLike,
    xbar: Sequence[float],
    g: IVector,
    probe_points: Sequence[Sequence[float]],
    slack: float = MEMBERSHIP_SLACK,
    rhs: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> MembershipResult:
    """Defining membership test at every probe point.

    ``rhs`` may carry precomputed gh-difference endpoint arrays for the
    probe set (callers scanning many candidates against one grid reuse
    them); infinite rows pass automatically.
    """
    xbar = np.asarray(xbar, dtype=float)
    probes = np.asarray(probe_points, dtype=float)
    if probes.ndim == 1:
        probes = probes[:, None]
    if rhs is None:
        rhs = _gh_diff_rows(f, xbar, probes)
    margins = subgradient_margins(probes - xbar, g, *rhs)
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    if margin >= -slack:
        return MembershipResult(True, margin)
    return MembershipResult(False, margin, probes[worst])


def is_subgradient_directional(
    f: IvfLike,
    xbar: Sequence[float],
    g: IVector,
    directions: Sequence[Sequence[float]],
    slack: float = DIRECTIONAL_SLACK,
) -> MembershipResult:
    """Directional membership test: pairing with h versus the derivative."""
    xbar = np.asarray(xbar, dtype=float)
    directions = np.asarray(directions, dtype=float)
    deriv_lo, deriv_hi = f.dir_derivs(xbar, directions)
    worst_margin = np.inf
    worst_dir = None
    for d, lo, hi in zip(directions, deriv_lo, deriv_hi):
        if lo == np.inf:
            continue  # infinite right-hand side holds automatically
        lhs = special_product(d, g)
        margin = min(lo - lhs.lo, hi - lhs.hi)
        if margin < worst_margin:
            worst_margin = margin
            worst_dir = d
    if worst_margin >= -slack:
        return MembershipResult(True, float(worst_margin))
    return MembershipResult(False, float(worst_margin), worst_dir)


def subdiff_1d(f: Ivf, xbar: float | Sequence[float]) -> SubdiffRep:
    """Explicit subgradient set of a one-dimensional convex function.

    The one-sided derivatives (l, r) of each endpoint function give that
    endpoint's subgradient interval [l, r]; the interval-valued set is the
    box between [min(l_lo, l_hi), max(l_lo, l_hi)] and
    [min(r_lo, r_hi), max(r_lo, r_hi)].  When both endpoints are
    differentiable the box collapses and the singleton gradient is
    returned instead.
    """
    if f.dimension != 1:
        raise ValueError("subdiff_1d needs a one-dimensional function")
    x = np.atleast_1d(np.asarray(xbar, dtype=float))
    lo_b, hi_b = f.domain.lo[0], f.domain.hi[0]
    if not (lo_b < x[0] < hi_b):
        raise ValueError(f"xbar={x[0]} is not interior to the domain [{lo_b}, {hi_b}]")
    plus = np.array([1.0])
    minus = np.array([-1.0])
    right_lo = one_sided_derivative(f.lower, x, plus, f.domain)
    left_lo = -one_sided_derivative(f.lower, x, minus, f.domain)
    right_hi = one_sided_derivative(f.upper, x, plus, f.domain)
    left_hi = -one_sided_derivative(f.upper, x, minus, f.domain)
    smooth_lo = abs(right_lo - left_lo) <= GRAD_MATCH_RTOL * max(
        1.0, abs(right_lo), abs(left_lo)
    )
    smooth_hi = abs(right_hi - left_hi) <= GRAD_MATCH_RTOL * max(
        1.0, abs(right_hi), abs(left_hi)
    )
    if smooth_lo and smooth_hi:
        return SingletonSubdiff(
            IVector(
                np.array([min(right_lo, right_hi)]), np.array([max(right_lo, right_hi)])
            )
        )
    lower_corner = IVector(
        np.array([min(left_lo, left_hi)]), np.array([max(left_lo, left_hi)])
    )
    upper_corner = IVector(
        np.array([min(right_lo, right_hi)]), np.array([max(right_lo, right_hi)])
    )
    return ExplicitBoxSubdiff(IntervalBoxSet(lower_corner, upper_corner))


def subdiff_singleton(f: Ivf, xbar: Sequence[float]) -> SingletonSubdiff:
    """Singleton set at a differentiable point; errors direct the caller to
    the support-oracle representation otherwise."""
    try:
        return SingletonSubdiff(gh_gradient(f, xbar))
    except NotGHDifferentiableError as exc:
        raise NotGHDifferentiableError(
            f"{exc}; use subdiff_support for a representation at this point"
        ) from exc


def subdiff_support(f: IvfLike, xbar: Sequence[float]) -> SupportOracleSubdiff:
    """Canonical representation: the support value along d is the
    directional derivative along d."""
    xbar = np.asarray(xbar, dtype=float)
    return SupportOracleSubdiff(f.dimension, lambda d: f.dir_deriv(xbar, d))
