"""Interval-valued functions given by a pair of endpoint functions.

An objective here maps a point of a box domain to the interval
``[lower(x), upper(x)]``.  Convexity of such a function is equivalent to
convexity of both endpoint functions, which is what the sampled convexity
check probes.  One-sided directional derivatives of the endpoints exist
everywhere for convex endpoints; the interval-valued directional
derivative is the interval spanned by the two endpoint derivatives.

Numeric directional derivatives use three decreasing steps and first-order
extrapolation.  Two successive extrapolations must agree; disagreement is
reported as "nonsmooth-uncertain" rather than guessed through, since it
means a kink sits inside the probe range.

The kernels work on ``(m, n)`` arrays of points and directions:
:func:`endpoint_rows` and :func:`dir_derivatives` evaluate every row in one
call when the endpoints carry batched forms (expression objectives always
do), and loop over the rows otherwise.  The one-point functions are one-row
calls of the same kernels, so each numeric rule exists once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import parse
from .geometry import BoxSet, row_norms
from .intervals import PLUS_INF, ExtInterval, Interval
from .ivectors import IVector

Endpoint = Callable[[np.ndarray], float]
#: Batched endpoint: the values at each row of an (m, n) array of points.
RowEndpoint = Callable[[np.ndarray], np.ndarray]

#: Decreasing probe steps for one-sided difference quotients.
STEP_SCHEDULE = (1e-3, 1e-4, 1e-5)
#: Two successive extrapolated estimates must agree this tightly (relative).
AGREEMENT_RTOL = 1e-4
#: One-sided derivatives from both sides must agree this tightly (relative)
#: for a point to count as differentiable.
GRAD_MATCH_RTOL = 1e-5
#: Slack allowed between lower(x) and upper(x) before declaring a model error.
ENDPOINT_ORDER_TOL = 1e-9


class DomainError(ValueError):
    """Evaluation requested outside the declared domain."""


class ModelError(ValueError):
    """The endpoint functions crossed: lower(x) > upper(x)."""


class InfeasibleDirectionError(RuntimeError):
    """x + t*d leaves the domain for every small t > 0."""


class NonsmoothUncertainError(RuntimeError):
    """Difference-quotient extrapolations failed to settle."""


class NotGHDifferentiableError(RuntimeError):
    """One-sided derivatives disagree at the requested point."""


@dataclass
class ConvexityCounterexample:
    x1: np.ndarray
    x2: np.ndarray
    lam: float
    endpoint: str  # 'lower' or 'upper'
    violation: float


@dataclass(frozen=True)
class Ivf:
    """Interval-valued function [lower, upper] over a box domain.

    ``lower``/``upper`` are scalar callables; use :meth:`from_expressions`
    to build them from expression text.  An endpoint with a ``rows``
    attribute (a parsed :class:`ExprAst` has one) is evaluated at every row
    of an (m, n) array in one call; other endpoints are called once per
    row.  ``analytic_dir_deriv``, when supplied, short-circuits the numeric
    directional derivative.
    """

    dimension: int
    lower: Endpoint
    upper: Endpoint
    domain: BoxSet
    analytic_dir_deriv: Optional[Callable[[np.ndarray, np.ndarray], Interval]] = None
    lower_source: Optional[str] = None
    upper_source: Optional[str] = None

    def __post_init__(self):
        if self.domain.dimension != self.dimension:
            raise ValueError("domain dimension does not match the declared dimension")

    @classmethod
    def from_expressions(
        cls,
        lower_source: str,
        upper_source: str,
        domain: BoxSet,
        analytic_dir_deriv=None,
    ) -> "Ivf":
        n = domain.dimension
        return cls(
            dimension=n,
            lower=parse(lower_source, n),
            upper=parse(upper_source, n),
            domain=domain,
            analytic_dir_deriv=analytic_dir_deriv,
            lower_source=lower_source,
            upper_source=upper_source,
        )

    def value(self, x: Sequence[float]) -> Interval:
        return eval_ivf(self, x)

    def dir_deriv(self, x: Sequence[float], d: Sequence[float]) -> Interval:
        return dir_derivative(self, x, d)

    def dir_derivs(self, x: Sequence[float], dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of :meth:`dir_deriv` at x along each row of dirs."""
        return dir_derivatives(self, x, dirs)


@dataclass(frozen=True)
class RestrictedIvf:
    """Feasible-set restriction: the base value inside, plus-infinity outside."""

    base: Ivf
    feasible: BoxSet

    @property
    def dimension(self) -> int:
        return self.base.dimension

    @property
    def domain(self) -> BoxSet:
        return self.base.domain

    def value(self, x: Sequence[float]) -> ExtInterval:
        if not self.feasible.contains(x):
            return PLUS_INF
        return self.base.value(x)

    def dir_deriv(self, x: Sequence[float], d: Sequence[float]) -> ExtInterval:
        """Directional derivative of the restriction at a feasible point.

        Along directions leaving the feasible box the quotient is +infinity
        for every small step, so the result is the PLUS_INF marker; along
        tangent directions the restriction is locally the base function.
        """
        if not self.feasible.contains(x):
            raise DomainError(f"{np.asarray(x)} is outside the feasible set")
        if not self.feasible.tangent_cone(x).contains(d):
            return PLUS_INF
        return self.base.dir_deriv(x, d)

    def dir_derivs(self, x: Sequence[float], dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of :meth:`dir_deriv` at x along each row of dirs;
        both endpoints are +inf along rows that leave the feasible set."""
        if not self.feasible.contains(x):
            raise DomainError(f"{np.asarray(x)} is outside the feasible set")
        dirs = np.asarray(dirs, dtype=float)
        inside = self.feasible.tangent_cone(x).contains(dirs)
        lo = np.full(len(dirs), np.inf)
        hi = np.full(len(dirs), np.inf)
        lo[inside], hi[inside] = dir_derivatives(self.base, x, dirs[inside])
        return lo, hi


def _per_row(g: Endpoint) -> RowEndpoint:
    return lambda points: np.array([float(g(x)) for x in points], dtype=float)


def _rows(g: Endpoint) -> RowEndpoint:
    rows = getattr(g, "rows", None)
    return rows if rows is not None else _per_row(g)


def _row_endpoints(f: Ivf) -> tuple[RowEndpoint, RowEndpoint]:
    return _rows(f.lower), _rows(f.upper)


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True entry, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def endpoint_rows(f: Ivf, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lower and upper at each row of an (m, n) array of points.

    A non-finite value raises ValueError naming its point, as the
    ``Interval`` constructor does for one point.
    """
    points = np.asarray(points, dtype=float)
    lower, upper = _row_endpoints(f)
    values = lower(points), upper(points)
    for name, vals in zip(("lower", "upper"), values):
        i = _first(~np.isfinite(vals))
        if i is not None:
            raise ValueError(f"{name}({points[i]}) = {vals[i]} is not finite")
    return values


def _value_rows(f: Ivf, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints of F at each row, validating their order."""
    lo, hi = endpoint_rows(f, points)
    i = _first(lo > hi + ENDPOINT_ORDER_TOL)
    if i is not None:
        x = points[i]
        raise ModelError(f"lower({x}) = {lo[i]} exceeds upper({x}) = {hi[i]}")
    tied = lo > hi  # round-off at coinciding endpoints
    mid = 0.5 * (lo + hi)
    return np.where(tied, mid, lo), np.where(tied, mid, hi)


def eval_ivf(f: Ivf, x: Sequence[float]) -> Interval:
    """[lower(x), upper(x)], validating domain membership and endpoint order."""
    x = np.asarray(x, dtype=float)
    if not f.domain.contains(x):
        raise DomainError(f"{x} is outside the domain box")
    lo, hi = _value_rows(f, x[None, :])
    return Interval(lo[0], hi[0])


def _exit_steps(domain: BoxSet, points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Per row, the largest t with x + t*d still inside the domain box (may be inf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        to_hi = np.where(dirs > 0, (domain.hi - points) / dirs, np.inf)
        to_lo = np.where(dirs < 0, (domain.lo - points) / dirs, np.inf)
    return np.minimum(to_hi, to_lo).min(axis=1)


def _richardson(qa, qb, ta, tb):
    return (ta * qb - tb * qa) / (ta - tb)


def _one_sided_rows(
    g: RowEndpoint, points: np.ndarray, dirs: np.ndarray, domain: BoxSet
) -> np.ndarray:
    """Right directional derivative of g at each row pair of points and dirs.

    Evaluates (g(x + t d) - g(x)) / t on three decreasing steps, removes the
    first-order error by extrapolation, and demands the last two
    extrapolations agree.  Steps shrink proportionally when the domain box
    is exited closer than the largest scheduled step.
    """
    t_exit = _exit_steps(domain, points, dirs)
    i = _first(t_exit <= 0)
    if i is not None:
        raise InfeasibleDirectionError(
            f"no small-t feasibility: the direction {dirs[i]} exits the domain "
            f"immediately at {points[i]}"
        )
    ratio = 0.5 * t_exit / STEP_SCHEDULE[0]
    scale = np.where(ratio < 1.0, ratio, 1.0)
    steps = [t * scale for t in STEP_SCHEDULE]
    g0 = g(points)
    quotients = [(g(points + t[:, None] * dirs) - g0) / t for t in steps]
    e1 = _richardson(quotients[0], quotients[1], steps[0], steps[1])
    e2 = _richardson(quotients[1], quotients[2], steps[1], steps[2])
    # max(1.0, |e1|, |e2|) with Python's first-wins semantics
    size = np.where(np.abs(e1) > 1.0, np.abs(e1), 1.0)
    size = np.where(np.abs(e2) > size, np.abs(e2), size)
    i = _first(np.abs(e1 - e2) > AGREEMENT_RTOL * size)
    if i is not None:
        raise NonsmoothUncertainError(
            f"nonsmooth-uncertain at x={points[i]} along d={dirs[i]}: "
            f"extrapolations {e1[i]} and {e2[i]} disagree"
        )
    i = _first(~np.isfinite(e2))
    if i is not None:
        raise ValueError(
            f"directional derivative {e2[i]} at x={points[i]} along d={dirs[i]} "
            "is not finite"
        )
    return e2


def one_sided_derivative(
    g: Endpoint, x: Sequence[float], d: Sequence[float], domain: BoxSet
) -> float:
    """Right directional derivative of a scalar function along d at x
    (a one-row call of the batched difference-quotient rules)."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    return float(_one_sided_rows(_per_row(g), x[None, :], d[None, :], domain)[0])


def dir_derivatives(
    f: Ivf, points: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interval directional derivative at each row pair of points and dirs.

    ``points`` and ``dirs`` broadcast against each other, so one point with
    (k, n) directions works.  Returns the lower and upper endpoint arrays:
    the analytic derivative when supplied (one call per row), otherwise the
    span of the two endpoint derivatives.
    """
    points, dirs = np.broadcast_arrays(
        np.asarray(points, dtype=float), np.asarray(dirs, dtype=float)
    )
    if f.analytic_dir_deriv is not None:
        values = [f.analytic_dir_deriv(x, d) for x, d in zip(points, dirs)]
        return (
            np.array([v.lo for v in values], dtype=float),
            np.array([v.hi for v in values], dtype=float),
        )
    lower, upper = _row_endpoints(f)
    d_lo = _one_sided_rows(lower, points, dirs, f.domain)
    d_hi = _one_sided_rows(upper, points, dirs, f.domain)
    # min/max(d_lo, d_hi) with Python's first-wins semantics
    return np.where(d_hi < d_lo, d_hi, d_lo), np.where(d_hi > d_lo, d_hi, d_lo)


def dir_derivative(f: Ivf, x: Sequence[float], d: Sequence[float]) -> Interval:
    """Interval directional derivative: span of the endpoint derivatives
    (a one-row call of :func:`dir_derivatives`)."""
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if f.analytic_dir_deriv is not None:
        return f.analytic_dir_deriv(x, d)
    lo, hi = dir_derivatives(f, x[None, :], d[None, :])
    return Interval(lo[0], hi[0])


def gh_gradient(f: Ivf, x: Sequence[float]) -> IVector:
    """Componentwise interval gradient at a differentiable point.

    Each axis needs one-sided derivatives from both sides to agree for both
    endpoint functions; component i spans the two partials.
    """
    x = np.asarray(x, dtype=float)
    partial_lo = np.empty(f.dimension)
    partial_hi = np.empty(f.dimension)
    for i in range(f.dimension):
        e = np.zeros(f.dimension)
        e[i] = 1.0
        for g, out in ((f.lower, partial_lo), (f.upper, partial_hi)):
            try:
                d_plus = one_sided_derivative(g, x, e, f.domain)
                d_minus = one_sided_derivative(g, x, -e, f.domain)
            except (InfeasibleDirectionError, NonsmoothUncertainError) as exc:
                raise NotGHDifferentiableError(
                    f"not gH-differentiable here: axis {i + 1}: {exc}"
                ) from exc
            # left derivative is -d_minus; differentiability means it meets
            # the right derivative
            if abs(d_plus + d_minus) > GRAD_MATCH_RTOL * max(
                1.0, abs(d_plus), abs(d_minus)
            ):
                raise NotGHDifferentiableError(
                    f"not gH-differentiable here: axis {i + 1} one-sided "
                    f"derivatives {d_plus} vs {-d_minus}"
                )
            out[i] = 0.5 * (d_plus - d_minus)
    return IVector(
        np.minimum(partial_lo, partial_hi), np.maximum(partial_lo, partial_hi)
    )


def convexity_check(
    f: Ivf, samples: int, seed: int, tol: float = 1e-9
) -> Optional[ConvexityCounterexample]:
    """Sampled convexity of both endpoints; None means no violation found.

    Draws random (x1, x2, lambda) triples from domain x domain x [0, 1] and
    tests the chord inequality for each endpoint function; the first
    violation in draw order (lower before upper) is returned.
    """
    n = f.dimension
    lo, span = f.domain.lo, f.domain.hi - f.domain.lo
    # one row per triple: the same stream as drawing x1, x2, lambda in turn
    draws = np.random.default_rng(seed).random((samples, 2 * n + 1))
    x1 = lo + span * draws[:, :n]
    x2 = lo + span * draws[:, n : 2 * n]
    lam = draws[:, 2 * n]
    mid = lam[:, None] * x1 + (1 - lam)[:, None] * x2
    values = [endpoint_rows(f, p) for p in (x1, x2, mid)]
    gaps = np.stack(  # (samples, 2): lower, upper
        [gm - (lam * g1 + (1 - lam) * g2) for g1, g2, gm in zip(*values)], axis=1
    )
    k = _first(gaps.ravel() > tol)
    if k is None:
        return None
    i, j = divmod(k, 2)
    return ConvexityCounterexample(
        x1[i].copy(), x2[i].copy(), float(lam[i]), ("lower", "upper")[j], float(gaps[i, j])
    )


def restricted(f: Ivf, s: BoxSet) -> RestrictedIvf:
    """Restrict f to a sub-box of its domain (+infinity outside)."""
    if not f.domain.contains_box(s):
        raise ValueError("the feasible set is not contained in the domain")
    return RestrictedIvf(f, s)


def lipschitz_estimate(f: Ivf, samples: int, seed: int) -> float:
    """Max sampled ratio ||F(x) gh- F(y)|| / ||x - y||.

    A lower bound on any valid Lipschitz constant of the function.
    """
    n = f.dimension
    lo, span = f.domain.lo, f.domain.hi - f.domain.lo
    # one row per pair: the same stream as drawing x, y in turn
    draws = np.random.default_rng(seed).random((samples, 2 * n))
    pairs = lo + span * draws.reshape(samples, 2, n)  # rows x, y
    gaps = row_norms(pairs[:, 0] - pairs[:, 1])
    apart = gaps >= 1e-12
    pairs, gaps = pairs[apart], gaps[apart]
    # evaluated in draw order x0, y0, x1, ..., so errors name the first point
    lo_vals, hi_vals = _value_rows(f, pairs.reshape(-1, n))
    d_lo = lo_vals[0::2] - lo_vals[1::2]
    d_hi = hi_vals[0::2] - hi_vals[1::2]
    ratios = np.maximum(np.abs(d_lo), np.abs(d_hi)) / gaps
    return float(ratios.max(initial=0.0))
