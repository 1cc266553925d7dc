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
do), and loop over the rows otherwise.  Every value of F comes from
:func:`endpoint_rows`, the one home of the rules that make it an interval
(finite endpoints no larger than :data:`ENDPOINT_MAX`, lower not above
upper), and every derivative from :func:`dir_derivatives`, the one home
of the analytic route; the 1-d subgradient set and the CLI's support
values read it through :func:`point_block_derivatives`.  The one-point
methods :meth:`Ivf.value` and :meth:`Ivf.dir_deriv` are one-row calls of
these kernels, and :meth:`RestrictedIvf.dir_deriv` a one-row call of
:meth:`RestrictedIvf.dir_derivs`, which gives +inf along directions that
leave the feasible set; the checkers' table ``wsm._Context.deriv_lo``
applies that rule once per face of the candidate grid, and a test holds
its rows equal to ``dir_derivs``.  A derivative call takes at most
:data:`ROW_BLOCK` rows at a time, and :func:`point_block_derivatives`
groups (point, directions) pairs into blocks of that size, so the
temporary arrays of one call stay bounded.

A block costs a fixed number of NumPy calls, so their per-call and per-row
overheads are its cost: the numeric route works in place and takes row
minima one column at a time, keeping the plain formulas' bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import parse
from .geometry import BoxSet, row_norms
from .intervals import PLUS_INF, ExtInterval, Interval

Endpoint = Callable[[np.ndarray], float]
#: Batched endpoint: the values at each row of an (m, n) array of points, in
#: a new float array (the numeric derivative writes its quotients into it).
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
#: Largest endpoint magnitude :func:`endpoint_rows` accepts, so that the
#: difference of any two endpoint values is finite.
ENDPOINT_MAX = np.finfo(float).max / 2
#: Chord-inequality slack of the sampled convexity check.
CONVEXITY_TOL = 1e-9
#: Most (point, direction) rows one batched derivative kernel call takes;
#: longer calls run block by block.
ROW_BLOCK = 2048


class DomainError(ValueError):
    """Evaluation requested outside the declared domain."""


class ModelError(ValueError):
    """The endpoint functions crossed: lower(x) > upper(x)."""


class InfeasibleDirectionError(ValueError):
    """x + t*d leaves the domain for every small t > 0."""


class NonsmoothUncertainError(ValueError):
    """Difference-quotient extrapolations failed to settle."""


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
    row.  ``analytic_dir_deriv``, when supplied, replaces the numeric
    directional derivative (:func:`dir_derivatives`).
    """

    dimension: int
    lower: Endpoint
    upper: Endpoint
    domain: BoxSet
    analytic_dir_deriv: Optional[Callable[[np.ndarray, np.ndarray], Interval]] = None

    def __post_init__(self):
        if self.domain.dimension != self.dimension:
            raise ValueError("domain dimension does not match the declared dimension")

    @classmethod
    def from_expressions(cls, lower_source: str, upper_source: str, domain: BoxSet) -> "Ivf":
        n = domain.dimension
        return cls(n, parse(lower_source, n), parse(upper_source, n), domain)

    def value(self, x: Sequence[float]) -> Interval:
        """[lower(x), upper(x)] at a point of the domain (a one-row call of
        :func:`endpoint_rows`)."""
        x = np.asarray(x, dtype=float)
        if not self.domain.contains(x):
            raise DomainError(f"{x} is outside the domain box")
        lo, hi = endpoint_rows(self, x[None, :])
        return Interval(lo[0], hi[0])

    def dir_deriv(self, x: Sequence[float], d: Sequence[float]) -> Interval:
        """Interval directional derivative: the analytic one when supplied,
        else the span of the endpoint derivatives (a one-row call of
        :func:`dir_derivatives`)."""
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        lo, hi = dir_derivatives(self, x[None, :], d[None, :])
        return Interval(lo[0], hi[0])

    def dir_derivs(self, x: Sequence[float], dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of :meth:`dir_deriv` at x along each row of dirs."""
        return dir_derivatives(self, x, dirs)


@dataclass(frozen=True)
class RestrictedIvf:
    """Feasible-set restriction to a sub-box of the domain: the base value
    inside, plus-infinity outside.  Derivatives are taken one point at a
    time; the checkers' table over many points is ``wsm._Context.deriv_lo``."""

    base: Ivf
    feasible: BoxSet

    def __post_init__(self):
        if not self.base.domain.contains_box(self.feasible):
            raise ValueError("the feasible set is not contained in the domain")

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
        """Directional derivative of the restriction at a feasible point:
        the PLUS_INF marker along a direction leaving the feasible box (a
        one-row call of :meth:`dir_derivs`)."""
        lo, hi = self.dir_derivs(x, np.asarray(d, dtype=float)[None, :])
        return PLUS_INF if lo[0] == np.inf else Interval(lo[0], hi[0])

    def dir_derivs(self, x: Sequence[float], dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of the directional derivative at a feasible point
        x along each row of dirs: +inf along a row leaving the feasible box
        (the quotient is +inf for every small step), elsewhere the base
        function's, which the restriction equals near x."""
        x = np.asarray(x, dtype=float)
        dirs = np.asarray(dirs, dtype=float)
        if not self.feasible.contains(x):
            raise DomainError(f"{x} is outside the feasible set")
        inside = self.feasible.tangent_cone(x).contains(dirs)
        lo, hi = np.full(len(dirs), np.inf), np.full(len(dirs), np.inf)
        lo[inside], hi[inside] = dir_derivatives(self.base, x, dirs[inside])
        return lo, hi


def _per_row(g: Endpoint) -> RowEndpoint:
    return lambda points: np.array([float(g(x)) for x in points], dtype=float)


def _rows(g: Endpoint) -> RowEndpoint:
    rows = getattr(g, "rows", None)
    return rows if rows is not None else _per_row(g)


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True entry, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def endpoint_rows(f: Ivf, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lower and upper at each row of an (m, n) array of points.

    A non-finite value raises ValueError naming its point, as the
    ``Interval`` constructor does for one point, and so, after those, does
    a value beyond :data:`ENDPOINT_MAX` in magnitude, whose differences
    with other values could overflow; lower above upper by more than
    :data:`ENDPOINT_ORDER_TOL` raises ModelError naming its point, and a
    smaller crossing (round-off at coinciding endpoints) gives both
    endpoints the midpoint.
    """
    points = np.asarray(points, dtype=float)
    lo, hi = _rows(f.lower)(points), _rows(f.upper)(points)
    # NaN, inf and a value past ENDPOINT_MAX all fail one test, and then
    # every non-finite value is reported before one that is only too large
    if not ((np.abs(lo) <= ENDPOINT_MAX).all() and (np.abs(hi) <= ENDPOINT_MAX).all()):
        for name, vals in (("lower", lo), ("upper", hi)):
            i = _first(~np.isfinite(vals))
            if i is not None:
                raise ValueError(f"{name}({points[i]}) = {vals[i]} is not finite")
        for name, vals in (("lower", lo), ("upper", hi)):
            i = _first(np.abs(vals) > ENDPOINT_MAX)
            if i is not None:
                raise ValueError(
                    f"{name}({points[i]}) = {vals[i]} exceeds {ENDPOINT_MAX:.9g} in "
                    "magnitude, where differences of endpoint values overflow"
                )
    i = _first(lo > hi + ENDPOINT_ORDER_TOL)
    if i is not None:
        x = points[i]
        raise ModelError(f"lower({x}) = {lo[i]} exceeds upper({x}) = {hi[i]}")
    tied = lo > hi
    if tied.any():
        mid = 0.5 * (lo + hi)
        lo, hi = np.where(tied, mid, lo), np.where(tied, mid, hi)
    return lo, hi


def _step_scale(domain: BoxSet, points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The factor, per row pair of points and dirs, on the steps of
    :data:`STEP_SCHEDULE`: below 1 where x + t*d leaves the domain box
    closer than twice the largest step."""
    # per entry, the t at which x + t*d meets the bound it heads for
    t_exit = np.where(dirs > 0, domain.hi, domain.lo)
    t_exit -= points
    with np.errstate(divide="ignore", invalid="ignore"):
        t_exit /= dirs
    t_exit[~((dirs > 0) | (dirs < 0))] = np.inf
    # the row minimum by columns (NumPy reduces a short last axis row by
    # row); a row with a NaN coordinate is NaN either way
    columns = iter(t_exit.T)
    t_min = next(columns).copy()
    for column in columns:
        np.minimum(t_min, column, out=t_min)
    i = _first(t_min <= 0)
    if i is not None:
        raise InfeasibleDirectionError(
            f"no small-t feasibility: the direction {dirs[i]} exits the domain "
            f"immediately at {points[i]}"
        )
    t_min *= 0.5
    t_min /= STEP_SCHEDULE[0]
    # min(ratio, 1.0), and 1.0 for NaN (the ratio is positive)
    return np.fmin(t_min, 1.0, out=t_min)


def _quotient(g: RowEndpoint, points, dirs, g0, t: float, scale) -> np.ndarray:
    """(g(x + h*d) - g(x)) / h per row pair, h = t * scale, in the array g
    returns; x + h*d takes one (m, n) temporary, h is not kept."""
    moved = (t * scale)[:, None] * dirs
    moved += points
    q = g(moved)
    q -= g0
    q /= t * scale
    return q


def _richardson(qa, qb, ta, tb):
    e = ta * qb
    e -= tb * qa
    e /= ta - tb
    return e


def _one_sided_rows(
    g: RowEndpoint, points: np.ndarray, dirs: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Right directional derivative of g at each row pair of points and dirs.

    Evaluates (g(x + t d) - g(x)) / t on the three decreasing steps
    ``t * scale`` for t in :data:`STEP_SCHEDULE` (:func:`_step_scale`),
    removes the first-order error by extrapolation, and demands the last
    two extrapolations agree.  Each step array is formed where it is used
    rather than kept, and the arithmetic runs in place, which bounds the
    temporaries of a block.
    """
    g0 = g(points)
    t0, t1, t2 = STEP_SCHEDULE
    # quotients that overflow give inf or NaN extrapolations, which raise
    # below naming the row, so the arithmetic on them passes silently
    with np.errstate(over="ignore", invalid="ignore"):
        q0, q1, q2 = (_quotient(g, points, dirs, g0, t, scale) for t in STEP_SCHEDULE)
        e1 = _richardson(q0, q1, t0 * scale, t1 * scale)
        e2 = _richardson(q1, q2, t1 * scale, t2 * scale)
        # max(1.0, |e1|, |e2|) with Python's first-wins semantics
        size = np.fmax(np.abs(e1), 1.0)
        np.fmax(size, np.abs(e2), out=size)
        size *= AGREEMENT_RTOL
        gap = np.subtract(e1, e2)
        i = _first(np.abs(gap, out=gap) > size)
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


def dir_derivatives(
    f: Ivf, points: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interval directional derivative at each row pair of points and dirs.

    ``points`` and ``dirs`` broadcast against each other, so one point with
    (k, n) directions works.  Returns the lower and upper endpoint arrays:
    the analytic derivative when supplied (one call per row), otherwise the
    span of the two endpoint derivatives.  More than :data:`ROW_BLOCK` rows
    run block by block, so an error names the first failing row of the
    first block that has one.
    """
    points, dirs = np.broadcast_arrays(
        np.asarray(points, dtype=float), np.asarray(dirs, dtype=float)
    )
    if len(points) > ROW_BLOCK:
        parts = [
            dir_derivatives(f, points[i : i + ROW_BLOCK], dirs[i : i + ROW_BLOCK])
            for i in range(0, len(points), ROW_BLOCK)
        ]
        return tuple(np.concatenate(ends) for ends in zip(*parts))
    if f.analytic_dir_deriv is not None:
        values = [f.analytic_dir_deriv(x, d) for x, d in zip(points, dirs)]
        return (
            np.fromiter((value.lo for value in values), float, len(values)),
            np.fromiter((value.hi for value in values), float, len(values)),
        )
    scale = _step_scale(f.domain, points, dirs)
    d_lo = _one_sided_rows(_rows(f.lower), points, dirs, scale)
    d_hi = _one_sided_rows(_rows(f.upper), points, dirs, scale)
    # min/max(d_lo, d_hi) with Python's first-wins semantics
    return np.where(d_hi < d_lo, d_hi, d_lo), np.where(d_hi > d_lo, d_hi, d_lo)


def point_block_derivatives(f: Ivf, pairs):
    """Directional derivatives at each point along its own direction rows.

    ``pairs`` yields ``(x, dirs)`` with x one point and dirs a (k, n) array.
    Consecutive pairs are grouped into blocks of at most :data:`ROW_BLOCK`
    rows (a longer direction set is a block of its own); per block this
    yields the number of pairs in it, the stacked point rows, the direction
    rows and the lower and upper derivative arrays, in point-then-direction
    order.  A block that raises is redone one point at a time, so the error
    is the one the first failing point raises on its own.
    """
    block, rows = [], 0
    for x, dirs in pairs:
        if block and rows + len(dirs) > ROW_BLOCK:
            yield _block_derivatives(f, block)
            block, rows = [], 0
        block.append((x, dirs))
        rows += len(dirs)
    if block:
        yield _block_derivatives(f, block)


def _block_derivatives(f: Ivf, block: list) -> tuple:
    points = np.repeat([x for x, _ in block], [len(d) for _, d in block], axis=0)
    dirs = np.concatenate([d for _, d in block])
    try:
        lo, hi = dir_derivatives(f, points, dirs)
    except Exception:
        for x, d in block:
            dir_derivatives(f, x, d)
        raise
    return len(block), points, dirs, lo, hi


def convexity_check(f: Ivf, samples: int, seed: int) -> Optional[ConvexityCounterexample]:
    """Sampled convexity of both endpoints; None means no violation found.

    Draws random (x1, x2, lambda) triples from domain x domain x [0, 1] and
    tests the chord inequality for each endpoint function, up to
    :data:`CONVEXITY_TOL`; the first violation in draw order (lower before
    upper) is returned.
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
    k = _first(gaps.ravel() > CONVEXITY_TOL)
    if k is None:
        return None
    i, j = divmod(k, 2)
    return ConvexityCounterexample(
        x1[i].copy(), x2[i].copy(), float(lam[i]), ("lower", "upper")[j], float(gaps[i, j])
    )


def lipschitz_estimate(f: Ivf, samples: int, seed: int) -> float:
    """Max sampled ratio ||F(x) gh- F(y)|| / ||x - y||.

    A lower bound on any valid Lipschitz constant of the function, or inf.
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
    lo_vals, hi_vals = endpoint_rows(f, pairs.reshape(-1, n))
    d_lo = lo_vals[0::2] - lo_vals[1::2]
    d_hi = hi_vals[0::2] - hi_vals[1::2]
    with np.errstate(over="ignore"):  # a ratio past the float range reads inf
        ratios = np.maximum(np.abs(d_lo), np.abs(d_hi)) / gaps
    return float(ratios.max(initial=0.0))
