"""Interval-valued functions given by a pair of endpoint functions.

An objective here maps a point of a box domain to the interval
``[lower(x), upper(x)]``.  Convexity of such a function is equivalent to
convexity of both endpoint functions, which is what the sampled convexity
check probes.  One-sided directional derivatives of the endpoints exist
everywhere for convex endpoints; the interval-valued directional
derivative is the interval spanned by the two endpoint derivatives.

One function (``_block_kernel``) chooses the route of each block of rows:
a supplied analytic derivative, called per row, or exact one-sided
derivatives from one pass over the tapes, kinks included, for endpoints
that both carry a tangent form (a parsed expression's
:meth:`~ivwsm.expr.ExprAst.tangent_rows`).  An objective with neither
raises ValueError before it reads any row; its values, and with them the
sampled guards, need only the endpoints.  Both routes first raise the
same InfeasibleDirectionError where a direction leaves the domain at once
(scanning a block entry by entry only where a coordinate reaches the
smallest upper or the largest lower bound, or a direction is infinite),
and both raise ValueError naming the point and direction of a derivative
that is not finite.  An analytic callback's result without real ``lo``
and ``hi``, or with ``lo`` above ``hi``, raises ValueError naming them too,
and an error raised inside the callback gains a note naming them.

The kernels work on ``(m, n)`` arrays of points and directions:
:func:`endpoint_rows` evaluates every row in one call when the endpoints
carry batched forms (expression objectives always do), and calls other
endpoints once per row.  It also takes a grid by its axes
(:class:`~ivwsm.geometry.GridAxes`), on which expression endpoints run
(:meth:`~ivwsm.expr.ExprAst.on_grid`).  Every value of F comes from
:func:`endpoint_rows`, the one home of the rules that make it an interval
(finite endpoints no larger than :data:`ENDPOINT_MAX`, lower not above
upper), and every derivative from :func:`dir_derivatives` or, for (point,
directions) pairs, :func:`point_block_derivatives`, which dual-e and,
on the analytic route, the checkers' derivative table read; on the exact
route, that table and dual-f read :func:`grid_derivatives`, one tape pass
per endpoint and block of directions over a grid's broadcast columns,
and fall back to the row kernels, which give the same bits and every
error, where it gives None.  The row kernels take rows of n entries
and points as given, since the checkers pass points of S.  The one-point
methods :meth:`Ivf.value` and :meth:`Ivf.dir_deriv` take (n,) arrays,
raise DomainError outside the domain and are otherwise one-row calls, and
:meth:`RestrictedIvf.dir_deriv` a one-row call of
:meth:`RestrictedIvf.dir_derivs`, which gives +inf along directions that
leave the feasible set; the checkers' table ``wsm._Context.deriv_lo``
applies that rule once per face of the candidate grid.  Blocks of at most
:data:`ROW_BLOCK` rows, or of directions whose columns broadcast to at most
that many entries, keep the temporary arrays of one call bounded.

A block costs a fixed number of NumPy calls, so their per-call and per-row
overheads are its cost: the exact route makes one tape pass per endpoint.
Python callbacks are called once per row, on read-only 1-d float64 arrays
they must not keep, by one adapter (:func:`_collect`): an endpoint without
a batched form once per row of each evaluation, all of lower's rows before
upper's, and an analytic derivative once per (point, direction) row, in
point-then-direction order, on arrays which :func:`point_block_derivatives`
lists once per block and direction array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .expr import ExprAst, format_point, parse
from .geometry import IEEE, BoxSet, GridAxes, entries, require_vector, row_norms
from .intervals import PLUS_INF, ExtInterval, Interval

Endpoint = Callable[[np.ndarray], float]
#: Batched endpoint: the values at each row of an (m, n) array of points, as
#: a float array (read, never written).
RowEndpoint = Callable[[np.ndarray], np.ndarray]

#: One-sided derivatives from both sides must agree this tightly (relative)
#: for a point to count as differentiable.
GRAD_MATCH_RTOL = 1e-5
#: Slack allowed between lower(x) and upper(x) before declaring a model error.
ENDPOINT_ORDER_TOL = 1e-9
#: Largest endpoint magnitude :func:`endpoint_rows` accepts, so that the
#: difference of any two endpoint values is finite.
ENDPOINT_MAX = np.finfo(float).max / 2
#: Chord-inequality slack of the sampled convexity check, relative to the
#: size of the chord's terms (and absolute below size 1).
CONVEXITY_TOL = 1e-9
#: Most (point, direction) rows one batched derivative kernel call takes;
#: longer calls run block by block.  :func:`grid_derivatives` takes as many
#: directions per tape pass as keep the columns it reads within this many
#: entries, and one direction where the points alone exceed it.
ROW_BLOCK = 2048


class DomainError(ValueError):
    """Evaluation requested outside the declared domain."""


class ModelError(ValueError):
    """The endpoint functions crossed: lower(x) > upper(x)."""


class InfeasibleDirectionError(ValueError):
    """x + t*d leaves the domain for every small t > 0."""


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
    of an (m, n) array in one call, which must return shape (m,) (another
    raises ValueError); other endpoints are called once per row of an
    evaluation, on a read-only 1-d float64 array they must not keep, and
    must return a real number (:func:`endpoint_rows`).  Derivatives come
    from ``analytic_dir_deriv`` when supplied, called on one (point,
    direction) row of read-only 1-d arrays at a time, else exactly from
    endpoints that both have ``tangent_rows`` (as parsed expressions do);
    with neither, every derivative raises ValueError
    (:func:`dir_derivatives`), while values need only the endpoints.
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
        lo, hi = endpoint_rows(self, _point_in(self.domain, x, "domain box"))
        return Interval(lo[0], hi[0])

    def dir_deriv(self, x: Sequence[float], d: Sequence[float]) -> Interval:
        """Interval directional derivative: the analytic one when supplied,
        else the span of the endpoint derivatives (a one-row call of
        :meth:`dir_derivs`)."""
        lo, hi = self.dir_derivs(x, require_vector(d, self.dimension, "d", "direction"))
        return Interval(lo[0], hi[0])

    def dir_derivs(self, x: Sequence[float], dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of :meth:`dir_deriv` at x along each row of dirs."""
        return dir_derivatives(self, _point_in(self.domain, x, "domain box"), dirs)


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
        x = require_vector(x, self.dimension, "x", "point")
        return self.base.value(x) if self.feasible.contains(x) else PLUS_INF

    def dir_deriv(self, x: Sequence[float], d: Sequence[float]) -> ExtInterval:
        """Directional derivative of the restriction at a feasible point:
        the PLUS_INF marker along a direction leaving the feasible box (a
        one-row call of :meth:`dir_derivs`)."""
        lo, hi = self.dir_derivs(x, require_vector(d, self.dimension, "d", "direction"))
        return PLUS_INF if lo[0] == np.inf else Interval(lo[0], hi[0])

    def dir_derivs(self, x: Sequence[float], dirs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays of the directional derivative at a feasible point
        x along each row of dirs: +inf along a row leaving the feasible box
        (the quotient is +inf for every small step), elsewhere the base
        function's, which the restriction equals near x."""
        x = _point_in(self.feasible, x, "feasible set")
        dirs = _require_rows(dirs, self.dimension, "directions")
        inside = self.feasible.tangent_cone(x).contains(dirs)
        lo, hi = np.full(len(dirs), np.inf), np.full(len(dirs), np.inf)
        lo[inside], hi[inside] = dir_derivatives(self.base, x, dirs[inside])
        return lo, hi


def _point_in(box: BoxSet, x, where: str) -> np.ndarray:
    """x by :func:`~ivwsm.geometry.require_vector`, once DomainError has
    rejected it outside box."""
    x = require_vector(x, box.dimension, "x", "point")
    if not box.contains(x):
        raise DomainError(f"{format_point(x)} is outside the {where}")
    return x


def _require_rows(a, n: int, what: str) -> np.ndarray:
    """a as (m, n) float rows, (n,) as one, once ValueError has rejected another shape."""
    a = np.asarray(a, dtype=float)
    if a.ndim > 2 or a.shape[-1:] != (n,):
        raise ValueError(f"{what} of shape {a.shape} are not rows of {entries(n)}")
    return a.reshape(-1, n)


def _rows(g: Endpoint, name: str) -> RowEndpoint:
    """g at each row of an (m, n) array: ``g.rows`` when g has it, whose
    result must have shape (m,), else one call per row on read-only views,
    collected by :func:`_collect`."""
    rows = getattr(g, "rows", None)
    if rows is not None:

        def checked(points):
            values = rows(points)
            if np.shape(values) != (len(points),):
                raise ValueError(f"{name}.rows returned shape {np.shape(values)} on "
                                 f"points of shape {points.shape}, not ({len(points)},)")
            return values

        return checked

    def per_row(points):
        points = _read_only(points)
        return _collect(map(g, points), lambda i: f"{name}({format_point(points[i])})",
                        (None,), "a real number")[0]

    return per_row


def _collect(results: Iterable, row: Callable[[int], str], ends: tuple, wanted: str) -> list:
    """The results of ``results``, one call per row, each row called once,
    as float64 arrays: per entry of ``ends``, the results (None) or that
    attribute of each.  An error raised in a call gains the note ``raised
    by {row(i)}``, i the count collected before it.  Only if the conversion
    fails or reads a NaN (NumPy reads None so) are the results scanned: the
    first that ``float`` rejects raises ValueError naming ``row(i)``, its
    type and ``wanted``, or the float range for a number beyond it."""
    values = []
    try:
        values.extend(results)
    except Exception as exc:
        exc.add_note(f"raised by {row(len(values))}")
        raise
    rejected = (AttributeError, TypeError, ValueError, OverflowError)
    try:
        arrays = [np.fromiter(values if end is None else map(attrgetter(end), values),
                              float, len(values)) for end in ends]
        error = None
    except rejected as exc:
        arrays, error = None, exc
    if error is not None or any(np.isnan(a).any() for a in arrays):
        for i, value in enumerate(values):
            for end in ends:
                try:
                    float(value if end is None else getattr(value, end))
                except rejected as exc:
                    kind = type(value).__name__
                    if end is None and isinstance(exc, OverflowError):
                        raise ValueError(f"{row(i)} returned a result beyond the float "
                                         f"range ({kind})") from None
                    raise ValueError(f"{row(i)} returned a {kind}, not {wanted}") from None
        if error is not None:
            raise error
    return arrays


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True entry, or None."""
    return int(np.argmax(mask)) if mask.any() else None


def endpoint_rows(f: Ivf, points) -> tuple[np.ndarray, np.ndarray]:
    """lower and upper at each row of (m, n) points or one (n,) row, or at
    each point of an n-d :class:`~ivwsm.geometry.GridAxes` in its point
    order (another shape or dimension raises ValueError).

    An endpoint without a batched form is called once per point, all of
    lower's points before upper's, on read-only 1-d float64 views it must
    not keep (one that writes into its argument raises ValueError); a
    result ``float`` rejects raises ValueError naming its point, and an
    error raised inside the endpoint gains a note naming it.  A
    non-finite value raises ValueError naming its point, as the
    ``Interval`` constructor does for one point, and so, after those, does
    a value beyond :data:`ENDPOINT_MAX` in magnitude, whose differences
    with other values could overflow; lower above upper by more than
    :data:`ENDPOINT_ORDER_TOL` raises ModelError naming its point, and a
    smaller crossing (round-off at coinciding endpoints) gives both
    endpoints the midpoint.
    """
    if isinstance(points, GridAxes):
        if len(points.axes) != f.dimension:
            raise ValueError(f"a grid of dimension {len(points.axes)} has no points of "
                             f"{entries(f.dimension)}")
        # expression endpoints run on the axes, others on the points
        point = points.point
        lo, hi = (
            g.on_grid(points) if hasattr(g, "on_grid") else _rows(g, name)(points.points())
            for g, name in ((f.lower, "lower"), (f.upper, "upper"))
        )
    else:
        points = _require_rows(points, f.dimension, "points")
        point = points.__getitem__
        lo, hi = _rows(f.lower, "lower")(points), _rows(f.upper, "upper")(points)
    # NaN, inf and a value past ENDPOINT_MAX all fail one test, and then
    # every non-finite value is reported before one that is only too large
    if not ((np.abs(lo) <= ENDPOINT_MAX).all() and (np.abs(hi) <= ENDPOINT_MAX).all()):
        for name, vals in (("lower", lo), ("upper", hi)):
            i = _first(~np.isfinite(vals))
            if i is not None:
                raise ValueError(f"{name}({format_point(point(i))}) = {vals[i]} is not finite")
        for name, vals in (("lower", lo), ("upper", hi)):
            i = _first(np.abs(vals) > ENDPOINT_MAX)
            if i is not None:
                raise ValueError(
                    f"{name}({format_point(point(i))}) = {vals[i]} exceeds {ENDPOINT_MAX:.9g} in "
                    "magnitude, where differences of endpoint values overflow"
                )
    i = _first(lo > hi + ENDPOINT_ORDER_TOL)
    if i is not None:
        x = format_point(point(i))
        raise ModelError(f"lower({x}) = {lo[i]} exceeds upper({x}) = {hi[i]}")
    tied = lo > hi
    if tied.any():
        mid = 0.5 * (lo + hi)
        lo, hi = np.where(tied, mid, lo), np.where(tied, mid, hi)
    return lo, hi


def _require_feasible(domain: BoxSet, points: np.ndarray, dirs: np.ndarray) -> None:
    """InfeasibleDirectionError at the first row pair of points and dirs
    where x + t*d leaves the domain box for every small t > 0: where d heads
    past a bound x is on or beyond, or is infinite (a zero or NaN d_i heads
    nowhere).  A block whose coordinates all lie strictly between the
    largest lower and the smallest upper bound, so no point is on or past a
    bound, and whose directions are all finite has no such row, and passes
    on its extremes: flat reductions, where a test per entry pays for each
    row of the short last axis.  A NaN coordinate fails that test."""
    if (points.max(initial=-np.inf) < domain.hi.min()
            and points.min(initial=np.inf) > domain.lo.max() and not np.isinf(dirs).any()):
        return
    blocked = (dirs > 0) & (points >= domain.hi)
    blocked |= (dirs < 0) & (points <= domain.lo)
    blocked |= np.isinf(dirs)
    # the first blocked entry in row order is in the first blocked row
    k = _first(blocked.ravel())
    if k is not None:
        i = k // dirs.shape[1]
        raise InfeasibleDirectionError(
            f"no small-t feasibility: the direction {format_point(dirs[i])} exits the "
            f"domain immediately at {format_point(points[i])}"
        )


def _read_only(a) -> np.ndarray:
    a = np.asarray(a, dtype=float).view()
    a.flags.writeable = False
    return a


def _finite(derivs: np.ndarray, points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """derivs, once ValueError has named the first row where it is not finite."""
    i = _first(~np.isfinite(derivs))
    if i is not None:
        raise ValueError(
            f"directional derivative {derivs[i]} at x={format_point(points[i])} "
            f"along d={format_point(dirs[i])} is not finite"
        )
    return derivs


def _block_kernel(f: Ivf, points: np.ndarray, dirs: np.ndarray, calls: Callable) -> tuple:
    """One block of :func:`dir_derivatives`, by the route chosen here only;
    ``calls(g)`` yields the analytic derivative g's intervals in row order."""
    tangents = [getattr(g, "tangent_rows", None) for g in (f.lower, f.upper)]
    if f.analytic_dir_deriv is None and None in tangents:
        raise ValueError("derivatives need analytic_dir_deriv or endpoints with "
                         f"tangent_rows ({('lower', 'upper')[tangents.index(None)]} has none)")
    _require_feasible(f.domain, points, dirs)
    if f.analytic_dir_deriv is not None:
        ends = _collect(calls(f.analytic_dir_deriv),
                        lambda i: f"analytic_dir_deriv at x={format_point(points[i])} "
                                  f"along d={format_point(dirs[i])}",
                        ("lo", "hi"), "an interval with real lo and hi")
        lo, hi = (_finite(end, points, dirs) for end in ends)
        i = _first(lo > hi)
        if i is not None:
            raise ValueError(f"analytic_dir_deriv at x={format_point(points[i])} along "
                             f"d={format_point(dirs[i])} returned lo={lo[i]} > hi={hi[i]}")
        return lo, hi
    d_lo, d_hi = (_finite(g(points, dirs)[1], points, dirs) for g in tangents)
    # min/max(d_lo, d_hi) with Python's first-wins semantics
    return np.where(d_hi < d_lo, d_hi, d_lo), np.where(d_hi > d_lo, d_hi, d_lo)


def grid_derivatives(f: Ivf, columns: list, dir_columns: list) -> Optional[np.ndarray]:
    """The exact route's lower derivative, bit for bit, at each entry of the
    broadcast of ``columns`` (variable k's points) and ``dir_columns`` (its
    directions, numbered by the last axis): one pass of each endpoint's
    tape (:meth:`~ivwsm.expr.ExprAst.tangents`) per block of directions, as
    many as keep the columns the tapes read within :data:`ROW_BLOCK`
    entries.  None where the row route must give the result or the error:
    an analytic derivative or an endpoint that is not an expression, a
    point not strictly inside the domain, an infinite direction, a tape
    that raises, a tangent of either endpoint that is not finite."""
    ends = (f.lower, f.upper)
    if f.analytic_dir_deriv is not None or not all(isinstance(g, ExprAst) for g in ends):
        return None
    lo, hi = f.domain.lo.max(), f.domain.hi.min()
    if not all(lo < c.min() and c.max() < hi for c in columns) or any(
            np.isinf(d).any() for d in dir_columns):
        return None
    read = {k for g in ends for opcode, k in g.tape if opcode == "var"}
    read_points = np.broadcast_shapes(*(np.shape(c[k])[:-1] for c in (columns, dir_columns)
                                        for k in read))
    width = max(1, ROW_BLOCK // math.prod(read_points))
    table = np.empty(np.broadcast_shapes(*map(np.shape, columns), *map(np.shape, dir_columns)))
    try:
        for j in range(0, table.shape[-1], width):
            block = [d[..., j : j + width] for d in dir_columns]
            d_lo, d_hi = (g.tangents(columns, block)[1] for g in ends)
            if not (np.isfinite(d_lo).all() and np.isfinite(d_hi).all()):
                return None
            # min(d_lo, d_hi) with Python's first-wins semantics
            table[..., j : j + width] = np.where(d_hi < d_lo, d_hi, d_lo)
    except ArithmeticError:  # the tapes' EvalError and OverflowError
        return None
    return table


def dir_derivatives(
    f: Ivf, points: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Interval directional derivative at each row pair of points and dirs.

    ``points`` and ``dirs``, each (m, n) or one (n,) row (another shape
    raises ValueError), broadcast against each other, so one point with
    (k, n) directions works.  Returns the lower and upper endpoint arrays:
    the analytic derivative when supplied (one call per row), otherwise the
    span of the two endpoints' exact derivatives, which needs both to carry
    ``tangent_rows``; with neither, ValueError names an endpoint that lacks
    them before any row is read.  Both routes raise the same error for a
    direction that leaves the domain at once, and for a derivative that is
    not finite.  Points are taken as given.  More than :data:`ROW_BLOCK`
    rows run block by block, so an error names the first failing row of
    the first block that has one.
    """
    points, dirs = np.broadcast_arrays(_require_rows(points, f.dimension, "points"),
                                       _require_rows(dirs, f.dimension, "directions"))
    if len(points) > ROW_BLOCK:
        parts = [
            dir_derivatives(f, points[i : i + ROW_BLOCK], dirs[i : i + ROW_BLOCK])
            for i in range(0, len(points), ROW_BLOCK)
        ]
        return tuple(np.concatenate(ends) for ends in zip(*parts))
    return _block_kernel(f, points, dirs, lambda g: map(g, _read_only(points), _read_only(dirs)))


def point_block_derivatives(f: Ivf, pairs):
    """Directional derivatives at each point along its own direction rows.

    ``pairs`` yields ``(x, dirs)`` with x one point and dirs a (k, n) array.
    Consecutive pairs are grouped into blocks of at most :data:`ROW_BLOCK`
    rows (a longer direction set is a block of its own); per block this
    yields the number of pairs in it, the stacked point rows, the direction
    rows and the lower and upper derivative arrays, in point-then-direction
    order.  A block that raises is redone one point at a time, so the error
    is the first failing point's own.  Points are taken as given.
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

    def calls(g):  # on the read-only rows of each distinct direction array, listed once
        rows = {id(d): list(_read_only(d)) for d in {id(d): d for _, d in block}.values()}
        return chain.from_iterable(map(g, repeat(_read_only(x)), rows[id(d)]) for x, d in block)

    try:
        lo, hi = _block_kernel(f, points, dirs, calls)
    except Exception:
        for x, d in block:
            dir_derivatives(f, x, d)
        raise
    return len(block), points, dirs, lo, hi


def convexity_check(f: Ivf, samples: int, seed: int) -> Optional[ConvexityCounterexample]:
    """Sampled convexity of both endpoints; None means no violation found.

    Draws random (x1, x2, lambda) triples from domain x domain x [0, 1] and
    tests the chord inequality for each endpoint function, up to
    :data:`CONVEXITY_TOL` times ``max(1, |lam*g(x1)| + |(1-lam)*g(x2)| +
    |g(mid)|)``, so round-off at any scale passes; the first violation in
    draw order (lower before upper) is returned.
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
    chords = [(lam * g1, (1 - lam) * g2, gm) for g1, g2, gm in zip(*values)]
    gaps = np.stack([gm - (a + b) for a, b, gm in chords], axis=1)  # (samples, 2)
    over = gaps > CONVEXITY_TOL
    if over.any():
        # and past CONVEXITY_TOL * (|a| + |b| + |gm|), scaled before the
        # last sum, which could pass the float range near ENDPOINT_MAX
        sizes = [CONVEXITY_TOL * (abs(a) + abs(b)) + CONVEXITY_TOL * abs(gm)
                 for a, b, gm in chords]
        over &= gaps > np.stack(sizes, axis=1)
    k = _first(over.ravel())
    if k is None:
        return None
    i, j = divmod(k, 2)
    return ConvexityCounterexample(
        x1[i].copy(), x2[i].copy(), float(lam[i]), ("lower", "upper")[j], float(gaps[i, j])
    )


@IEEE
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
    ratios = np.maximum(np.abs(d_lo), np.abs(d_hi)) / gaps
    return float(ratios.max(initial=0.0))
