"""Shared builders: interval strategies, convex test objectives, and the
sharpness battery used by the checker-concordance tests."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from hypothesis import strategies as st

from ivwsm import BoxSet, Interval, Ivf, WsmProblem

# Endpoint magnitudes stay near 1e3 so one add/sub keeps float error a
# couple of orders below the 1e-12 gates used by the algebraic tests.
coords = st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw):
    a = draw(coords)
    b = draw(coords)
    return Interval(min(a, b), max(a, b))


def random_interval(rng: np.random.Generator, scale: float = 1000.0) -> Interval:
    a, b = rng.uniform(-scale, scale, size=2)
    return Interval(min(a, b), max(a, b))


def cube(n: int, lo: float, hi: float) -> BoxSet:
    return BoxSet(np.full(n, float(lo)), np.full(n, float(hi)))


def point_box(*values: float) -> BoxSet:
    arr = np.array(values, dtype=float)
    return BoxSet(arr, arr.copy())


def box_dist(box: BoxSet, x) -> float:
    """Euclidean distance from the point x to the box, via its projection."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - box.project(x)))


def _one_sided_abs(u: float, d: float) -> float:
    # right derivative of |t| at u along d
    if u > 0:
        return d
    if u < 0:
        return -d
    return abs(d)


def make_ivf(
    n: int,
    lower: Callable,
    upper: Callable,
    lo: float,
    hi: float,
    d_lower: Optional[Callable] = None,
    d_upper: Optional[Callable] = None,
) -> Ivf:
    analytic = None
    if d_lower is not None and d_upper is not None:
        def analytic(x, d, _dl=d_lower, _du=d_upper):
            a = _dl(x, d)
            b = _du(x, d)
            return Interval(min(a, b), max(a, b))
    return Ivf(n, lower, upper, cube(n, lo, hi), analytic)


def analytic_ivf(lower: str, upper: str, domain: BoxSet) -> Ivf:
    """``Ivf.from_expressions`` with an analytic derivative that reads each
    endpoint's exact one on its one (point, direction) row, so its
    derivatives take the analytic route with the exact route's values.  The
    callback tests nothing itself: a direction that leaves the domain gets
    the tangents the tapes give."""
    f = Ivf.from_expressions(lower, upper, domain)

    def deriv(x, d):
        a, b = (float(g.tangent_rows(x[None], d[None])[1][0]) for g in (f.lower, f.upper))
        return Interval(min(a, b), max(a, b))

    return replace(f, analytic_dir_deriv=deriv)


def vee_ivf(c_lo: float = 0.25, c_hi: float = 1.0, center: float = 0.0,
            halfwidth: float = 2.0) -> Ivf:
    """|x - center| * [c_lo, c_hi] on [center - halfwidth, center + halfwidth]."""

    def lower(x):
        return c_lo * abs(x[0] - center)

    def upper(x):
        return c_hi * abs(x[0] - center)

    def d_lower(x, d):
        return c_lo * _one_sided_abs(x[0] - center, d[0])

    def d_upper(x, d):
        return c_hi * _one_sided_abs(x[0] - center, d[0])

    return make_ivf(1, lower, upper, center - halfwidth, center + halfwidth,
                    d_lower, d_upper)


def l1_ivf(n: int, c_lo: float, c_hi: float, halfwidth: float = 2.0,
           shift: float = 0.0) -> Ivf:
    """||x||_1 scaled into [c_lo, c_hi], optionally with a constant width shift."""

    def lower(x):
        return c_lo * float(np.abs(x).sum())

    def upper(x):
        return c_hi * float(np.abs(x).sum()) + shift

    def d_sum(x, d):
        return sum(_one_sided_abs(xi, di) for xi, di in zip(x, d))

    def d_lower(x, d):
        return c_lo * d_sum(x, d)

    def d_upper(x, d):
        return c_hi * d_sum(x, d)

    return make_ivf(n, lower, upper, -halfwidth, halfwidth, d_lower, d_upper)


def quad_ivf(gap: float = 1.0, halfwidth: float = 2.0) -> Ivf:
    """[x^2, x^2 + gap] in one dimension."""

    def lower(x):
        return x[0] ** 2

    def upper(x):
        return x[0] ** 2 + gap

    def d_both(x, d):
        return 2.0 * x[0] * d[0]

    return make_ivf(1, lower, upper, -halfwidth, halfwidth, d_both, d_both)


def _random_convex_terms(seed: int, n: Optional[int]) -> tuple:
    """The seeded dimension and coefficients of :func:`random_convex_ivf`."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(1, 4))
    a1 = rng.normal(size=(n, n))
    q1 = a1.T @ a1 / n
    b1 = rng.normal(size=n)
    c1 = float(rng.uniform(0, 2))
    w = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) < 0.6)
    anchors = rng.uniform(-0.8, 0.8, size=n)
    a2 = rng.normal(size=(n, n))
    q2 = a2.T @ a2 / (2 * n)
    c2 = float(rng.uniform(0.5, 2))
    return n, q1, b1, c1, w, anchors, q2, c2


def random_convex_ivf(seed: int, n: Optional[int] = None) -> Ivf:
    """Seeded convex objective: PSD quadratic plus axis kinks per endpoint,
    with its hand-written directional derivative.

    The upper endpoint is the lower one plus another PSD quadratic and a
    nonnegative constant, so the pair stays ordered everywhere.
    """
    n, q1, b1, c1, w, anchors, q2, c2 = _random_convex_terms(seed, n)

    def lower(x):
        x = np.asarray(x, dtype=float)
        return float(0.5 * x @ q1 @ x + b1 @ x + c1 + w @ np.abs(x - anchors))

    def upper(x):
        x = np.asarray(x, dtype=float)
        return lower(x) + float(0.5 * x @ q2 @ x + c2)

    def d_lower(x, d):
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        kink = sum(
            wi * _one_sided_abs(xi - ai, di)
            for wi, xi, ai, di in zip(w, x, anchors, d)
        )
        return float((q1 @ x + b1) @ d) + kink

    def d_upper(x, d):
        x = np.asarray(x, dtype=float)
        d = np.asarray(d, dtype=float)
        return d_lower(x, d) + float((q2 @ x) @ d)

    return make_ivf(n, lower, upper, -1.5, 1.5, d_lower, d_upper)


def random_convex_expr_ivf(seed: int, n: Optional[int] = None) -> Ivf:
    """:func:`random_convex_ivf` as expression text, so its derivatives take
    the exact route; its values agree to round-off."""
    n, q1, b1, c1, w, anchors, q2, c2 = _random_convex_terms(seed, n)
    x = [f"x{i}" for i in range(1, n + 1)]

    def quadratic(q):
        return [f"{float(0.5 * q[i, j])!r}*{x[i]}*{x[j]}" for i in range(n) for j in range(n)]

    lower = " + ".join([*quadratic(q1), *(f"{b!r}*{xi}" for b, xi in zip(b1.tolist(), x)),
                        repr(c1), *(f"{wi!r}*abs({xi} - {ai!r})"
                                    for wi, xi, ai in zip(w.tolist(), x, anchors.tolist()))])
    upper = " + ".join([lower, *quadratic(q2), repr(c2)])
    return Ivf.from_expressions(lower, upper, cube(n, -1.5, 1.5))


@dataclass
class BatteryCase:
    """One sharpness battery entry; ``modulus`` is None for negatives."""

    name: str
    f: Ivf
    s: BoxSet
    sbar: BoxSet
    modulus: Optional[float]
    nominal_alpha: float

    @property
    def positive(self) -> bool:
        return self.modulus is not None

    def problem(self, alpha: float, grid: int = 33, seed: int = 11) -> WsmProblem:
        return WsmProblem(f=self.f, s=self.s, sbar=self.sbar, alpha=alpha,
                          grid=grid, seed=seed)


def _halfline_ivf(scale_hi: float = 2.0) -> Ivf:
    def lower(x):
        return max(x[0], 0.0)

    def upper(x):
        return scale_hi * max(x[0], 0.0)

    def d_pos(x, d):
        if x[0] > 0:
            return d[0]
        if x[0] < 0:
            return 0.0
        return max(d[0], 0.0)

    return make_ivf(1, lower, upper, -2.0, 2.0, d_pos,
                    lambda x, d: scale_hi * d_pos(x, d))


def _strip_ivf() -> Ivf:
    """[|x1|, 2|x1|] in two dimensions; flat along the second axis."""

    def lower(x):
        return abs(x[0])

    def upper(x):
        return 2.0 * abs(x[0])

    def d_lower(x, d):
        return _one_sided_abs(x[0], d[0])

    return make_ivf(2, lower, upper, -2.0, 2.0, d_lower,
                    lambda x, d: 2.0 * _one_sided_abs(x[0], d[0]))


def _linear_ivf() -> Ivf:
    return make_ivf(1, lambda x: x[0], lambda x: x[0] + 1.0, -2.0, 2.0,
                    lambda x, d: d[0], lambda x, d: d[0])


def _bowl2_ivf() -> Ivf:
    def lower(x):
        return float(x[0] ** 2 + x[1] ** 2)

    def d_both(x, d):
        return float(2.0 * (x[0] * d[0] + x[1] * d[1]))

    return make_ivf(2, lower, lambda x: lower(x) + 1.0, -2.0, 2.0, d_both, d_both)


def wsm_battery() -> list[BatteryCase]:
    cases = [
        BatteryCase("vee-quarter", vee_ivf(0.25, 1.0), cube(1, -1, 1),
                    point_box(0.0), 0.25, 0.25),
        BatteryCase("l1-n2", l1_ivf(2, 1.0, 2.0), cube(2, -1, 1),
                    point_box(0.0, 0.0), 1.0, 1.0),
        BatteryCase("vee-shifted", vee_ivf(0.5, 1.0, center=0.25), cube(1, -1, 1),
                    point_box(0.25), 0.5, 0.5),
        BatteryCase("l1-width", l1_ivf(2, 1.0, 1.0, shift=1.0), cube(2, -1, 1),
                    point_box(0.0, 0.0), 1.0, 1.0),
        BatteryCase("strip-segment", _strip_ivf(), cube(2, -1, 1),
                    BoxSet(np.array([0.0, -1.0]), np.array([0.0, 1.0])), 1.0, 1.0),
        BatteryCase("halfline", _halfline_ivf(), cube(1, -1, 1),
                    BoxSet(np.array([-1.0]), np.array([0.0])), 1.0, 1.0),
        BatteryCase("l1-n3", l1_ivf(3, 1.0, 2.0), cube(3, -1, 1),
                    point_box(0.0, 0.0, 0.0), 1.0, 1.0),
        BatteryCase("tilt-neg", _linear_ivf(), cube(1, -1, 1),
                    point_box(0.0), None, 0.5),
        BatteryCase("quad-neg", quad_ivf(), cube(1, -1, 1),
                    point_box(0.0), None, 0.5),
        BatteryCase("l1-wrong-sbar-neg", l1_ivf(2, 1.0, 2.0), cube(2, -1, 1),
                    point_box(0.5, 0.5), None, 0.5),
        BatteryCase("halfline-small-sbar-neg", _halfline_ivf(), cube(1, -1, 1),
                    point_box(-0.5), None, 0.5),
        BatteryCase("vee-wrong-sbar-neg", vee_ivf(1.0, 2.0, center=0.5),
                    cube(1, -1, 1), point_box(0.0), None, 0.5),
        BatteryCase("bowl2-neg", _bowl2_ivf(), cube(2, -1, 1),
                    point_box(0.0, 0.0), None, 0.5),
    ]
    return cases
