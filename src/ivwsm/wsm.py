"""Weak-sharp-minima verification for convex interval-valued objectives.

A candidate set Sbar inside the feasible box S is a set of weak sharp
minima of F over S with modulus alpha > 0 when

    F(xbar) + alpha * dist(x, Sbar)  is dominated by  F(x)

for every xbar in Sbar and x in S.  Besides this definition, four
equivalent characterizations are implemented: a primal one through
directional derivatives of the feasible restriction against tangent-cone
distances, and three dual ones through the subgradient sets (normal-cone
inclusion, sharpness along tangent-normal directions, and growth along
projection rays).  All five run on one shared seeded grid and direction
set, so agreement between them tests the underlying identities rather
than sampling luck.

Every verdict is a verdict *on the sampled grid*; reports carry sample
counts and the effective grid density.  The checkers work on arrays: one
batched derivative call per candidate point (one in total for the
projection rays), with witnesses taken from the first worst row in the
grid-then-direction order, so the reports equal a pair-by-pair scan.  A NaN
margin is never skipped: it is reported as the worst margin and fails.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import BoxSet, cone_ball_support, dist_to_cone, row_norms
from .ivectors import IVector
from .ivf import (
    ENDPOINT_ORDER_TOL,
    Ivf,
    ModelError,
    convexity_check,
    dir_derivatives,
    endpoint_rows,
    lipschitz_estimate,
    restricted,
)
from .subdiff import subgradient_margins
from .support import default_directions

#: Margin at or above -MARGIN_TOL counts as "holds".
MARGIN_TOL = 1e-7
#: Ceiling on the total number of grid points per box.
GRID_CAP = 40_000

CHECKER_NAMES = ("definition", "primal", "dual-b", "dual-e", "dual-f")


class GuardError(ValueError):
    """Structural precondition violated (set containment, bad modulus)."""


@dataclass
class WsmProblem:
    """One verification instance; the objective is declared convex.

    The declared convexity is probed by a sampled guard when the context is
    built; a counterexample does not abort the checkers (grid verdicts are
    still well-defined and useful) but is attached to every report as a
    note, since the equivalence between checkers is only guaranteed for
    convex objectives.
    """

    f: Ivf
    s: BoxSet
    sbar: BoxSet
    alpha: float
    grid: int = 33
    seed: int = 0
    n_dirs: int = 128
    margin_tol: float = MARGIN_TOL
    convexity_samples: int = 200
    _ctx: Optional["_Context"] = field(default=None, repr=False, compare=False)

    def context(self) -> "_Context":
        if self._ctx is None:
            self._ctx = _Context(self)
        return self._ctx

    def with_alpha(self, alpha: float) -> "WsmProblem":
        """The same problem at another modulus, sharing this problem's
        context (grid, directions, endpoint values and guards do not depend
        on alpha)."""
        if not alpha > 0:
            raise GuardError("alpha must be positive")
        return dataclasses.replace(self, alpha=alpha, _ctx=self.context())


@dataclass(frozen=True)
class WsmReport:
    checker: str
    verdict: str  # 'holds' or 'fails'
    worst_margin: float
    witness: Optional[tuple[np.ndarray, np.ndarray]]
    witness_labels: tuple[str, str]
    samples_evaluated: int
    grid_per_axis: int
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


class _Context:
    """Shared grid, directions and cached endpoint values for one problem."""

    def __init__(self, p: WsmProblem):
        if not p.alpha > 0:
            raise GuardError("alpha must be positive")
        if not p.s.contains_box(p.sbar):
            raise GuardError("Sbar is not contained in S")
        if not p.f.domain.contains_box(p.s):
            raise GuardError("S is not contained in the objective domain")
        self.problem = p
        n_free = max(1, int(np.sum(p.s.hi > p.s.lo)))
        k = p.grid
        notes = []
        if k**n_free > GRID_CAP:
            k = max(2, int(GRID_CAP ** (1.0 / n_free)))
            notes.append(f"grid density reduced to {k} points per axis (cap {GRID_CAP})")
        self.grid_per_axis = k
        self.s_grid = p.s.grid(k)
        self.sbar_grid = p.sbar.grid(k)
        self.dirs = default_directions(p.f.dimension, p.seed, p.n_dirs)
        self.f_o = restricted(p.f, p.s)
        self.flo_s, self.fhi_s = endpoint_rows(p.f, self.s_grid)
        self.flo_sbar, self.fhi_sbar = endpoint_rows(p.f, self.sbar_grid)
        for lo_vals, hi_vals, grid_pts in (
            (self.flo_s, self.fhi_s, self.s_grid),
            (self.flo_sbar, self.fhi_sbar, self.sbar_grid),
        ):
            crossed = lo_vals > hi_vals + ENDPOINT_ORDER_TOL
            if np.any(crossed):
                where = grid_pts[int(np.argmax(crossed))]
                raise ModelError(f"lower exceeds upper at grid point {where}")
        proj = np.clip(self.s_grid, p.sbar.lo, p.sbar.hi)
        self.dists = np.linalg.norm(self.s_grid - proj, axis=1)
        counter = convexity_check(p.f, p.convexity_samples, p.seed)
        if counter is not None:
            notes.append(
                "declared-convex objective failed the sampled convexity guard "
                f"({counter.endpoint} endpoint, violation {counter.violation:.3g} "
                f"at lambda={counter.lam:.3g}); checker equivalences are not "
                "guaranteed and verdicts are grid-sampled evidence only"
            )
        self.notes = tuple(notes)

    def report(self, checker, margin, witness, labels, samples) -> WsmReport:
        tol = self.problem.margin_tol
        verdict = "holds" if margin >= -tol else "fails"
        return WsmReport(
            checker=checker,
            verdict=verdict,
            worst_margin=float(margin),
            witness=witness,
            witness_labels=labels,
            samples_evaluated=samples,
            grid_per_axis=self.grid_per_axis,
            notes=self.notes,
        )


class _Worst:
    """Deterministic running minimum with its witness; the first NaN margin
    wins over every number, so it is reported rather than skipped."""

    def __init__(self):
        self.margin = math.inf
        self.witness = None

    def update(self, margin: float, a: np.ndarray, b: np.ndarray):
        if margin < self.margin or (math.isnan(margin) and not math.isnan(self.margin)):
            self.margin = margin
            self.witness = (np.array(a, dtype=float), np.array(b, dtype=float))

    def update_rows(self, margins: np.ndarray, a: np.ndarray, b: np.ndarray):
        """Update with the first smallest (or first NaN) of a batch of
        margins.  ``b`` holds one witness row per margin; so does ``a``,
        unless it is one point shared by the whole batch."""
        if len(margins) == 0:
            return
        i = int(np.argmin(margins))  # the first minimum, or the first NaN
        self.update(float(margins[i]), a if a.ndim == 1 else a[i], b[i])


def check_definition(p: WsmProblem) -> WsmReport:
    """Brute-force the defining inequality over the shared grids.

    The pair condition separates per endpoint: with M the endpoint maximum
    over the candidate grid, the worst margin over all pairs is the worst
    over x of g(x) - M - alpha * dist(x, Sbar).
    """
    ctx = p.context()
    j_lo = int(np.argmax(ctx.flo_sbar))
    j_hi = int(np.argmax(ctx.fhi_sbar))
    margin_lo = ctx.flo_s - ctx.flo_sbar[j_lo] - p.alpha * ctx.dists
    margin_hi = ctx.fhi_s - ctx.fhi_sbar[j_hi] - p.alpha * ctx.dists
    margins = np.minimum(margin_lo, margin_hi)
    i = int(np.argmin(margins))
    j = j_lo if margin_lo[i] <= margin_hi[i] else j_hi
    witness = (ctx.sbar_grid[j].copy(), ctx.s_grid[i].copy())
    samples = len(ctx.s_grid) * len(ctx.sbar_grid)
    return ctx.report(
        "definition", float(margins[i]), witness, ("xbar", "x"), samples
    )


def check_primal(p: WsmProblem) -> WsmReport:
    """Tangent-cone distance against the restricted directional derivative.

    At each candidate point and sampled direction, alpha times the distance
    of the direction to the candidate set's tangent cone must be dominated
    by the directional derivative of the restriction; directions leaving
    the feasible set give an infinite derivative and pass automatically.
    """
    ctx = p.context()
    worst = _Worst()
    for xbar in ctx.sbar_grid:
        lhs = p.alpha * dist_to_cone(ctx.dirs, p.sbar.tangent_cone(xbar))
        deriv_lo, _ = ctx.f_o.dir_derivs(xbar, ctx.dirs)
        worst.update_rows(deriv_lo - lhs, xbar, ctx.dirs)
    samples = len(ctx.sbar_grid) * len(ctx.dirs)
    return ctx.report("primal", worst.margin, worst.witness, ("x", "d"), samples)


def _cone_ball_points(cone, alpha: float, pool: np.ndarray) -> list[np.ndarray]:
    """Radius-alpha members of the cone-ball intersection: the extreme rays,
    clamped pool directions, and the origin."""
    points = [np.zeros(cone.dimension)]
    points.extend(alpha * r for r in cone.extreme_rays())
    z = cone.project(pool)
    norms = row_norms(z)
    keep = norms > 1e-9
    points.extend(alpha * z[keep] / norms[keep, None])
    return points


def check_dual_normal_cone(p: WsmProblem) -> WsmReport:
    """Normal-cone inclusion, verified along two independent routes.

    Support route: the support value of the alpha-ball/normal-cone
    intersection (closed form through the tangent-cone distance) must be
    dominated by the support value of the subgradient set of the
    restriction, which is its directional derivative.  Point route: sampled
    members of the intersection, embedded as degenerate interval vectors,
    must pass the defining subgradient test against the feasible grid.
    """
    ctx = p.context()
    worst = _Worst()
    samples = 0
    pool = ctx.dirs[: 2 * p.f.dimension + 16]
    for b, xbar in enumerate(ctx.sbar_grid):
        n_cone = p.sbar.normal_cone(xbar)
        rhs_lo, _ = ctx.f_o.dir_derivs(xbar, ctx.dirs)
        lhs = cone_ball_support(n_cone, p.alpha, ctx.dirs)
        worst.update_rows(rhs_lo - lhs, xbar, ctx.dirs)
        samples += len(ctx.dirs)
        base_lo = ctx.flo_sbar[b]
        base_hi = ctx.fhi_sbar[b]
        diff_lo = np.minimum(ctx.flo_s - base_lo, ctx.fhi_s - base_hi)
        diff_hi = np.maximum(ctx.flo_s - base_lo, ctx.fhi_s - base_hi)
        h = ctx.s_grid - xbar
        for z in _cone_ball_points(n_cone, p.alpha, pool):
            samples += 1
            margins = subgradient_margins(h, IVector.degenerate(z), diff_lo, diff_hi)
            worst.update(float(margins.min()), xbar, z)
    return ctx.report("dual-b", worst.margin, worst.witness, ("x", "d_or_z"), samples)


def check_dual_e(p: WsmProblem) -> WsmReport:
    """Sharp growth along directions tangent to S and normal to Sbar.

    Over each candidate point, directions are sampled from the closed-form
    intersection of the two cones; the degenerate interval
    alpha*||d|| must be dominated by the directional derivative.  An
    origin-only intersection is a vacuous pass at that point.
    """
    ctx = p.context()
    worst = _Worst()
    samples = 0
    for xbar in ctx.sbar_grid:
        cone = p.s.tangent_cone(xbar).intersect(p.sbar.normal_cone(xbar))
        if cone.is_zero_cone:
            samples += 1
            continue
        z = cone.project(ctx.dirs)
        norms = row_norms(z)
        keep = norms > 1e-9
        dirs = np.vstack([*cone.extreme_rays(), z[keep] / norms[keep, None]])
        samples += len(dirs)
        deriv_lo, _ = p.f.dir_derivs(xbar, dirs)
        worst.update_rows(deriv_lo - p.alpha * row_norms(dirs), xbar, dirs)
    return ctx.report("dual-e", worst.margin, worst.witness, ("x", "d"), samples)


def check_dual_f(p: WsmProblem) -> WsmReport:
    """Growth along projection rays: for each feasible grid point y with
    projection q onto the candidate set, alpha*dist(y, Sbar) must be
    dominated by the directional derivative at q along y - q."""
    ctx = p.context()
    worst = _Worst()
    q = p.sbar.project(ctx.s_grid)
    rays = ctx.s_grid - q
    gaps = row_norms(rays)
    far = gaps > 1e-12
    deriv_lo, _ = dir_derivatives(p.f, q[far], rays[far])
    worst.update_rows(deriv_lo - p.alpha * gaps[far], ctx.s_grid[far], q[far])
    samples = len(ctx.s_grid)
    return ctx.report("dual-f", worst.margin, worst.witness, ("y", "p"), samples)


_CHECKERS = {
    "definition": check_definition,
    "primal": check_primal,
    "dual-b": check_dual_normal_cone,
    "dual-e": check_dual_e,
    "dual-f": check_dual_f,
}


def run_checker(p: WsmProblem, name: str) -> WsmReport:
    try:
        fn = _CHECKERS[name]
    except KeyError:
        raise ValueError(f"unknown checker {name!r}") from None
    return fn(p)


def check_all(p: WsmProblem) -> dict[str, WsmReport]:
    return {name: _CHECKERS[name](p) for name in CHECKER_NAMES}


def concordant(reports: dict[str, WsmReport]) -> bool:
    verdicts = {r.verdict for r in reports.values()}
    return len(verdicts) == 1


def estimate_modulus(p: WsmProblem) -> float:
    """Largest grid-feasible sharpness modulus, to within 1e-3.

    Bisects the definition predicate over (0, alpha_hi], where alpha_hi
    comes from a Lipschitz-based cap (no modulus can outgrow the slope of
    the endpoints).  Returns 0 when not even a tiny modulus passes.
    """
    ctx = p.context()
    m_lo = float(np.max(ctx.flo_sbar))
    m_hi = float(np.max(ctx.fhi_sbar))
    gap_lo = ctx.flo_s - m_lo
    gap_hi = ctx.fhi_s - m_hi
    tol = p.margin_tol

    def passes(alpha: float) -> bool:
        margins = np.minimum(gap_lo - alpha * ctx.dists, gap_hi - alpha * ctx.dists)
        return bool(margins.min() >= -tol)

    if not passes(1e-6):
        return 0.0
    lip = lipschitz_estimate(p.f, 400, p.seed)
    hi = max(1.25 * lip, 1e-2)
    if passes(hi):
        return hi
    lo = 1e-6
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo
