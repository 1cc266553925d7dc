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
counts and the effective grid density.  The checkers work on arrays, with
witnesses taken from the first worst row in the grid-then-direction order,
so the reports equal a pair-by-pair scan.  The primal and dual-b checkers
share one table of restricted directional derivatives, built on first use,
and one table of margins (dual-b's support route is primal's table, by
Moreau's decomposition), whose worst entry at one alpha both read from
one build; dual-e takes its derivatives in blocks of candidate points,
dual-f in one call.  The cones of S and Sbar at a candidate point depend
on it only through its face codes, from which ``_Context.faces`` builds
them once per face; so are the feasible directions, cone distances and
dual-b's members (from ``_unit_members``).  Dual-e's directions depend on
a face only through its cone T_S ∩ N_Sbar, so they are built once per
distinct cone (all faces of a strip file share one), from the same
``_unit_members``, and the faces of one cone share one direction array.
Dual-e's directions repeat within a face, and dual-b's point-route pairs
repeat across the grid (a pair reads its point only through F there and
the coordinates its member does not zero); each distinct row or pair is
tested once, in first-occurrence order, and every repeat still counts as
a sample.  Every margin but those of dual-b's point route is a - alpha * b
for arrays a and b that do not depend on alpha, computed by ``_margins``:
the definition checker and the modulus bisection read the same pair
(``_Context.gaps`` and ``_Context.dists``), and dual-f the same distances
to Sbar.  A NaN margin is never skipped: it is reported as the worst
margin and fails, and a margin past the float range is -inf.

The context holds the feasible grid by its axes (``_Context.s_axes``):
its endpoint values and distances to Sbar are elementwise work on the
broadcast axes, with the bits of that work on the grid's rows.  The
``(N, n)`` grid and its projection onto Sbar are built only for dual-b and
dual-f, never for the definition checker or the modulus bisection.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .geometry import IEEE, BoxSet, GridAxes, OrthantCone, dist_to_cone, group_rows, row_norms
from .ivf import (
    Ivf,
    convexity_check,
    dir_derivatives,
    endpoint_rows,
    lipschitz_estimate,
    point_block_derivatives,
)
from .subdiff import subgradient_margins
from .support import default_directions

#: Margin at or above -MARGIN_TOL counts as "holds".
MARGIN_TOL = 1e-7
#: Ceiling on the total number of grid points per box.
GRID_CAP = 40_000
#: Ceiling on the number of random directions, so the derivative table
#: (``_Context.deriv_lo``) holds at most GRID_CAP x (DIRS_CAP + 2n) entries.
DIRS_CAP = 1024


class GuardError(ValueError):
    """Structural precondition violated (set containment, a setting out of
    range); ``field`` names the rejected ``WsmProblem`` field."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def grid_density(box: BoxSet, grid: int) -> int:
    """Points per axis of the grid sampled over box: ``grid``, lowered so
    that the free axes of box hold at most :data:`GRID_CAP` points.  A box
    whose free axes exceed the cap even at 2 points each raises ValueError."""
    n_free = max(1, int(np.sum(box.hi > box.lo)))
    if 2**n_free > GRID_CAP:
        raise ValueError(f"{n_free} free axes: 2 points on each exceed the {GRID_CAP}-point cap")
    return grid if grid**n_free <= GRID_CAP else int(GRID_CAP ** (1.0 / n_free))


def convexity_note(f: Ivf, seed: int) -> Optional[str]:
    """The report note on a counterexample of the sampled convexity guard
    (``convexity_check`` on 200 seeded triples), or None when it finds none."""
    counter = convexity_check(f, 200, seed)
    if counter is None:
        return None
    return (
        "declared-convex objective failed the sampled convexity guard "
        f"({counter.endpoint} endpoint, violation {counter.violation:.3g} "
        f"at lambda={counter.lam:.3g}); checker equivalences are not "
        "guaranteed and verdicts are grid-sampled evidence only"
    )


@dataclass
class WsmProblem:
    """One verification instance; the objective is declared convex.

    Construction rejects an out-of-range setting, sets of another dimension
    than the objective's and sets that do not nest (Sbar inside S inside
    the domain) with a GuardError naming the setting.
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
    _ctx: Optional["_Context"] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise GuardError("alpha", f"alpha must be a finite number > 0, got {self.alpha}")
        if self.grid < 2:
            raise GuardError("grid", f"grid must be at least 2 points per axis, got {self.grid}")
        if self.seed < 0:
            raise GuardError("seed", f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.margin_tol < math.inf:
            raise GuardError(
                "margin_tol", f"margin_tol must be a finite number >= 0, got {self.margin_tol}"
            )
        if not 0 <= self.n_dirs <= DIRS_CAP:
            raise GuardError(
                "n_dirs", f"n_dirs must be between 0 and {DIRS_CAP}, got {self.n_dirs}"
            )
        for name, label, box in (("s", "S", self.s), ("sbar", "Sbar", self.sbar)):
            if box.dimension != self.f.dimension:
                raise GuardError(name, f"{label} has dimension {box.dimension}, "
                                       f"the objective {self.f.dimension}")
        if not self.s.contains_box(self.sbar):
            raise GuardError("sbar", "Sbar is not contained in S")
        if not self.f.domain.contains_box(self.s):
            raise GuardError("s", "S is not contained in the objective domain")
        try:
            grid_density(self.s, self.grid)
        except ValueError as exc:
            raise GuardError("s", f"S has {exc}") from None

    def context(self) -> "_Context":
        if self._ctx is None:
            self._ctx = _Context(self)
        return self._ctx

    def with_alpha(self, alpha: float) -> "WsmProblem":
        """The same problem at another modulus, sharing this problem's
        context (grid, directions, endpoint values and guards do not depend
        on alpha)."""
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
    """Shared grids, directions and cached endpoint values for one problem.

    The feasible grid is ``s_axes``; ``flo_s``, ``fhi_s`` and ``dists``
    follow the rows of ``s_grid``, which is built (with ``proj``) only when
    read, like the seeded directions ``dirs``.  Nothing here depends on
    alpha except the worst entry of primal's table at the last alpha asked
    (``primal_worst``), which problems of other moduli sharing the context
    (``WsmProblem.with_alpha``) recompute.  It keeps the parts of the
    problem it reads, not the problem, which holds it: without that cycle,
    refcounting frees a problem's grids as soon as the problem goes."""

    def __init__(self, p: WsmProblem):
        self.f, self.s, self.sbar, self.margin_tol = p.f, p.s, p.sbar, p.margin_tol
        self.seed, self.n_dirs = p.seed, p.n_dirs
        k = grid_density(p.s, p.grid)
        notes = []
        if k < p.grid:
            notes.append(f"grid density reduced to {k} points per axis (cap {GRID_CAP})")
        self.grid_per_axis = k
        self.s_axes = p.s.grid_axes(k)
        self.sbar_grid = p.sbar.grid(k)
        self.flo_s, self.fhi_s = endpoint_rows(p.f, self.s_axes)
        self.flo_sbar, self.fhi_sbar = endpoint_rows(p.f, self.sbar_grid)
        self.dists = _distances(self.s_axes, p.sbar)
        note = convexity_note(p.f, p.seed)
        if note is not None:
            notes.append(note)
        spread = max(np.ptp(self.flo_sbar), np.ptp(self.fhi_sbar))
        if spread > p.margin_tol:
            notes.append(
                "F is not constant on the sampled Sbar grid (endpoint spread "
                f"{spread:.3g}); the dual characterizations assume Sbar is a set "
                "of minima on which F is constant, so checker equivalences are "
                "not guaranteed"
            )
        self.notes = tuple(notes)
        self._primal_worst = (None, None)

    @cached_property
    def dirs(self) -> np.ndarray:
        """The seeded directions the derivative checkers sample."""
        return default_directions(self.f.dimension, self.seed, self.n_dirs)

    @cached_property
    def s_grid(self) -> np.ndarray:
        """The feasible grid's points, one row each."""
        return self.s_axes.points()

    @cached_property
    def proj(self) -> np.ndarray:
        """The projection onto Sbar of each row of ``s_grid``."""
        return self.sbar.project(self.s_grid)

    @cached_property
    def faces(self) -> tuple[np.ndarray, list[tuple[OrthantCone, OrthantCone]]]:
        """The candidate grid grouped by face: the face of each ``sbar_grid``
        row, and per face the tangent cones (T_S, T_Sbar) of S and Sbar.  A
        face is the pattern of lower/upper-bound contacts with Sbar and
        with S on every axis (``BoxSet.face_codes``), which are the cones'
        tags; the normal cone of Sbar is ``T_Sbar.polar()``."""
        g, cone, n = self.sbar_grid, OrthantCone.of_codes, self.sbar.dimension
        codes = np.hstack([self.sbar.face_codes(g), self.s.face_codes(g)])
        face_of, first = group_rows(codes)
        return face_of, [(cone(c[n:]), cone(c[:n])) for c in codes[first]]

    @cached_property
    def deriv_lo(self) -> np.ndarray:
        """Lower endpoint of the restricted directional derivative, one row
        per candidate grid point and one column per direction; +inf where
        the direction leaves S (found once per face).  Built on first use,
        block by block into this one array: the upper end is never kept."""
        face_of, cones = self.faces
        inside = np.array([t_s.contains(self.dirs) for t_s, _ in cones])
        face_dirs = [self.dirs[mask] for mask in inside]
        lo = np.full((len(face_of), len(self.dirs)), np.inf)
        pairs = ((x, face_dirs[f]) for x, f in zip(self.sbar_grid, face_of))
        start = 0
        for count, _, _, d_lo, _ in point_block_derivatives(self.f, pairs):
            rows = slice(start, start + count)
            # boolean assignment fills row-major: point, then direction
            lo[rows][inside[face_of[rows]]] = d_lo
            start += count
            del _, d_lo  # free this block before the next one is computed
        return lo

    @cached_property
    def tangent_dists(self) -> np.ndarray:
        """dist(d, T) per face and direction, T the tangent cone of Sbar."""
        return np.array([dist_to_cone(self.dirs, t_sbar) for _, t_sbar in self.faces[1]])

    def primal_worst(self, alpha: float) -> tuple[float, int, int]:
        """Margin, point and direction index of the first smallest (or first
        NaN) entry, in row-major order, of primal's table deriv_lo - alpha *
        tangent_dists, built in one array (gather, scale, subtract) and
        freed on return.  The answer for the last alpha asked is kept, so
        primal and dual-b at one alpha build the table once; another alpha
        builds it again."""
        if self._primal_worst[0] != alpha:
            table = self.tangent_dists[self.faces[0]]
            _margins(self.deriv_lo, table, alpha, out=table)
            i, j = divmod(int(np.argmin(table)), table.shape[1])
            self._primal_worst = alpha, (float(table[i, j]), i, j)
        return self._primal_worst[1]

    @cached_property
    def gaps(self) -> np.ndarray:
        """The smaller endpoint gap g(x) - max of g over the candidate grid,
        g either endpoint, at each feasible grid point.  As rounding is
        monotone, ``_margins(gaps, dists, alpha)`` is the smaller of the two
        endpoint margins of the defining inequality bit for bit."""
        gaps = np.subtract(self.flo_s, self.flo_sbar.max())
        return np.minimum(gaps, self.fhi_s - self.fhi_sbar.max(), out=gaps)

    def report(self, checker, margin, witness, labels, samples) -> WsmReport:
        tol = self.margin_tol
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


@IEEE
def _margins(a, b, alpha: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """a - alpha * b, written into ``out`` when given (which may be b)."""
    return np.subtract(a, np.multiply(b, alpha, out=out), out=out)


@IEEE
def _distances(grid: GridAxes, box: BoxSet) -> np.ndarray:
    """dist(x, box) at each point of the grid, from its columns' offsets to
    their clamps into the box: the bits of ``np.linalg.norm(points -
    box.project(points), axis=1)``, except at a point whose squared
    distance overflows, which ``row_norms`` rescales."""
    offsets = [c - c.clip(lo, hi) for c, lo, hi in zip(grid.columns, box.lo, box.hi)]
    dists = grid.fill(np.sqrt(_row_sum_order([offset * offset for offset in offsets])))
    over = np.isinf(dists)
    if over.any():
        points = grid.points()[over]
        dists[over] = row_norms(points - box.project(points))
    return dists


def _row_sum_order(terms: list):
    """The sum of the terms in the order NumPy sums a contiguous row: in
    sequence below 8 terms, in 8 partial sums (term i in sum i % 8) up to
    128, and past 128 by halves split at a multiple of 8."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _row_sum_order(terms[:half]) + _row_sum_order(terms[half:])
    if n < 8:
        total, rest = terms[0], terms[1:]
    else:
        r = terms[:8]
        for i in range(8, n - n % 8, 8):
            r = [a + b for a, b in zip(r, terms[i : i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = terms[n - n % 8 :]
    for term in rest:
        total = total + term
    return total


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
        margins; ``a`` and ``b`` hold one witness row per margin."""
        if len(margins) == 0:
            return
        i = int(np.argmin(margins))  # the first minimum, or the first NaN
        self.update(float(margins[i]), a[i], b[i])


def check_definition(p: WsmProblem) -> WsmReport:
    """Brute-force the defining inequality over the shared grids.

    The pair condition separates per endpoint: with M the endpoint maximum
    over the candidate grid, the worst margin over all pairs is the worst
    over x of g(x) - M - alpha * dist(x, Sbar); the witness pairs x with
    the candidate point where that endpoint attains M.
    """
    ctx = p.context()
    margins = _margins(ctx.gaps, ctx.dists, p.alpha)
    i = int(np.argmin(margins))
    margin_lo = _margins(ctx.flo_s[i] - ctx.flo_sbar.max(), ctx.dists[i], p.alpha)
    margin_hi = _margins(ctx.fhi_s[i] - ctx.fhi_sbar.max(), ctx.dists[i], p.alpha)
    j = int(np.argmax(ctx.flo_sbar if margin_lo <= margin_hi else ctx.fhi_sbar))
    witness = (ctx.sbar_grid[j].copy(), ctx.s_axes.point(i))
    samples = len(ctx.dists) * len(ctx.sbar_grid)
    return ctx.report(
        "definition", float(margins[i]), witness, ("xbar", "x"), samples
    )


def check_primal(p: WsmProblem) -> WsmReport:
    """Tangent-cone distance against the restricted directional derivative.

    At each candidate point and sampled direction, alpha times the distance
    of the direction to the candidate set's tangent cone must be dominated
    by the directional derivative of the restriction; directions leaving
    the feasible set give an infinite derivative and pass automatically.
    The margins come from ``_Context.primal_worst``, which dual-b's support
    route shares: by Moreau's decomposition the support value of the
    alpha-ball and the normal cone (T's polar) along d is alpha * dist(d, T).
    """
    ctx = p.context()
    margin, i, j = ctx.primal_worst(p.alpha)
    worst = _Worst()
    worst.update(margin, ctx.sbar_grid[i], ctx.dirs[j])
    samples = len(ctx.sbar_grid) * len(ctx.dirs)
    return ctx.report("primal", worst.margin, worst.witness, ("x", "d"), samples)


def _unit_members(cone: OrthantCone, pool: np.ndarray, scale: float) -> np.ndarray:
    """Members of norm ``scale`` of the cone, as rows: the extreme rays,
    then the pool directions projected onto the cone and rescaled (those
    that project to near the origin are dropped); no rows for the zero
    cone."""
    z = cone.project(pool)
    norms = row_norms(z)
    keep = norms > 1e-9
    rays = [scale * r for r in cone.extreme_rays()]
    return np.vstack([*rays, scale * z[keep] / norms[keep, None]])


def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct row (byte for byte
    equal, as ``group_rows`` groups them), in order."""
    return np.sort(group_rows(rows)[1])


def check_dual_normal_cone(p: WsmProblem) -> WsmReport:
    """Normal-cone inclusion, verified along two independent routes.

    Support route: the support value of the alpha-ball/normal-cone
    intersection must be dominated by the support value of the subgradient
    set of the restriction, which is its directional derivative (a row of
    the context's shared table).  The normal cone is the polar of the
    tangent cone T, so by Moreau's decomposition that support value along
    d is alpha * dist(d, T): the support route is primal's table, bit for
    bit (``_Context.primal_worst``).  Point route: sampled members z of the
    intersection, taken as degenerate interval vectors (z as both endpoint
    arrays), must pass the defining subgradient test against the feasible
    grid.  Members are built once per face.

    The margin of a point-route pair is the minimum over x of the gap
    F(x) - F(xbar) less (x - xbar)·z; it reads F(xbar) through the bits of
    its gap row, and xbar only on the axes where z is nonzero (elsewhere
    the product adds +-0, which can flip at most the sign of a zero).  So
    each distinct key (gap row, z, xbar on those axes), byte for byte, is
    tested once, at its first pair in point-then-member order: a repeat
    has a numerically equal margin and cannot lower the strict running
    minimum, and every pair still counts as a sample.  Only tested pairs
    build x - xbar and gap rows, each when it changes.  The support table's
    first smallest entry joins the pair margins at its place in that
    order (before the pairs of its point), so the worst margin and witness
    are those of a scan of every pair.
    """
    ctx = p.context()
    face_of, cones = ctx.faces
    pool = ctx.dirs[: 2 * p.f.dimension + 16]
    origin = np.zeros((1, p.f.dimension))
    members = [np.vstack([origin, _unit_members(t.polar(), pool, p.alpha)]) for _, t in cones]
    distinct = [z[_first_occurrences(z)] for z in members]
    base_of, _ = group_rows(np.stack([ctx.flo_sbar, ctx.fhi_sbar], axis=1))
    # every (candidate point, distinct member of its face) pair, in scan order
    pair_b = np.repeat(np.arange(len(face_of)), [len(distinct[f]) for f in face_of])
    pair_z = np.vstack([distinct[f] for f in face_of])
    on_axes = np.where(pair_z != 0, ctx.sbar_grid[pair_b], 0.0)
    tested = _first_occurrences(np.hstack([base_of[pair_b, None], pair_z, on_axes]))
    pair_b, pair_z = pair_b[tested], pair_z[tested]
    margins = []
    base = last = None
    for b, z in zip(pair_b, pair_z):
        if base_of[b] != base:
            base = base_of[b]
            diff_lo = np.minimum(ctx.flo_s - ctx.flo_sbar[b], ctx.fhi_s - ctx.fhi_sbar[b])
        if b != last:
            last = b
            h = ctx.s_grid - ctx.sbar_grid[b]
        # a degenerate z reads only the lower endpoint of the gaps
        margins.append(subgradient_margins(h, z, z, diff_lo, diff_lo).min())
    support, i, j = ctx.primal_worst(p.alpha)
    at = np.searchsorted(pair_b, i)
    margins.insert(at, support)
    xbars = np.insert(ctx.sbar_grid[pair_b], at, ctx.sbar_grid[i], axis=0)
    pair_z = np.insert(pair_z, at, ctx.dirs[j], axis=0)
    worst = _Worst()
    worst.update_rows(np.array(margins), xbars, pair_z)
    samples = ctx.deriv_lo.size + int(np.array([len(z) for z in members])[face_of].sum())
    return ctx.report("dual-b", worst.margin, worst.witness, ("x", "d_or_z"), samples)


def check_dual_e(p: WsmProblem) -> WsmReport:
    """Sharp growth along directions tangent to S and normal to Sbar.

    Over each candidate point, directions are sampled from the closed-form
    intersection of the two cones; the degenerate interval
    alpha*||d|| must be dominated by the directional derivative.  An
    origin-only intersection is a vacuous pass at that point.  The
    derivatives are taken in blocks of candidate points.  The intersection
    is formed once per face and its unit directions once per distinct
    intersection, one array shared by every face that meets in it, whose
    rows ``point_block_derivatives`` lists once per block.  The unit
    directions repeat (on a ray or a line they are all +-e_i), so each
    point is differentiated along the distinct rows only, in
    first-occurrence order: the first smallest margin over them is at the
    first occurrence of the first smallest over all rows, so the margin
    and witness are those of the full scan.  Every row counts as a sample.
    """
    ctx = p.context()
    face_of, cones = ctx.faces
    meets = [t_s.intersect(t.polar()) for t_s, t in cones]
    members = {cone: _unit_members(cone, ctx.dirs, 1.0) for cone in dict.fromkeys(meets)}
    built = {cone: (d, d[_first_occurrences(d)]) for cone, d in members.items()}
    face_dirs, distinct = zip(*(built[cone] for cone in meets))
    # an origin-only intersection has no rows, and counts one sample
    samples = int(np.array([max(len(d), 1) for d in face_dirs])[face_of].sum())
    worst = _Worst()
    pairs = ((x, distinct[f]) for x, f in zip(ctx.sbar_grid, face_of) if len(distinct[f]))
    for _, points, dirs, deriv_lo, _ in point_block_derivatives(p.f, pairs):
        worst.update_rows(_margins(deriv_lo, row_norms(dirs), p.alpha), points, dirs)
    return ctx.report("dual-e", worst.margin, worst.witness, ("x", "d"), samples)


def check_dual_f(p: WsmProblem) -> WsmReport:
    """Growth along projection rays: for each feasible grid point y with
    projection q onto the candidate set, alpha*dist(y, Sbar) must be
    dominated by the directional derivative at q along y - q."""
    ctx = p.context()
    worst = _Worst()
    q = ctx.proj
    far = ctx.dists > 1e-12
    deriv_lo, _ = dir_derivatives(p.f, q[far], ctx.s_grid[far] - q[far])
    worst.update_rows(_margins(deriv_lo, ctx.dists[far], p.alpha), ctx.s_grid[far], q[far])
    samples = len(ctx.s_grid)
    return ctx.report("dual-f", worst.margin, worst.witness, ("y", "p"), samples)


#: The five checkers by name, in report order.
CHECKERS = {
    "definition": check_definition,
    "primal": check_primal,
    "dual-b": check_dual_normal_cone,
    "dual-e": check_dual_e,
    "dual-f": check_dual_f,
}


def check_all(p: WsmProblem) -> dict[str, WsmReport]:
    return {name: checker(p) for name, checker in CHECKERS.items()}


def concordant(reports: dict[str, WsmReport]) -> bool:
    verdicts = {r.verdict for r in reports.values()}
    return len(verdicts) == 1


def estimate_modulus(p: WsmProblem) -> float:
    """Largest grid-feasible sharpness modulus, to within 1e-3.

    Bisects the definition predicate over (0, alpha_hi], where alpha_hi
    comes from a Lipschitz-based cap (no modulus can outgrow the slope of
    the endpoints), held to the largest float, and stops at adjacent
    floats.  Returns 0 when not even a tiny modulus passes.
    """
    ctx = p.context()
    margins = np.empty_like(ctx.dists)

    def passes(alpha: float) -> bool:
        return bool(_margins(ctx.gaps, ctx.dists, alpha, margins).min() >= -p.margin_tol)

    if not passes(1e-6):
        return 0.0
    lip = lipschitz_estimate(p.f, 400, p.seed)
    hi = min(max(1.25 * lip, 1e-2), sys.float_info.max)
    if passes(hi):
        return hi
    lo = 1e-6
    while hi - lo > 1e-3:
        # 0.5 * (lo + hi) bit for bit, without overflowing past 1e308
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break  # adjacent floats, which are more than 1e-3 apart past 4.5e12
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return lo
