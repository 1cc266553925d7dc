"""Axis-aligned boxes and the cone machinery the sharpness checkers lean on.

Restricting feasible sets and candidate minimizer sets to boxes (including
point boxes and point-segment products) keeps every geometric primitive in
closed form: projection is a per-axis clamp, the tangent and normal cones
at any member point are axis-wise products of rays, lines and the origin,
and distances to those cones are again per-axis clamps.

Cone projection, membership and distance accept one vector or an (m, n)
array of them, one result per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Sequence

import numpy as np

#: Per-axis tolerance for box membership.  Grid points generated from box
#: bounds must test as members despite float rounding.
MEMBER_TOL = 1e-12


class Tag(Enum):
    FREE = "free"      # whole axis
    NONNEG = "nonneg"  # [0, +inf)
    NONPOS = "nonpos"  # (-inf, 0]
    ZERO = "zero"      # {0}


_POLAR = {Tag.FREE: Tag.ZERO, Tag.ZERO: Tag.FREE, Tag.NONNEG: Tag.NONPOS, Tag.NONPOS: Tag.NONNEG}
#: Per-axis (lower, upper) bound of each tag's ray, line or origin.
_BOUNDS = {
    Tag.FREE: (-np.inf, np.inf),
    Tag.NONNEG: (0.0, np.inf),
    Tag.NONPOS: (-np.inf, 0.0),
    Tag.ZERO: (0.0, 0.0),
}


@lru_cache(maxsize=None)
def _cone_bounds(tags: tuple[Tag, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis lower and upper bounds of the cone with these tags, and its
    mask of zero axes (cached: cones are rebuilt at every grid point)."""
    lo = np.array([_BOUNDS[t][0] for t in tags])
    hi = np.array([_BOUNDS[t][1] for t in tags])
    return lo, hi, np.array([t is Tag.ZERO for t in tags])


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (m, n) array, or of one vector.

    Each row is one dot product, so the result equals ``np.linalg.norm`` of
    that row bit for bit (``np.linalg.norm(rows, axis=1)`` sums in another
    order and can differ in the last bit).
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    return np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])


@dataclass(frozen=True)
class OrthantCone:
    """Axis-wise product of rays/lines/origins; closed under polarity."""

    tags: tuple[Tag, ...]

    @property
    def dimension(self) -> int:
        return len(self.tags)

    def polar(self) -> "OrthantCone":
        return OrthantCone(tuple(_POLAR[t] for t in self.tags))

    def project(self, d: Sequence[float]) -> np.ndarray:
        """Per-axis clamp onto the cone, of one vector or of each row of an
        (m, n) array."""
        d = np.asarray(d, dtype=float)
        lo, hi, zero = _cone_bounds(self.tags)
        # max(d, 0) / min(d, 0) with Python's first-wins semantics, and 0.0
        # on zero axes whatever d holds there
        return np.where(zero | (d < lo), lo, np.where(d > hi, hi, d))

    def contains(self, d: Sequence[float], tol: float = MEMBER_TOL):
        """Membership of one vector (a bool) or of each row of an (m, n)
        array (a bool array)."""
        d = np.asarray(d, dtype=float)
        lo, hi, _ = _cone_bounds(self.tags)
        outside = ((d < lo - tol) | (d > hi + tol)).any(axis=-1)
        return ~outside if d.ndim == 2 else not outside

    def intersect(self, other: "OrthantCone") -> "OrthantCone":
        if self.dimension != other.dimension:
            raise ValueError("cone dimension mismatch")
        merged = []
        for a, b in zip(self.tags, other.tags):
            if a is Tag.FREE:
                merged.append(b)
            elif b is Tag.FREE:
                merged.append(a)
            elif a is b:
                merged.append(a)
            else:
                # nonneg/nonpos (or anything vs zero) meet only at the origin
                merged.append(Tag.ZERO)
        return OrthantCone(tuple(merged))

    @property
    def is_zero_cone(self) -> bool:
        return all(t is Tag.ZERO for t in self.tags)

    def extreme_rays(self) -> list[np.ndarray]:
        """Unit generators: +-e_i on free axes, the signed e_i on ray axes."""
        rays = []
        n = self.dimension
        for i, tag in enumerate(self.tags):
            if tag in (Tag.FREE, Tag.NONNEG):
                e = np.zeros(n)
                e[i] = 1.0
                rays.append(e)
            if tag in (Tag.FREE, Tag.NONPOS):
                e = np.zeros(n)
                e[i] = -1.0
                rays.append(e)
        return rays


def dist_to_cone(d: Sequence[float], k: OrthantCone):
    """Euclidean distance from d, or from each row of d, to the cone (via
    the per-axis clamp)."""
    d = np.asarray(d, dtype=float)
    dist = row_norms(d - k.project(d))
    return dist if d.ndim == 2 else float(dist)


@dataclass(frozen=True)
class BoxSet:
    """Nonempty axis-aligned box; an axis may be a single point (lo == hi)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).copy()
        hi = np.asarray(self.hi, dtype=float).copy()
        if lo.ndim != 1 or lo.shape != hi.shape or len(lo) == 0:
            raise ValueError("box bounds must be equal-length nonempty vectors")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box has lo > hi on some axis")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def contains(self, x: Sequence[float], tol: float = MEMBER_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        return bool((x >= self.lo - tol).all() and (x <= self.hi + tol).all())

    def contains_box(self, other: "BoxSet", tol: float = MEMBER_TOL) -> bool:
        return bool(
            np.all(other.lo >= self.lo - tol) and np.all(other.hi <= self.hi + tol)
        )

    def project(self, x: Sequence[float]) -> np.ndarray:
        return np.clip(np.asarray(x, dtype=float), self.lo, self.hi)

    def dist(self, x: Sequence[float]) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.linalg.norm(x - self.project(x)))

    def tangent_cone(self, x: Sequence[float], tol: float = MEMBER_TOL) -> OrthantCone:
        """Feasible-direction cone at a member point, one tag per axis."""
        x = np.asarray(x, dtype=float)
        if not self.contains(x, tol):
            raise ValueError(f"{x} is not a member of the box")
        tags = []
        # Python floats compare faster than NumPy scalars, with the same result
        for xi, lo, hi in zip(x.tolist(), self.lo.tolist(), self.hi.tolist()):
            at_lo = xi <= lo + tol
            at_hi = xi >= hi - tol
            if at_lo and at_hi:
                tags.append(Tag.ZERO)
            elif at_lo:
                tags.append(Tag.NONNEG)
            elif at_hi:
                tags.append(Tag.NONPOS)
            else:
                tags.append(Tag.FREE)
        return OrthantCone(tuple(tags))

    def normal_cone(self, x: Sequence[float], tol: float = MEMBER_TOL) -> OrthantCone:
        """Polar of the tangent cone at a member point."""
        return self.tangent_cone(x, tol).polar()

    def grid(self, points_per_axis: int | Sequence[int]) -> np.ndarray:
        """Regular grid over the box, point axes contributing a single value.

        Rows enumerate points in C-order over the axes, so iteration order
        (and hence any argmin witness) is deterministic.
        """
        n = self.dimension
        if isinstance(points_per_axis, int):
            counts = [points_per_axis] * n
        else:
            counts = list(points_per_axis)
        axes = []
        for lo, hi, k in zip(self.lo, self.hi, counts):
            if hi - lo <= 0:
                axes.append(np.array([lo]))
            else:
                axes.append(np.linspace(lo, hi, max(2, int(k))))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(count, self.dimension))


def project(x: Sequence[float], c: BoxSet) -> np.ndarray:
    return c.project(x)


def dist(x: Sequence[float], c: BoxSet) -> float:
    return c.dist(x)


def tangent_cone(c: BoxSet, x: Sequence[float]) -> OrthantCone:
    return c.tangent_cone(x)


def normal_cone(c: BoxSet, x: Sequence[float]) -> OrthantCone:
    return c.normal_cone(x)


def cone_ball_support(k_normal: OrthantCone, alpha: float, d: Sequence[float]):
    """Support value over d (or each row of d) of the radius-alpha ball
    intersected with the cone.

    Equals alpha times the distance from d to the polar cone; by Moreau's
    decomposition this is also alpha * ||projection of d onto k_normal||.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return alpha * dist_to_cone(d, k_normal.polar())


def cone_ball_support_sampled(
    k_normal: OrthantCone,
    alpha: float,
    d: Sequence[float],
    samples: int = 256,
    seed: int = 0,
    polish_iters: int = 200,
) -> float:
    """Independent route to `cone_ball_support`: maximize <z, d> directly.

    Seeds many z inside the cone-ball intersection, keeps the best, then
    runs projected gradient ascent (the feasible set projects exactly:
    clamp per axis, then truncate into the ball).
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    d = np.asarray(d, dtype=float)
    rng = np.random.default_rng(seed)

    def feasible(z: np.ndarray) -> np.ndarray:
        """Clamp onto the cone, then truncate into the ball (z one vector
        or rows; a scale of alpha / alpha is exactly 1)."""
        z = k_normal.project(z)
        return z * (alpha / np.maximum(row_norms(z), alpha))[..., None]

    seeds = feasible(rng.normal(size=(samples, len(d))))
    norms = row_norms(seeds)
    seeds = seeds * (alpha / np.where(norms > 0, norms, alpha))[:, None]
    vals = seeds @ d
    best, best_val = np.zeros(len(d)), 0.0
    i = int(np.argmax(vals))  # the first best seed
    if vals[i] > best_val:
        best, best_val = seeds[i], float(vals[i])
    step = alpha / (np.linalg.norm(d) + 1e-30)
    z = best
    for _ in range(polish_iters):
        z = feasible(z + step * d)
        val = float(z @ d)
        if val > best_val:
            best_val = val
    return best_val
