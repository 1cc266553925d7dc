"""Axis-aligned boxes and the cone machinery the sharpness checkers lean on.

Restricting feasible sets and candidate minimizer sets to boxes (including
point boxes and point-segment products) keeps every geometric primitive in
closed form: projection is a per-axis clamp, the tangent and normal cones
at any member point are axis-wise products of rays, lines and the origin,
and distances to those cones are again per-axis clamps.

Cone projection, membership and distance, and box membership and face
codes, accept one vector or an (m, n) array of them, one result per row.
A point's cones depend only on its face codes, so callers with many points
build each cone once per face (``group_rows``, ``OrthantCone.of_codes``).
A box's regular grid can be held by its axes (``GridAxes``), so that
elementwise work over it need not build its ``(N, n)`` array of points.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Sequence

import numpy as np

#: The floating-point policy of every kernel that computes on the user's
#: magnitudes: a result past the float range is inf, an invalid one NaN,
#: and no warning is printed; a margin so made reads as a failure.  It is
#: applied only as a decorator, since one ``np.errstate`` cannot be entered
#: twice by ``with``.
IEEE = np.errstate(all="ignore")

#: Per-axis tolerance for box membership.  Grid points generated from box
#: bounds must test as members despite float rounding.
MEMBER_TOL = 1e-12


class Tag(IntEnum):
    """Per-axis shape of an orthant cone, numbered as the face code
    (``BoxSet.face_codes``) whose tangent cone it is: bit 1 bounds the axis
    below by 0 and bit 2 bounds it above, so the polar is ``3 - tag`` and
    an intersection is the bitwise or."""

    FREE = 0    # whole axis
    NONNEG = 1  # [0, +inf)
    NONPOS = 2  # (-inf, 0]
    ZERO = 3    # {0}


#: The tags by code (indexing this is faster than calling ``Tag(code)``).
_TAGS = tuple(Tag)


@lru_cache(maxsize=None)
def _cone_bounds(tags: tuple[Tag, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis lower and upper bounds of the cone with these tags, and its
    mask of zero axes (cached: cones with the same tags recur)."""
    codes = np.array(tags, dtype=np.intp)
    lo = np.where(codes & Tag.NONNEG, 0.0, -np.inf)
    hi = np.where(codes & Tag.NONPOS, 0.0, np.inf)
    return lo, hi, codes == Tag.ZERO


def require_vector(a, n: int, name: str, kind: str) -> np.ndarray:
    """a as an (n,) float array, once ValueError has rejected another shape."""
    a = np.asarray(a, dtype=float)
    if a.shape != (n,):
        raise ValueError(f"{name} of shape {a.shape} is not a {kind} of {n} entries")
    return a


@IEEE
def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of an (m, n) array, or of one vector.

    Each row is one dot product, so the result equals ``np.linalg.norm`` of
    that row bit for bit (``np.linalg.norm(rows, axis=1)`` sums in another
    order and can differ in the last bit).  A row of finite entries whose
    square overflows is first divided by its largest magnitude (Blue, ACM
    TOMS 4(1), 1978), so its norm is inf only past the float range.
    """
    rows = np.ascontiguousarray(rows, dtype=float)
    norms = np.sqrt(np.matmul(rows[..., None, :], rows[..., :, None])[..., 0, 0])
    over = np.isinf(norms)
    if over.any():
        over &= np.isfinite(rows).all(axis=-1)
        scale = np.abs(rows).max(axis=-1)
        norms = np.where(over, scale * row_norms(rows / scale[..., None]), norms)
    return norms


@dataclass(frozen=True)
class OrthantCone:
    """Axis-wise product of rays/lines/origins; closed under polarity."""

    tags: tuple[Tag, ...]

    @property
    def dimension(self) -> int:
        return len(self.tags)

    @classmethod
    def of_codes(cls, codes: np.ndarray) -> "OrthantCone":
        """The tangent cone of a box at a point with these face codes
        (``BoxSet.face_codes``): each axis's tag is its code."""
        return cls(tuple(_TAGS[c] for c in codes.tolist()))

    def polar(self) -> "OrthantCone":
        return OrthantCone(tuple(_TAGS[3 - t] for t in self.tags))

    def project(self, d: Sequence[float]) -> np.ndarray:
        """Per-axis clamp onto the cone, of one vector or of each row of an
        (m, n) array."""
        d = np.asarray(d, dtype=float)
        lo, hi, zero = _cone_bounds(self.tags)
        # max(d, 0) / min(d, 0) with Python's first-wins semantics, and 0.0
        # on zero axes whatever d holds there
        return np.where(zero | (d < lo), lo, np.where(d > hi, hi, d))

    def contains(self, d: Sequence[float]):
        """Membership of one vector (a bool) or of each row of an (m, n)
        array (a bool array)."""
        d = np.asarray(d, dtype=float)
        lo, hi, _ = _cone_bounds(self.tags)
        outside = ((d < lo - MEMBER_TOL) | (d > hi + MEMBER_TOL)).any(axis=-1)
        return ~outside if d.ndim == 2 else not outside

    def intersect(self, other: "OrthantCone") -> "OrthantCone":
        if self.dimension != other.dimension:
            raise ValueError("cone dimension mismatch")
        # the bounds of both: nonneg with nonpos (or anything with zero)
        # meets only at the origin
        return OrthantCone(tuple(_TAGS[a | b] for a, b in zip(self.tags, other.tags)))

    def extreme_rays(self) -> list[np.ndarray]:
        """Unit generators: +-e_i on free axes, the signed e_i on ray axes."""
        rays = []
        for i, tag in enumerate(self.tags):
            # +e_i where the axis is not bounded above, -e_i where not below
            for sign, bound in ((1.0, Tag.NONPOS), (-1.0, Tag.NONNEG)):
                if not tag & bound:
                    e = np.zeros(self.dimension)
                    e[i] = sign
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

    @IEEE
    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).copy()
        hi = np.asarray(self.hi, dtype=float).copy()
        if lo.ndim != 1 or lo.shape != hi.shape or len(lo) == 0:
            raise ValueError("box bounds must be equal-length nonempty vectors")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValueError("box has lo > hi on some axis")
        if not np.isfinite(hi - lo).all():
            raise ValueError("box width hi - lo is past the float range on some axis")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return len(self.lo)

    def contains(self, x: Sequence[float]):
        """Membership of one point (a bool) or of each row of an (m, n)
        array (a bool array)."""
        x = np.asarray(x, dtype=float)
        inside = ((x >= self.lo - MEMBER_TOL) & (x <= self.hi + MEMBER_TOL)).all(axis=-1)
        return inside if x.ndim == 2 else bool(inside)

    def contains_box(self, other: "BoxSet") -> bool:
        return bool(
            np.all(other.lo >= self.lo - MEMBER_TOL) and np.all(other.hi <= self.hi + MEMBER_TOL)
        )

    def project(self, x: Sequence[float]) -> np.ndarray:
        """Per-axis clamp of one point, or of each row of an (m, n) array.

        Clips one column at a time against its scalar bounds.  That loop
        keeps a point's zero where it ties a zero bound of the other sign,
        and ``np.clip(x, lo, hi)`` with bound arrays takes the bound (the
        upper one if both are zero); so a zero bound is written over the
        zero results, which gives the bits of that call.
        """
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for j, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            column = out[..., j]
            np.clip(x[..., j], lo, hi, out=column)
            if hi == 0 or lo == 0:
                column[column == 0] = hi if hi == 0 else lo
        return out

    def face_codes(self, x: Sequence[float]) -> np.ndarray:
        """Where each coordinate of a point, or of each row of an (m, n)
        array, sits in the box: 1 at the lower bound only, 2 at the upper
        only, 3 at both (a point axis), 0 strictly inside.  Points with
        equal codes lie on the same face, so they have the same tangent and
        normal cones."""
        x = np.asarray(x, dtype=float)
        return (x <= self.lo + MEMBER_TOL) + 2 * (x >= self.hi - MEMBER_TOL)

    def tangent_cone(self, x: Sequence[float]) -> OrthantCone:
        """Feasible-direction cone at a member point, one tag per axis."""
        x = np.asarray(x, dtype=float)
        if not self.contains(x):
            raise ValueError(f"{x} is not a member of the box")
        return OrthantCone.of_codes(self.face_codes(x))

    def normal_cone(self, x: Sequence[float]) -> OrthantCone:
        """Polar of the tangent cone at a member point."""
        return self.tangent_cone(x).polar()

    def grid_axes(self, points_per_axis: int) -> "GridAxes":
        """The regular grid over the box, held by its axes."""
        k = max(2, int(points_per_axis))
        return GridAxes(
            [
                np.linspace(lo, hi, k) if hi > lo else np.array([lo])
                for lo, hi in zip(self.lo, self.hi)
            ]
        )

    def grid(self, points_per_axis: int) -> np.ndarray:
        """Regular grid over the box, point axes contributing a single value.

        Rows enumerate points in C-order over the axes, so iteration order
        (and hence any argmin witness) is deterministic.
        """
        return self.grid_axes(points_per_axis).points()


class GridAxes:
    """A tensor-product grid, held by its axes: ``axes[j]`` holds the values
    of coordinate j (one on a point axis).

    Only free axes get an array dimension (NumPy allows 64), of lengths
    ``shape``: ``columns[j]`` is ``axes[j]`` shaped to broadcast along them.
    An elementwise operation on the columns gives the bits it gives on the
    columns of :meth:`points`, whose rows number the points in C order.
    """

    def __init__(self, axes: list[np.ndarray]):
        self.axes = axes
        self.free = [j for j, a in enumerate(axes) if len(a) > 1]
        self.shape = tuple(len(axes[j]) for j in self.free)
        self.columns = [
            a.reshape([-1 if i == j else 1 for i in self.free]) for j, a in enumerate(axes)
        ]

    def points(self) -> np.ndarray:
        """The (N, n) array of the points."""
        n = len(self.axes)
        grid = np.empty((*self.shape, n))
        for j, column in enumerate(self.columns):
            grid[..., j] = column
        return grid.reshape(-1, n)

    def point(self, i: int) -> np.ndarray:
        """Row i of :meth:`points`, read from the axes."""
        at = dict(zip(self.free, np.unravel_index(i, self.shape)))
        return np.array([a[at.get(j, 0)] for j, a in enumerate(self.axes)])

    def fill(self, values) -> np.ndarray:
        """Values that broadcast along the free axes, one per point."""
        if np.shape(values) != self.shape:
            out = np.empty(self.shape)
            out[...] = values
            values = out
        return values.reshape(-1)


def group_rows(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of an (m, c) array, byte for byte (so 0.0 and
    -0.0 differ): the group of each row, and the first row of each group."""
    keys = np.ascontiguousarray(keys)
    rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
    _, first, group = np.unique(rows, return_index=True, return_inverse=True)
    return group, first


def cone_ball_support(k_normal: OrthantCone, alpha: float, d: Sequence[float]):
    """Support value over d (or each row of d) of the radius-alpha ball
    intersected with the cone.

    Equals alpha times the distance from d to the polar cone; by Moreau's
    decomposition this is also alpha * ||projection of d onto k_normal||.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    return alpha * dist_to_cone(d, k_normal.polar())
