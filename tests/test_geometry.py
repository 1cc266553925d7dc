"""Boxes, cones, projections, and the distance identities behind the checkers."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivwsm import BoxSet, OrthantCone, Tag, cone_ball_support
from ivwsm import dist_to_cone
from ivwsm.geometry import MEMBER_TOL, _cone_bounds, row_norms

from conftest import box_dist, point_box
from test_expr import same_bits


def box2(lo1, hi1, lo2, hi2):
    return BoxSet(np.array([lo1, lo2]), np.array([hi1, hi2]))


tags = st.sampled_from(list(Tag))
cones = st.lists(tags, min_size=1, max_size=4).map(lambda ts: OrthantCone(tuple(ts)))


class TestProjection:
    def test_clamp_example(self):
        c = box2(-1, 0, -1, 0)
        assert np.allclose(c.project([2, -3]), [0, -1])
        # grid-minimization oracle agrees
        grid = c.grid(41)
        dists = np.linalg.norm(grid - np.array([2, -3]), axis=1)
        assert np.allclose(grid[np.argmin(dists)], [0, -1], atol=0.03)

    def test_interior_point_fixed(self):
        c = box2(-1, 0, -1, 0)
        assert np.allclose(c.project([-0.5, -0.25]), [-0.5, -0.25])

    def test_point_box(self):
        assert point_box(0.0).project([0.5]) == pytest.approx([0.0])


class TestDistance:
    def test_example(self):
        assert box_dist(box2(-1, 0, -1, 0), [2, -3]) == pytest.approx(np.sqrt(8.0))

    def test_member_has_zero_distance(self):
        assert box_dist(box2(-1, 0, -1, 0), [-0.5, 0.0]) == 0.0

    def test_point_box(self):
        assert box_dist(point_box(0.0), [0.7]) == pytest.approx(0.7)


class TestTangentNormal:
    def test_mixed_face(self):
        c = box2(-1, 0, -1, 0)
        t = c.tangent_cone([0.0, -0.5])
        assert t.tags == (Tag.NONPOS, Tag.FREE)
        n = c.normal_cone([0.0, -0.5])
        assert n.tags == (Tag.NONNEG, Tag.ZERO)

    def test_interior(self):
        c = box2(-1, 0, -1, 0)
        assert c.tangent_cone([-0.5, -0.5]).tags == (Tag.FREE, Tag.FREE)
        assert c.normal_cone([-0.5, -0.5]).tags == (Tag.ZERO, Tag.ZERO)

    def test_point_box(self):
        assert point_box(0.0, 1.0).tangent_cone([0.0, 1.0]).tags == (Tag.ZERO, Tag.ZERO)
        assert point_box(0.0).normal_cone([0.0]).tags == (Tag.FREE,)

    def test_nonmember_rejected(self):
        with pytest.raises(ValueError):
            box2(-1, 0, -1, 0).tangent_cone([0.5, 0.0])

    def test_face_codes_of_rows_give_the_tangent_tags(self):
        c = box2(-1, 0, -1, -1)
        rows = np.array([[-1.0, -1.0], [-0.5, -1.0], [0.0, -1.0], [-1.0 + 5e-13, -1.0]])
        assert c.face_codes(rows).tolist() == [[1, 3], [0, 3], [2, 3], [1, 3]]
        for x, codes in zip(rows, c.face_codes(rows)):
            assert list(c.face_codes(x)) == list(codes)
            assert c.tangent_cone(x).tags == tuple(
                (Tag.FREE, Tag.NONNEG, Tag.NONPOS, Tag.ZERO)[k] for k in codes
            )

    def test_membership_of_rows(self):
        c = box2(-1, 0, -1, 0)
        rows = np.array([[-0.5, -0.5], [0.5, 0.0], [0.0, np.nan], [1e-13, -1.0]])
        assert c.contains(rows).tolist() == [c.contains(x) for x in rows] == [
            True, False, False, True
        ]

    def test_tangent_directions_sampled(self):
        # tags match sampled feasibility of x + t*d for small t
        c = box2(-1, 0, -1, 0)
        x = np.array([0.0, -0.5])
        t_cone = c.tangent_cone(x)
        rng = np.random.default_rng(5)
        for d in rng.normal(size=(50, 2)):
            feasible = c.contains(x + 1e-7 * d)
            assert t_cone.contains(d) == feasible

    def test_normal_cone_variational_inequality(self):
        # members g of the normal cone satisfy <g, y - x> <= 0 over the box
        c = box2(-1, 0, -1, 0)
        x = np.array([0.0, -0.5])
        n_cone = c.normal_cone(x)
        rng = np.random.default_rng(6)
        ys = c.grid(9)
        for u in rng.normal(size=(25, 2)):
            g = n_cone.project(u)
            assert np.max((ys - x) @ g) <= 1e-9


class TestConeOps:
    @given(cones)
    def test_polar_involution(self, k):
        assert k.polar().polar() == k

    def test_dist_to_cone_examples(self):
        k = OrthantCone((Tag.NONPOS, Tag.FREE))
        assert dist_to_cone([1, 0], k) == pytest.approx(1.0)
        assert dist_to_cone([-1, 2], k) == 0.0
        assert dist_to_cone([-0.3, 5], k) == 0.0

    @given(cones, st.data())
    def test_projection_is_member_and_idempotent(self, k, data):
        d = np.array(data.draw(st.lists(
            st.floats(-10, 10, allow_nan=False),
            min_size=k.dimension, max_size=k.dimension)))
        p = k.project(d)
        assert k.contains(p)
        assert np.allclose(k.project(p), p)

    def test_intersection(self):
        a = OrthantCone((Tag.FREE, Tag.NONPOS, Tag.NONNEG))
        b = OrthantCone((Tag.NONNEG, Tag.NONNEG, Tag.NONNEG))
        assert a.intersect(b).tags == (Tag.NONNEG, Tag.ZERO, Tag.NONNEG)
        assert a.intersect(a.polar()).tags == (Tag.ZERO,) * 3
        # all 16 tag pairs, one per axis, against the case-by-case rule
        pairs = list(itertools.product(Tag, repeat=2))
        a = OrthantCone(tuple(s for s, _ in pairs))
        b = OrthantCone(tuple(t for _, t in pairs))
        merged = a.intersect(b).tags
        assert all(m is intersect_reference(s, t) for m, (s, t) in zip(merged, pairs))
        assert len(merged) == 16

    def test_tags_are_face_codes(self):
        assert [int(t) for t in Tag] == [0, 1, 2, 3]
        assert list(Tag) == [Tag.FREE, Tag.NONNEG, Tag.NONPOS, Tag.ZERO]

    def test_polar_bounds_and_rays_match_the_reference_tables(self):
        cone = OrthantCone(tuple(Tag))
        assert all(p is POLAR_REFERENCE[t] for p, t in zip(cone.polar().tags, Tag))
        lo, hi, zero = _cone_bounds(cone.tags)
        assert same_bits(lo, np.array([BOUNDS_REFERENCE[t][0] for t in Tag]))
        assert same_bits(hi, np.array([BOUNDS_REFERENCE[t][1] for t in Tag]))
        assert zero.tolist() == [False, False, False, True]
        for tags in [*((t,) for t in Tag), tuple(Tag)]:
            rays = OrthantCone(tags).extreme_rays()
            expected = extreme_rays_reference(tags)
            assert len(rays) == len(expected)
            assert all(same_bits(r, e) for r, e in zip(rays, expected))


#: Reference tables of the per-axis cone rules, written out tag by tag.
POLAR_REFERENCE = {
    Tag.FREE: Tag.ZERO,
    Tag.ZERO: Tag.FREE,
    Tag.NONNEG: Tag.NONPOS,
    Tag.NONPOS: Tag.NONNEG,
}
BOUNDS_REFERENCE = {
    Tag.FREE: (-np.inf, np.inf),
    Tag.NONNEG: (0.0, np.inf),
    Tag.NONPOS: (-np.inf, 0.0),
    Tag.ZERO: (0.0, 0.0),
}


def intersect_reference(a, b):
    """Reference oracle: the tag of the meet of two per-axis cones, by cases."""
    if a is Tag.FREE:
        return b
    if b is Tag.FREE:
        return a
    if a is b:
        return a
    # nonneg/nonpos (or anything vs zero) meet only at the origin
    return Tag.ZERO


def extreme_rays_reference(tags):
    """Reference oracle: +e_i on free and nonneg axes, -e_i on free and
    nonpos ones, in axis order."""
    rays = []
    for i, tag in enumerate(tags):
        for sign, kinds in ((1.0, (Tag.FREE, Tag.NONNEG)), (-1.0, (Tag.FREE, Tag.NONPOS))):
            if tag in kinds:
                e = np.zeros(len(tags))
                e[i] = sign
                rays.append(e)
    return rays


def project_reference(cone, d):
    """Reference oracle: the per-axis clamp, one axis at a time."""
    out = [float(v) for v in d]
    for i, tag in enumerate(cone.tags):
        if tag is Tag.NONNEG:
            out[i] = max(out[i], 0.0)
        elif tag is Tag.NONPOS:
            out[i] = min(out[i], 0.0)
        elif tag is Tag.ZERO:
            out[i] = 0.0
    return np.array(out)


def contains_reference(cone, d, tol=MEMBER_TOL):
    """Reference oracle: per-axis membership, one axis at a time."""
    for v, tag in zip(d, cone.tags):
        if tag is Tag.NONNEG and v < -tol:
            return False
        if tag is Tag.NONPOS and v > tol:
            return False
        if tag is Tag.ZERO and abs(v) > tol:
            return False
    return True


class TestConeRows:
    """The row and one-vector forms equal the per-axis rules bit for bit."""

    @given(cone=cones, seed=st.integers(0, 2**32 - 1))
    def test_rows_and_vectors_match_the_per_axis_rules(self, cone, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(12, cone.dimension)) * 10.0 ** rng.integers(-3, 3, (12, 1))
        rows[rng.random(rows.shape) < 0.2] = -0.0
        rows[rng.random(rows.shape) < 0.1] = 1e-13  # inside the membership slack
        projected = cone.project(rows)
        distances = dist_to_cone(rows, cone)
        inside = cone.contains(rows)
        for i, d in enumerate(rows):
            expected = project_reference(cone, d)
            assert projected[i].tobytes() == cone.project(d).tobytes() == expected.tobytes()
            dist_d = dist_to_cone(d, cone)
            assert type(dist_d) is float
            assert distances[i] == dist_d == np.linalg.norm(d - expected)
            assert inside[i] == cone.contains(d) is contains_reference(cone, d)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_row_norms_match_linalg_norm_per_vector(self, n):
        rows = np.random.default_rng(n).normal(size=(500, n))
        assert [float(v) for v in row_norms(rows)] == [np.linalg.norm(r) for r in rows]

    def test_a_row_whose_square_overflows_is_rescaled(self):
        # the other rows keep their bits; a row past the float range, or
        # with an infinite entry, is inf, and a NaN entry gives NaN
        big = 2.0**600  # squared past the float range, and a power of 2
        rows = np.array([[3 * big, -4 * big], [0.6, 0.8], [1.5e308, 1.5e308],
                         [np.inf, 1.0], [np.nan, 1e200], [0.0, 0.0]])
        norms = row_norms(rows)
        assert norms[0] == 5 * big and norms[1] == np.linalg.norm(rows[1])
        assert norms[2] == norms[3] == np.inf and np.isnan(norms[4]) and norms[5] == 0.0
        assert row_norms(rows[0]) == 5 * big and row_norms(np.array([-1e300])) == 1e300


class TestBoxColumnKernels:
    """Grid and projection, built one column at a time, equal the
    whole-array forms they replace byte for byte."""

    @staticmethod
    def grid_reference(box, k):
        axes = [np.array([lo]) if hi - lo <= 0 else np.linspace(lo, hi, max(2, k))
                for lo, hi in zip(box.lo, box.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    @pytest.mark.parametrize(
        "lo, hi, k",
        [
            ([-1.0], [1.0], 7),
            ([0.0], [0.0], 5),
            ([-1.0, 0.3, -2.0], [1.0, 0.3, 0.5], 4),
            ([0.1, -1.0, 0.0, -0.7, 2.0], [0.1, 1.0, 0.0, 0.9, 2.5], 3),
            ([-1.0, -1.0, 0.5, -1.0], [1.0, 1.0, 0.5, 1.0], 13),
        ],
    )
    def test_grid_equals_meshgrid_and_stack(self, lo, hi, k):
        box = BoxSet(np.array(lo), np.array(hi))
        grid = box.grid(k)
        expected = self.grid_reference(box, k)
        assert grid.shape == expected.shape and grid.tobytes() == expected.tobytes()
        assert grid.flags.c_contiguous

    @pytest.mark.parametrize(
        "lo, hi",
        [([0.5], [0.5]), ([-1.0], [1.0]), ([-1.0, 0.3, -2.0], [1.0, 0.3, 0.5]),
         ([0.1, -1.0, 0.0, -0.7], [0.1, 1.0, 0.0, 0.9])],
    )
    def test_grid_axes_name_and_fill_their_points(self, lo, hi):
        grid = BoxSet(np.array(lo), np.array(hi)).grid_axes(4)
        points = grid.points()
        assert points.tobytes() == BoxSet(np.array(lo), np.array(hi)).grid(4).tobytes()
        for i, row in enumerate(points):
            assert grid.point(i).tobytes() == row.tobytes()
        # a column filled out to one value per point is that column of the points
        for j, column in enumerate(grid.columns):
            assert grid.fill(column).tobytes() == points[:, j].tobytes()
        assert grid.fill(np.float64(-0.0)).tobytes() == np.full(len(points), -0.0).tobytes()

    @pytest.mark.parametrize("n", [64, 100])
    def test_point_axes_past_numpys_64_dimensions(self, n):
        # only the free axes 3 and 40 span the grid; the other n - 2 columns
        # hold their point values (meshgrid itself stops at 64 axes)
        lo = np.linspace(-1.0, 1.0, n)
        hi = lo.copy()
        hi[[3, 40]] += 0.5
        box = BoxSet(lo, hi)
        grid = box.grid(5)
        free = self.grid_reference(BoxSet(lo[[3, 40]], hi[[3, 40]]), 5)
        expected = np.tile(lo, (len(free), 1))
        expected[:, [3, 40]] = free
        assert grid.shape == (25, n) and grid.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_project_equals_clip(self, n):
        rng = np.random.default_rng(n)
        lo = rng.uniform(-1, 0.5, size=n)
        hi = np.where(rng.random(n) < 0.3, lo, lo + rng.uniform(0.1, 1, size=n))
        lo[0], hi[0] = 0.0, 0.0  # a point axis at zero meets -0.0 and NaN
        box = BoxSet(lo, hi)
        rows = rng.uniform(-2, 2, size=(200, n))
        rows[rng.random(rows.shape) < 0.1] = 0.0
        rows[rng.random(rows.shape) < 0.1] = -0.0
        rows[rng.random(rows.shape) < 0.05] = np.nan
        rows[rng.random(rows.shape) < 0.05] = np.inf
        projected = box.project(rows)
        if n > 1:
            assert projected.tobytes() == np.clip(rows, box.lo, box.hi).tobytes()
        # on an (m, 1) array np.clip takes its scalar-bound loop, which keeps
        # -0.0 against the bound 0.0; the one-point form is the reference
        for x, row in zip(rows, projected):
            one = box.project(x)
            assert one.shape == (n,)
            assert one.tobytes() == row.tobytes() == np.clip(x, box.lo, box.hi).tobytes()
        assert box.project(list(rows[0])).tobytes() == projected[0].tobytes()


class TestDistanceFormula:
    def sample_boxes(self):
        rng = np.random.default_rng(42)
        boxes = []
        for _ in range(5):
            n = int(rng.integers(1, 4))
            lo = rng.uniform(-2, 0.5, size=n)
            hi = lo + rng.uniform(0.1, 2, size=n)
            boxes.append(BoxSet(lo, hi))
        return boxes, rng

    def test_distance_as_supremum_over_shifted_tangent_cones(self):
        # dist(y, C) equals the max over x in C of dist(y - x, T_C(x));
        # the max is attained at the projection, which joins the sample
        boxes, rng = self.sample_boxes()
        for c in boxes:
            grid = c.grid(7)
            for y in rng.uniform(-3, 3, size=(100, c.dimension)):
                target = box_dist(c, y)
                candidates = [
                    dist_to_cone(y - x, c.tangent_cone(x))
                    for x in np.vstack([grid, c.project(y)[None, :]])
                ]
                assert max(candidates) == pytest.approx(target, abs=1e-6)

    def test_normal_directions_attain_their_norm(self):
        boxes, rng = self.sample_boxes()
        for c in boxes:
            for x in c.grid(5):
                t_cone = c.tangent_cone(x)
                n_cone = t_cone.polar()
                for u in rng.normal(size=(20, c.dimension)):
                    d = n_cone.project(u)
                    assert dist_to_cone(d, t_cone) == pytest.approx(
                        float(np.linalg.norm(d)), abs=1e-9
                    )


def cone_ball_support_sampled(
    k_normal: OrthantCone,
    alpha: float,
    d: np.ndarray,
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


class TestConeBallSupport:
    def test_full_space_gives_scaled_norm(self):
        # candidate set is a single point: its normal cone is everything
        n_cone = point_box(0.0, 0.0).normal_cone([0.0, 0.0])
        d = np.array([3.0, 4.0])
        assert cone_ball_support(n_cone, 2.0, d) == pytest.approx(10.0)

    def test_tangent_direction_gives_zero(self):
        c = box2(-1, 0, -1, 0)
        n_cone = c.normal_cone([-0.5, -0.5])  # interior: normal cone is {0}
        assert cone_ball_support(n_cone, 1.0, [1.0, 1.0]) == 0.0

    def test_axis_face_example(self):
        n_cone = OrthantCone((Tag.NONNEG, Tag.ZERO))
        assert cone_ball_support(n_cone, 2.0, [1.0, 5.0]) == pytest.approx(2.0)

    def test_sampled_route_agrees(self):
        rng = np.random.default_rng(7)
        cones_to_try = [
            OrthantCone((Tag.FREE, Tag.FREE)),
            OrthantCone((Tag.NONNEG, Tag.ZERO)),
            OrthantCone((Tag.NONPOS, Tag.FREE, Tag.NONNEG)),
            OrthantCone((Tag.ZERO, Tag.ZERO)),
            OrthantCone((Tag.NONNEG,)),
        ]
        for k in cones_to_try:
            for alpha in (0.5, 2.0):
                for _ in range(10):
                    d = rng.normal(size=k.dimension)
                    closed = cone_ball_support(k, alpha, d)
                    sampled = cone_ball_support_sampled(k, alpha, d, seed=3)
                    assert sampled == pytest.approx(
                        closed, rel=1e-3, abs=1e-9
                    )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_alpha_times_the_tangent_cone_distance_bit_for_bit(self, n):
        # Moreau: the support value of alpha*B and the polar of T is
        # alpha * dist(d, T), so dual-b's support route is primal's table
        rng = np.random.default_rng(n)
        dirs = np.vstack([np.eye(n), -np.eye(n), np.zeros((1, n)), rng.normal(size=(20, n))])
        for tags in itertools.product(Tag, repeat=n):
            t_cone = OrthantCone(tags)
            for alpha in (0.37, 1.0, 2.5):
                closed = cone_ball_support(t_cone.polar(), alpha, dirs)
                assert same_bits(closed, alpha * dist_to_cone(dirs, t_cone))
