"""Boxes, cones, projections, and the distance identities behind the checkers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivwsm import BoxSet, OrthantCone, Tag, cone_ball_support, cone_ball_support_sampled
from ivwsm import dist, dist_to_cone, normal_cone, project, tangent_cone
from ivwsm.geometry import MEMBER_TOL, row_norms

from conftest import cube, point_box


def box2(lo1, hi1, lo2, hi2):
    return BoxSet(np.array([lo1, lo2]), np.array([hi1, hi2]))


tags = st.sampled_from(list(Tag))
cones = st.lists(tags, min_size=1, max_size=4).map(lambda ts: OrthantCone(tuple(ts)))


class TestProjection:
    def test_clamp_example(self):
        c = box2(-1, 0, -1, 0)
        assert np.allclose(project([2, -3], c), [0, -1])
        # grid-minimization oracle agrees
        grid = c.grid(41)
        dists = np.linalg.norm(grid - np.array([2, -3]), axis=1)
        assert np.allclose(grid[np.argmin(dists)], [0, -1], atol=0.03)

    def test_interior_point_fixed(self):
        c = box2(-1, 0, -1, 0)
        assert np.allclose(project([-0.5, -0.25], c), [-0.5, -0.25])

    def test_point_box(self):
        assert project([0.5], point_box(0.0)) == pytest.approx([0.0])


class TestDistance:
    def test_example(self):
        assert dist([2, -3], box2(-1, 0, -1, 0)) == pytest.approx(np.sqrt(8.0))

    def test_member_has_zero_distance(self):
        assert dist([-0.5, 0.0], box2(-1, 0, -1, 0)) == 0.0

    def test_point_box(self):
        assert dist([0.7], point_box(0.0)) == pytest.approx(0.7)


class TestTangentNormal:
    def test_mixed_face(self):
        c = box2(-1, 0, -1, 0)
        t = tangent_cone(c, [0.0, -0.5])
        assert t.tags == (Tag.NONPOS, Tag.FREE)
        n = normal_cone(c, [0.0, -0.5])
        assert n.tags == (Tag.NONNEG, Tag.ZERO)

    def test_interior(self):
        c = box2(-1, 0, -1, 0)
        assert tangent_cone(c, [-0.5, -0.5]).tags == (Tag.FREE, Tag.FREE)
        assert normal_cone(c, [-0.5, -0.5]).tags == (Tag.ZERO, Tag.ZERO)

    def test_point_box(self):
        assert tangent_cone(point_box(0.0, 1.0), [0.0, 1.0]).tags == (Tag.ZERO, Tag.ZERO)
        assert normal_cone(point_box(0.0), [0.0]).tags == (Tag.FREE,)

    def test_nonmember_rejected(self):
        with pytest.raises(ValueError):
            tangent_cone(box2(-1, 0, -1, 0), [0.5, 0.0])

    def test_tangent_directions_sampled(self):
        # tags match sampled feasibility of x + t*d for small t
        c = box2(-1, 0, -1, 0)
        x = np.array([0.0, -0.5])
        t_cone = tangent_cone(c, x)
        rng = np.random.default_rng(5)
        for d in rng.normal(size=(50, 2)):
            feasible = c.contains(x + 1e-7 * d)
            assert t_cone.contains(d, tol=1e-9) == feasible

    def test_normal_cone_variational_inequality(self):
        # members g of the normal cone satisfy <g, y - x> <= 0 over the box
        c = box2(-1, 0, -1, 0)
        x = np.array([0.0, -0.5])
        n_cone = normal_cone(c, x)
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
        assert k.contains(p, tol=1e-12)
        assert np.allclose(k.project(p), p)

    def test_intersection(self):
        a = OrthantCone((Tag.FREE, Tag.NONPOS, Tag.NONNEG))
        b = OrthantCone((Tag.NONNEG, Tag.NONNEG, Tag.NONNEG))
        assert a.intersect(b).tags == (Tag.NONNEG, Tag.ZERO, Tag.NONNEG)
        assert OrthantCone((Tag.ZERO,)).is_zero_cone


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
                target = c.dist(y)
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


class TestConeBallSupport:
    def test_full_space_gives_scaled_norm(self):
        # candidate set is a single point: its normal cone is everything
        n_cone = normal_cone(point_box(0.0, 0.0), [0.0, 0.0])
        d = np.array([3.0, 4.0])
        assert cone_ball_support(n_cone, 2.0, d) == pytest.approx(10.0)

    def test_tangent_direction_gives_zero(self):
        c = box2(-1, 0, -1, 0)
        n_cone = normal_cone(c, [-0.5, -0.5])  # interior: normal cone is {0}
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
