"""Evaluation, directional derivatives, gradients, convexity and Lipschitz
estimation of interval-valued objectives."""

import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivwsm import BoxSet, Interval, Ivf, RestrictedIvf, WsmProblem, boundedness_check, dominance
from ivwsm import convexity_check, gh_difference
from ivwsm import dir_derivatives, lipschitz_estimate, scalar_mul, subdiff_support
from ivwsm import PLUS_INF, EvalError, add, inf_family, interval_norm, sup_family
from ivwsm.intervals import is_finite
from ivwsm import ivf as ivf_module
from ivwsm.ivf import (
    AGREEMENT_RTOL,
    ENDPOINT_MAX,
    ENDPOINT_ORDER_TOL,
    ROW_BLOCK,
    STEP_SCHEDULE,
    DomainError,
    InfeasibleDirectionError,
    ModelError,
    NonsmoothUncertainError,
    _first,
    _one_sided_rows,
    _richardson,
    _rows,
    _step_scale,
    endpoint_rows,
    point_block_derivatives,
)

from conftest import cube, make_ivf, quad_ivf, random_convex_ivf, vee_ivf
from test_expr import eval_node_reference, random_tree, same_bits, to_source


def poly2d_ivf() -> Ivf:
    return Ivf.from_expressions(
        "5 - x1*x2 - x1", "10 - x1^2*x2 - x2^2*x1", cube(2, -1, 0)
    )


class TestEval:
    def test_vee_family(self):
        f = vee_ivf()
        assert f.value([2.0]) == Interval(0.5, 2.0)
        assert f.value([0.0]) == Interval(0.0, 0.0)

    def test_poly_example(self):
        # hand evaluation: upper = 10 - (1)(-1) - (1)(-1) = 12
        f = poly2d_ivf()
        assert f.value([-1.0, -1.0]) == Interval(5.0, 12.0)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            vee_ivf().value([5.0])

    def test_crossed_endpoints_is_a_model_error(self):
        f = make_ivf(1, lambda x: x[0], lambda x: -x[0], -1, 1)
        with pytest.raises(ModelError):
            f.value([0.5])


class TestDirDerivative:
    def test_vee_at_kink_both_sides(self):
        f = vee_ivf(analytic=False)
        assert_close_interval(f.dir_deriv([0.0], [1.0]), Interval(0.25, 1.0))
        assert_close_interval(f.dir_deriv([0.0], [-1.0]), Interval(0.25, 1.0))

    def test_smooth_point(self):
        f = quad_ivf(analytic=False)
        assert_close_interval(f.dir_deriv([1.0], [1.0]), Interval(2.0, 2.0))

    def test_zero_direction(self):
        f = quad_ivf(analytic=False)
        assert f.dir_deriv([1.0], [0.0]) == Interval(0.0, 0.0)

    def test_infeasible_direction(self):
        f = vee_ivf()  # domain [-2, 2]
        with pytest.raises(InfeasibleDirectionError):
            replace(f, analytic_dir_deriv=None).dir_deriv([2.0], [1.0])

    def test_kink_inside_probe_range_is_flagged(self):
        f = make_ivf(1, lambda x: abs(x[0] - 5e-4), lambda x: 2 * abs(x[0] - 5e-4), -1, 1)
        with pytest.raises(NonsmoothUncertainError):
            f.dir_deriv([0.0], [1.0])

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        f = random_convex_ivf(17, analytic=False)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, f.dimension)
            d = rng.normal(size=f.dimension)
            t = float(rng.uniform(0.1, 4.0))
            base = f.dir_deriv(x, d)
            scaled = f.dir_deriv(x, t * d)
            expect = scalar_mul(t, base)
            assert scaled.lo == pytest.approx(expect.lo, abs=1e-5)
            assert scaled.hi == pytest.approx(expect.hi, abs=1e-5)


def assert_close_interval(actual: Interval, expected: Interval, tol: float = 1e-5):
    assert actual.lo == pytest.approx(expected.lo, abs=tol)
    assert actual.hi == pytest.approx(expected.hi, abs=tol)


class TestNumericMatchesAnalytic:
    def test_twenty_seeded_objectives(self):
        rng = np.random.default_rng(2718)
        for seed in range(20):
            with_analytic = random_convex_ivf(seed)
            numeric = random_convex_ivf(seed, analytic=False)
            compared = 0
            for _ in range(12):
                x = rng.uniform(-1.2, 1.2, numeric.dimension)
                d = rng.normal(size=numeric.dimension)
                d /= np.linalg.norm(d)
                try:
                    num = numeric.dir_deriv(x, d)
                except NonsmoothUncertainError:
                    continue  # a kink sits inside the probe range at this draw
                ana = with_analytic.dir_deriv(x, d)
                assert_close_interval(num, ana, tol=1e-5)
                compared += 1
            assert compared >= 8


class TestConvexityCheck:
    def test_convex_passes(self):
        assert convexity_check(quad_ivf(), 300, seed=1) is None
        assert convexity_check(vee_ivf(), 300, seed=1) is None

    def test_concave_lower_found(self):
        f = make_ivf(1, lambda x: -x[0] ** 2, lambda x: 1.0, -1, 1)
        counter = convexity_check(f, 300, seed=1)
        assert counter is not None
        assert counter.endpoint == "lower"
        assert counter.violation > 1e-9

    def test_poly_example_is_not_convex(self):
        # both endpoints carry indefinite Hessians on the box; the sampled
        # guard must find a violation on one of them
        counter = convexity_check(poly2d_ivf(), 300, seed=1)
        assert counter is not None


def one_sided_reference(g, x, d, domain) -> float:
    """Reference oracle: the difference-quotient rules for one scalar pair."""
    t_exit = np.inf
    for xi, di, lo, hi in zip(x, d, domain.lo, domain.hi):
        if di > 0:
            t_exit = min(t_exit, (hi - xi) / di)
        elif di < 0:
            t_exit = min(t_exit, (lo - xi) / di)
    if t_exit <= 0:
        raise InfeasibleDirectionError("exits immediately")
    scale = min(1.0, 0.5 * t_exit / STEP_SCHEDULE[0])
    steps = [t * scale for t in STEP_SCHEDULE]
    g0 = float(g(x))
    q = [(float(g(x + t * d)) - g0) / t for t in steps]
    e1 = (steps[0] * q[1] - steps[1] * q[0]) / (steps[0] - steps[1])
    e2 = (steps[1] * q[2] - steps[2] * q[1]) / (steps[1] - steps[2])
    if abs(e1 - e2) > AGREEMENT_RTOL * max(1.0, abs(e1), abs(e2)):
        raise NonsmoothUncertainError("unsettled")
    return e2


RAISES = (EvalError, OverflowError, ValueError, InfeasibleDirectionError, NonsmoothUncertainError)


class TestBatchedDerivatives:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_batched_rows_equal_the_one_row_path_and_the_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        trees = [random_tree(rng, n, int(rng.integers(1, 4))) for _ in range(2)]
        domain = cube(n, -2, 2)
        f = Ivf.from_expressions(to_source(trees[0]), to_source(trees[1]), domain)
        points = rng.uniform(-2, 2, size=(10, n))
        points[rng.random(points.shape) < 0.15] = 2.0  # on the boundary
        dirs = rng.normal(size=(10, n))
        dirs[rng.random(dirs.shape) < 0.15] = 0.0
        kept, expected = [], []
        for i, (x, d) in enumerate(zip(points, dirs)):
            try:
                one = f.dir_deriv(x, d)
            except RAISES:
                one = None
            try:
                ref = [
                    one_sided_reference(lambda p, t=t: eval_node_reference(t, p), x, d, domain)
                    for t in trees
                ]
            except RAISES:
                ref = None
            if ref is None or not np.isfinite(ref).all():
                assert one is None  # the batched rules raise where the reference does
                continue
            assert (one.lo, one.hi) == (min(ref), max(ref))
            kept.append(i)
            expected.append((one.lo, one.hi))
        lo, hi = dir_derivatives(f, points[kept], dirs[kept])
        assert same_bits(np.stack([lo, hi], axis=1).reshape(-1, 2), np.reshape(expected, (-1, 2)))
        if len(kept) < len(points):
            with pytest.raises(RAISES):
                dir_derivatives(f, points, dirs)

    def test_one_point_broadcasts_against_directions(self):
        f = Ivf.from_expressions("abs(x1) + x2^2", "2*abs(x1) + x2^2 + 1", cube(2, -2, 2))
        dirs = np.random.default_rng(4).normal(size=(6, 2))
        lo, hi = dir_derivatives(f, [0.5, -0.25], dirs)
        for d, a, b in zip(dirs, lo, hi):
            assert f.dir_deriv([0.5, -0.25], d) == Interval(a, b)

    def test_analytic_route_loops_over_rows(self):
        f = vee_ivf()
        lo, hi = dir_derivatives(f, [[0.0], [1.0]], [[1.0], [-1.0]])
        assert list(lo) == [0.25, -1.0] and list(hi) == [1.0, -0.25]

    def test_restricted_rows_are_infinite_where_the_direction_leaves(self):
        f_o = RestrictedIvf(poly2d_ivf(), cube(2, -1, 0))
        x = [0.0, -0.5]
        dirs = np.array([[1.0, 0.0], [-1.0, 0.0], [-0.5, 0.5], [0.0, 1.0]])
        lo, hi = f_o.dir_derivs(x, dirs)
        for d, a, b in zip(dirs, lo, hi):
            one = f_o.dir_deriv(x, d)
            assert (a, b) == ((np.inf, np.inf) if one is PLUS_INF else (one.lo, one.hi))

    def test_non_finite_endpoint_names_the_point(self):
        f = Ivf.from_expressions("x1*1e308*2", "x1*1e308*2 + 1", cube(1, -1, 1))
        with pytest.raises(ValueError, match=r"lower\(\[1\.\]\) = inf is not finite"):
            endpoint_rows(f, np.array([[0.5], [1.0]]))

    def test_an_endpoint_past_half_the_float_range_names_the_point(self):
        f = Ivf.from_expressions("1e308*x1", "1e308*x1 + abs(x1)*1e308", cube(1, -2, 2))
        assert ENDPOINT_MAX == np.finfo(float).max / 2
        message = r"lower\(\[-1\.\]\) = -1e\+308 exceeds 8\.98846567e\+307 in magnitude"
        with pytest.raises(ValueError, match=message):
            endpoint_rows(f, np.array([[0.25], [-1.0], [-2.0 / 3]]))
        # at 1, lower is 1e308 and upper inf: every non-finite value is
        # reported first
        with pytest.raises(ValueError, match=r"upper\(\[1\.\]\) = inf is not finite"):
            endpoint_rows(f, np.array([[1.0]]))
        with pytest.raises(ValueError, match=r"upper\(\[0\.5\]\) = 1e\+308 exceeds"):
            endpoint_rows(f, np.array([[0.25], [0.5]]))

    def test_endpoints_crossing_within_the_order_tolerance_meet_at_the_midpoint(self):
        f = Ivf.from_expressions("max(x1, 1e-10)", "2*abs(x1)", cube(1, -1, 1))
        assert 1e-10 <= ENDPOINT_ORDER_TOL
        lo, hi = endpoint_rows(f, np.array([[0.0], [0.5]]))
        assert list(lo) == [0.5 * 1e-10, 0.5] and list(hi) == [0.5 * 1e-10, 1.0]

    def test_a_non_finite_derivative_names_the_point_and_direction(self):
        # every difference quotient overflows, so the extrapolations are NaN
        f = Ivf.from_expressions("x1*1e308*1e308", "x1*1e308*1e308 + 1", cube(1, -1, 1))
        message = r"directional derivative nan at x=\[0\.\] along d=\[1\.\] is not finite"
        with pytest.raises(ValueError, match=message):
            dir_derivatives(f, np.array([[0.0]]), np.array([[1.0]]))

    def test_replaced_endpoint_is_the_one_evaluated(self):
        f = Ivf.from_expressions("abs(x1)", "2*abs(x1)", cube(1, -1, 1))
        g = replace(f, lower=lambda x: abs(x[0]) - 1.0)
        lo, hi = endpoint_rows(g, np.array([[0.5], [-1.0]]))
        assert list(lo) == [-0.5, 0.0] and list(hi) == [1.0, 2.0]
        assert g.dir_deriv([0.5], [1.0]) == f.dir_deriv([0.5], [1.0])

    def test_kink_message_names_the_point(self):
        f = Ivf.from_expressions("abs(x1 - 5e-4)", "2*abs(x1 - 5e-4)", cube(1, -1, 1))
        with pytest.raises(NonsmoothUncertainError, match=r"at x=\[0\.\] along d=\[1\.\]"):
            f.dir_deriv([0.0], [1.0])


class TestSampledGuardsDrawOneStream:
    """The batched guards draw the same numbers as drawing each sample in
    turn, so their results equal a per-sample loop exactly."""

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_convexity_matches_a_per_sample_loop(self, seed):
        f = Ivf.from_expressions("5 - x1*x2 - x1", "10 - x1^2*x2 - x2^2*x1", cube(2, -1, 0))
        rng = np.random.default_rng(seed)
        expected = None
        for _ in range(300):
            x1 = rng.uniform(f.domain.lo, f.domain.hi)
            x2 = rng.uniform(f.domain.lo, f.domain.hi)
            lam = float(rng.uniform(0.0, 1.0))
            mid = lam * x1 + (1 - lam) * x2
            gaps = [g(mid) - (lam * g(x1) + (1 - lam) * g(x2)) for g in (f.lower, f.upper)]
            hits = [(name, gap) for name, gap in zip(("lower", "upper"), gaps) if gap > 1e-9]
            if hits:
                expected = (list(x1), list(x2), lam, *hits[0])
                break
        counter = convexity_check(f, 300, seed)
        assert expected is not None
        assert (list(counter.x1), list(counter.x2), counter.lam, counter.endpoint,
                counter.violation) == expected

    def test_convexity_rejects_a_non_finite_endpoint_anywhere_in_the_domain(self):
        # lower is concave near 0, so an early sample violates convexity,
        # but x1^400 overflows for |x1| > 5.9; the guard evaluates every
        # sample, as lipschitz_estimate does, so the overflow is reported
        big = "x1^200*x1^200*1e-308"
        f = Ivf.from_expressions(f"1 - x1^2 + {big}", f"{big} + 2", cube(1, -6, 6))
        with pytest.raises(ValueError, match="is not finite"):
            convexity_check(f, 100, 0)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_lipschitz_matches_a_per_sample_loop(self, seed):
        f = Ivf.from_expressions("abs(x1) + 0.5*x2^2", "3*abs(x1) + x2^2 + 1", cube(2, -1, 1))
        rng = np.random.default_rng(seed)
        best = 0.0
        for _ in range(200):
            x = rng.uniform(f.domain.lo, f.domain.hi)
            y = rng.uniform(f.domain.lo, f.domain.hi)
            gap = float(np.linalg.norm(x - y))
            if gap >= 1e-12:
                best = max(best, interval_norm(gh_difference(f.value(x), f.value(y))) / gap)
        assert lipschitz_estimate(f, 200, seed) == best


class TestRestricted:
    def test_indicator_semantics(self):
        f = poly2d_ivf()
        s = cube(2, -1, 0)
        f_o = RestrictedIvf(f, s)
        assert f_o.value([0.5, 0.0]) is PLUS_INF
        assert f_o.value([-0.5, -0.5]) == f.value([-0.5, -0.5])

    def test_directional_derivative_exits(self):
        f = poly2d_ivf()
        f_o = RestrictedIvf(f, cube(2, -1, 0))
        assert f_o.dir_deriv([0.0, -0.5], [1.0, 0.0]) is PLUS_INF
        inward = f_o.dir_deriv([0.0, -0.5], [-1.0, 0.0])
        assert is_finite(inward)

    def test_feasible_set_must_nest(self):
        with pytest.raises(ValueError):
            RestrictedIvf(poly2d_ivf(), cube(2, -3, 0))

    def test_a_point_outside_is_named(self):
        f_o = RestrictedIvf(poly2d_ivf(), cube(2, -1, 0))
        message = r"^\[0\.5 0\. *\] is outside the feasible set"
        with pytest.raises(DomainError, match=message):
            f_o.dir_derivs([0.5, 0.0], np.eye(2))
        with pytest.raises(DomainError, match=message):
            f_o.dir_deriv([0.5, 0.0], [1.0, 0.0])


class TestLipschitz:
    def test_vee_slope(self):
        f = replace(vee_ivf(), domain=cube(1, -1, 1))
        assert lipschitz_estimate(f, 4000, seed=5) == pytest.approx(1.0, abs=1e-2)

    def test_constant_is_flat(self):
        f = make_ivf(1, lambda x: 2.0, lambda x: 3.0, -1, 1)
        assert lipschitz_estimate(f, 200, seed=5) == 0.0

    def test_identity(self):
        f = make_ivf(1, lambda x: x[0], lambda x: x[0], 0, 1)
        assert lipschitz_estimate(f, 4000, seed=5) == pytest.approx(1.0, abs=1e-2)

    def test_a_slope_past_the_float_range_reads_inf_silently(self):
        # slope 1e311 on [-1e-4, 1e-4], where the values stay below 1e307
        f = Ivf.from_expressions("1e308*(1e3*x1)", "1e308*(1e3*x1)", cube(1, -1e-4, 1e-4))
        assert lipschitz_estimate(f, 400, seed=0) == np.inf


class TestSubgradientInequality:
    def test_derivative_below_difference(self):
        # for convex objectives the directional derivative toward y is
        # dominated by the gH difference of the values
        rng = np.random.default_rng(8)
        for seed in (0, 3, 11):
            f = random_convex_ivf(seed)
            for _ in range(25):
                x = rng.uniform(-1.2, 1.2, f.dimension)
                y = rng.uniform(-1.2, 1.2, f.dimension)
                deriv = f.dir_deriv(x, y - x)
                diff = gh_difference(f.value(y), f.value(x))
                assert dominance(deriv, diff, slack=1e-7).leq


class TestFamilyBounds:
    def test_inf_sup_of_sums_nest(self):
        rng = np.random.default_rng(9)
        f1 = random_convex_ivf(21, n=2)
        f2 = random_convex_ivf(22, n=2)
        points = rng.uniform(-1.2, 1.2, size=(40, 2))
        vals1 = [f1.value(x) for x in points]
        vals2 = [f2.value(x) for x in points]
        sums = [add(a, b) for a, b in zip(vals1, vals2)]
        lower = add(inf_family(vals1), inf_family(vals2))
        upper = add(sup_family(vals1), sup_family(vals2))
        assert dominance(lower, inf_family(sums), slack=1e-9).leq
        assert dominance(sup_family(sums), upper, slack=1e-9).leq


class TestLipschitzAgainstSubgradientBound:
    def test_estimate_below_norm_bound(self):
        for seed in (0, 1, 2, 5, 9):
            f = random_convex_ivf(seed)
            inner = BoxSet(0.9 * f.domain.lo, 0.9 * f.domain.hi)
            estimate = lipschitz_estimate(replace(f, domain=inner), 300, seed=seed)
            bound = 0.0
            checked = 0
            for x in inner.grid(5):
                oracle = subdiff_support(f, x)
                try:
                    result = boundedness_check(oracle)
                except NonsmoothUncertainError:
                    continue
                assert result.bounded
                bound = max(bound, result.bound)
                checked += 1
            assert checked >= 20
            assert estimate <= bound + 1e-3


def _message(call):
    """The message of the error a call raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestRowBlocks:
    """Derivative calls longer than ROW_BLOCK rows, and the context's
    point-by-direction table of the restriction, run block by block with the
    results and errors of one-row and one-point calls."""

    def test_a_call_longer_than_one_block_equals_row_by_row_calls(self):
        f = Ivf.from_expressions("abs(x1) + x2^2", "2*abs(x1) + x2^2 + 1", cube(2, -2, 2))
        rng = np.random.default_rng(5)
        points = rng.uniform(-1.5, 1.5, size=(ROW_BLOCK + 37, 2))
        dirs = rng.normal(size=(ROW_BLOCK + 37, 2))
        lo, hi = dir_derivatives(f, points, dirs)
        rows = [dir_derivatives(f, x[None], d[None]) for x, d in zip(points, dirs)]
        assert same_bits(lo, [r_lo[0] for r_lo, _ in rows])
        assert same_bits(hi, [r_hi[0] for _, r_hi in rows])

    @pytest.mark.parametrize(
        "bad_point, bad_dir, error",
        [
            ([0.0, 0.0], [1.0, 0.0], NonsmoothUncertainError),  # kink at x1 = 5e-4
            ([2.0, 0.0], [1.0, 0.0], InfeasibleDirectionError),  # exits the domain
        ],
    )
    def test_an_error_only_in_the_second_block_names_its_first_row(
        self, bad_point, bad_dir, error
    ):
        f = Ivf.from_expressions("abs(x1 - 5e-4)", "2*abs(x1 - 5e-4)", cube(2, -2, 2))
        points = np.tile([-1.0, 0.5], (ROW_BLOCK + 10, 1))
        dirs = np.tile([1.0, 0.0], (ROW_BLOCK + 10, 1))
        for i in (ROW_BLOCK + 3, ROW_BLOCK + 7):
            points[i], dirs[i] = bad_point, bad_dir
        first = slice(ROW_BLOCK + 3, ROW_BLOCK + 4)
        expected = _message(lambda: dir_derivatives(f, points[first], dirs[first]))
        assert expected[0] is error
        assert _message(lambda: dir_derivatives(f, points, dirs)) == expected

    def test_a_failing_block_raises_the_first_failing_points_own_error(self):
        # one block: lower has a kink only near b, upper near a and b; the
        # kernel checks lower first, but on its own a fails first
        f = Ivf.from_expressions(
            "abs(x1 - 0.5005)", "2*abs(x1 - 0.5005) + abs(x1 + 0.5005)", cube(1, -2, 2)
        )
        a, b = np.array([-0.5]), np.array([0.5])
        pairs = [(a, np.array([[-1.0]])), (b, np.array([[1.0]]))]
        expected = _message(lambda: dir_derivatives(f, a, pairs[0][1]))
        assert "x=[-0.5]" in expected[1]
        assert _message(lambda: list(point_block_derivatives(f, pairs))) == expected

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 3),
        analytic=st.booleans(),
        block=st.sampled_from([1, 5, 40, ROW_BLOCK]),
        grid=st.integers(2, 4),
        bounds=st.lists(
            st.one_of(st.sampled_from([-1.0, 1.0]), st.floats(-1.0, 1.0)),
            min_size=6,
            max_size=6,
        ),
    )
    def test_point_by_direction_table_equals_one_point_calls(
        self, seed, n, analytic, block, grid, bounds
    ):
        # Sbar's bounds sit on the faces of S = [-1, 1]^n or inside it, and
        # an axis of Sbar may be a point, so the table spans many faces
        f = random_convex_ivf(seed, n, analytic=analytic)
        s = cube(n, -1, 1)
        ends = np.sort(np.reshape(bounds[: 2 * n], (n, 2)), axis=1)
        p = WsmProblem(f=f, s=s, sbar=BoxSet(ends[:, 0], ends[:, 1]), alpha=1.0, grid=grid,
                       seed=seed, n_dirs=7)
        ctx = p.context()
        f_o = RestrictedIvf(f, s)

        def one_point_rows():
            return [f_o.dir_derivs(x, ctx.dirs)[0] for x in ctx.sbar_grid]

        with mock.patch.object(ivf_module, "ROW_BLOCK", block):
            try:
                rows = one_point_rows()
            except (NonsmoothUncertainError, InfeasibleDirectionError):
                assert _message(lambda: ctx.deriv_lo) == _message(one_point_rows)
                return
            table = ctx.deriv_lo
        assert table.shape == (len(ctx.sbar_grid), len(ctx.dirs))
        assert same_bits(table, rows)


# The numeric kernel and the analytic loop as they were before their
# arithmetic moved in place, verbatim: the kernel must give their results
# bit for bit (signed zeros included) and raise their errors.


def reference_step_scale(domain: BoxSet, points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    # per entry, the t at which x + t*d meets the bound it heads for
    t_exit = np.where(dirs > 0, domain.hi, domain.lo)
    t_exit -= points
    with np.errstate(divide="ignore", invalid="ignore"):
        t_exit /= dirs
    t_exit[~((dirs > 0) | (dirs < 0))] = np.inf
    t_exit = t_exit.min(axis=1)
    i = _first(t_exit <= 0)
    if i is not None:
        raise InfeasibleDirectionError(
            f"no small-t feasibility: the direction {dirs[i]} exits the domain "
            f"immediately at {points[i]}"
        )
    ratio = 0.5 * t_exit / STEP_SCHEDULE[0]
    return np.where(ratio < 1.0, ratio, 1.0)


def reference_step_points(points: np.ndarray, dirs: np.ndarray, t: np.ndarray) -> np.ndarray:
    moved = t[:, None] * dirs
    moved += points
    return moved


def reference_richardson(qa, qb, ta, tb):
    return (ta * qb - tb * qa) / (ta - tb)


def reference_one_sided_rows(g, points: np.ndarray, dirs: np.ndarray, scale: np.ndarray):
    g0 = g(points)
    with np.errstate(over="ignore", invalid="ignore"):
        quotients = [
            (g(reference_step_points(points, dirs, t * scale)) - g0) / (t * scale)
            for t in STEP_SCHEDULE
        ]
        t0, t1, t2 = STEP_SCHEDULE
        e1 = reference_richardson(quotients[0], quotients[1], t0 * scale, t1 * scale)
        e2 = reference_richardson(quotients[1], quotients[2], t1 * scale, t2 * scale)
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


def reference_dir_derivatives(f: Ivf, points, dirs):
    """One block (at most ROW_BLOCK rows) of dir_derivatives, through the
    reference kernel and the reference analytic loop."""
    points, dirs = np.broadcast_arrays(
        np.asarray(points, dtype=float), np.asarray(dirs, dtype=float)
    )
    if f.analytic_dir_deriv is not None:
        lo, hi = np.empty(len(points)), np.empty(len(points))
        for i, (x, d) in enumerate(zip(points, dirs)):
            value = f.analytic_dir_deriv(x, d)
            lo[i], hi[i] = value.lo, value.hi
        return lo, hi
    scale = reference_step_scale(f.domain, points, dirs)
    d_lo = reference_one_sided_rows(_rows(f.lower), points, dirs, scale)
    d_hi = reference_one_sided_rows(_rows(f.upper), points, dirs, scale)
    # min/max(d_lo, d_hi) with Python's first-wins semantics
    return np.where(d_hi < d_lo, d_hi, d_lo), np.where(d_hi > d_lo, d_hi, d_lo)


def kernel_block(rng: np.random.Generator, n: int, rows: int = 64):
    """The box [-2, 2]^n and a block of points and directions in it: about
    a fifth of the coordinates on a bound, and a tenth within 2e-3 of one
    and heading for it (so the steps shrink); about a fifth of the
    direction components 0.0 or -0.0, and the first direction all zero;
    every row heads into the box or along its faces."""
    points = rng.uniform(-2, 2, size=(rows, n))
    dirs = rng.normal(size=(rows, n))
    near = rng.random((rows, n)) < 0.1
    points[near] = np.sign(points[near]) * (2.0 - rng.uniform(0, 2e-3, size=near.sum()))
    dirs[near] = np.sign(points[near]) * (1.0 + np.abs(dirs[near]))
    on = rng.random((rows, n)) < 0.2
    points[on] = rng.choice([-2.0, 2.0], size=on.sum())
    dirs[rng.random((rows, n)) < 0.2] = rng.choice([0.0, -0.0])
    dirs[0] = 0.0
    dirs[points == 2.0] = -np.abs(dirs[points == 2.0])
    dirs[points == -2.0] = np.abs(dirs[points == -2.0])
    return cube(n, -2, 2), points, dirs


def outcome(call):
    """What a call gives: its array or arrays, or the type and message of
    the error it raises."""
    try:
        return call()
    except Exception as exc:  # the error is the outcome compared
        return type(exc), str(exc)


def failed(result) -> bool:
    return isinstance(result[0], type)


def same_outcome(actual, expected) -> bool:
    """The same error, or the same arrays bit for bit."""
    if failed(actual) or failed(expected):
        return failed(actual) and failed(expected) and actual == expected
    if isinstance(expected, np.ndarray):
        actual, expected = [actual], [expected]
    return len(actual) == len(expected) and all(map(same_bits, actual, expected))


KERNEL_SEEDS = range(32)


class TestKernelMatchesTheReference:
    """The numeric kernel and the analytic loop against their references on
    derandomized blocks in 1 to 4 dimensions."""

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_step_scale(self, seed):
        domain, points, dirs = kernel_block(np.random.default_rng(seed), 1 + seed % 4)
        expected = reference_step_scale(domain, points, dirs)
        assert (expected < 1.0).any() and (expected == 1.0).any()
        assert same_bits(_step_scale(domain, points, dirs), expected)
        # a component pointing out of a bound exits at once: the same error
        out = points == 2.0
        flipped = np.where(out, np.abs(dirs) + 1.0, dirs)
        error = outcome(lambda: reference_step_scale(domain, points, flipped))
        assert error[0] is InfeasibleDirectionError
        assert outcome(lambda: _step_scale(domain, points, flipped)) == error

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_richardson(self, seed):
        rng = np.random.default_rng(seed)
        qa, qb = rng.normal(size=(2, 50)) * 10.0 ** rng.integers(-300, 300, size=(2, 50))
        qa[:5], qb[3:8] = [0.0, -0.0, np.inf, -np.inf, np.nan], 0.0
        qb[8:10] = -0.0
        scale = rng.uniform(1e-3, 1.0, size=50)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_richardson(qa, qb, 1e-3 * scale, 1e-4 * scale)
            assert same_bits(_richardson(qa, qb, 1e-3 * scale, 1e-4 * scale), expected)

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_numeric_route(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 4
        domain, points, dirs = kernel_block(rng, n)
        trees = [random_tree(rng, n, int(rng.integers(1, 4))) for _ in range(2)]
        f = Ivf.from_expressions(to_source(trees[0]), to_source(trees[1]), domain)
        # the whole block, which raises if any row does, and the block of
        # the rows that do not raise on their own
        fine = [
            i
            for i, (x, d) in enumerate(zip(points[:, None], dirs[:, None]))
            if not failed(outcome(lambda: reference_dir_derivatives(f, x, d)))
        ]
        assert len(fine) >= len(points) // 2
        for rows in (slice(None), fine):
            block = points[rows], dirs[rows]
            expected = outcome(lambda: reference_dir_derivatives(f, *block))
            assert same_outcome(outcome(lambda: dir_derivatives(f, *block)), expected)
            scale = reference_step_scale(domain, *block)
            for g in (f.lower.rows, f.upper.rows):
                expected = outcome(lambda: reference_one_sided_rows(g, *block, scale))
                assert same_outcome(outcome(lambda: _one_sided_rows(g, *block, scale)), expected)

    @pytest.mark.parametrize(
        "lower, upper, point, direction, error",
        [
            # the direction heads out of the domain at once
            ("abs(x1)", "2*abs(x1)", [2.0, 0.5], [1.0, -1.0], InfeasibleDirectionError),
            # a kink 5e-4 ahead
            ("abs(x1 - 5e-4)", "2*abs(x1 - 5e-4)", [0.0, 1.0], [1.0, 0.0],
             NonsmoothUncertainError),
            # every difference quotient overflows
            ("x1*1e308*x2", "x1*1e308*x2 + 1", [0.0, 2.0], [1.0, 0.0], ValueError),
        ],
        ids=["infeasible", "nonsmooth", "not-finite"],
    )
    def test_numeric_errors_name_the_first_failing_row(
        self, lower, upper, point, direction, error
    ):
        f = Ivf.from_expressions(lower, upper, cube(2, -2, 2))
        points, dirs = [[0.5, 0.0], point, point], [[1.0, 0.0], direction, direction]
        expected = outcome(lambda: reference_dir_derivatives(f, points, dirs))
        assert expected[0] is error and str(np.array(point)) in expected[1]
        assert outcome(lambda: dir_derivatives(f, points, dirs)) == expected

    def test_a_lower_endpoint_error_wins_over_an_earlier_upper_one(self):
        # upper has a kink ahead of the first row, lower ahead of the
        # second: lower is differentiated first, so its error is raised
        f = Ivf.from_expressions("abs(x1 - 0.5005)", "2*abs(x1 + 0.5005)", cube(1, -2, 2))
        points, dirs = [[-0.5], [0.5]], [[-1.0], [1.0]]
        expected = outcome(lambda: reference_dir_derivatives(f, points, dirs))
        assert expected[0] is NonsmoothUncertainError and "x=[0.5]" in expected[1]
        assert outcome(lambda: dir_derivatives(f, points, dirs)) == expected

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_analytic_route(self, seed):
        f = random_convex_ivf(seed, 1 + seed % 4)
        _, points, dirs = kernel_block(np.random.default_rng(seed), f.dimension)
        points *= 0.75  # inside the objective's domain [-1.5, 1.5]^n
        expected = reference_dir_derivatives(f, points, dirs)
        assert same_outcome(dir_derivatives(f, points, dirs), expected)

    def test_an_analytic_error_is_the_first_rows(self):
        def deriv(x, d):
            if x[0] > 0:
                raise ValueError(f"no derivative at {x}")
            return Interval(d[0], 2 * abs(d[0]))

        f = make_ivf(1, abs, abs, -2, 2)
        f = replace(f, analytic_dir_deriv=deriv)
        points, dirs = [[-1.0], [0.5], [1.0]], [[1.0], [-1.0], [1.0]]
        expected = outcome(lambda: reference_dir_derivatives(f, points, dirs))
        assert expected == (ValueError, "no derivative at [0.5]")
        assert outcome(lambda: dir_derivatives(f, points, dirs)) == expected

    def test_the_agreement_test_near_its_threshold(self):
        # rows whose extrapolations differ by about AGREEMENT_RTOL times the
        # larger of 1, |e1| and |e2|, e1 or e2 the larger, so the nonsmooth
        # test is decided within rounding of its threshold
        t0, t1, _ = STEP_SCHEDULE
        ends = []
        for a in (1e4, -1e4, 3.0, 0.5):
            for k in np.linspace(0.999, 1.001, 21):
                gap = np.sign(a) * AGREEMENT_RTOL * max(abs(a), 1.0) * k
                ends += [(a, a - gap), (a - gap, a)]
        e1, e2 = np.array(ends).T
        # quotients c0, c1 = c2 = e2 give the extrapolations e1 and e2
        quotients = [(t0 * e2 - e1 * (t0 - t1)) / t1, e2, e2]

        def g(points):
            # called at the points, then at each step in turn: the rise over
            # the points is the quotient times the step
            call = next(calls)
            if call == 0:
                return np.zeros(len(points))
            return quotients[call - 1][rows] * STEP_SCHEDULE[call - 1]

        rows = np.arange(len(e1))
        raised = 0
        while len(rows):
            block = rows[:, None].astype(float), np.ones((len(rows), 1)), np.ones(len(rows))
            calls = iter(range(4))
            expected = outcome(lambda: reference_one_sided_rows(g, *block))
            calls = iter(range(4))
            assert same_outcome(outcome(lambda: _one_sided_rows(g, *block)), expected)
            if not failed(expected):
                break
            raised += 1
            first = int(re.search(r"at x=\[(\d+)\.\]", expected[1]).group(1))
            rows = rows[rows > first]
        assert 10 < raised < len(e1) - 10
