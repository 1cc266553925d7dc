"""Evaluation, directional derivatives, gradients, convexity and Lipschitz
estimation of interval-valued objectives."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivwsm import BoxSet, Interval, Ivf, RestrictedIvf, WsmProblem, boundedness_check, dominance
from ivwsm import convexity_check, gh_difference
from ivwsm import dir_derivatives, lipschitz_estimate, scalar_mul, subdiff_support
from ivwsm import PLUS_INF, EvalError, ExprAst, add, inf_family, interval_norm, sup_family
from ivwsm.intervals import is_finite
from ivwsm import ivf as ivf_module
from ivwsm.ivf import (
    AGREEMENT_RTOL,
    ENDPOINT_ORDER_TOL,
    ROW_BLOCK,
    STEP_SCHEDULE,
    DomainError,
    InfeasibleDirectionError,
    ModelError,
    NonsmoothUncertainError,
    endpoint_rows,
    point_block_derivatives,
)

from conftest import cube, make_ivf, quad_ivf, random_convex_ivf, vee_ivf
from test_expr import eval_node_reference, random_ast, same_bits, to_source


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
        asts = [ExprAst(random_ast(rng, n, int(rng.integers(1, 4))), n) for _ in range(2)]
        domain = cube(n, -2, 2)
        f = Ivf.from_expressions(to_source(asts[0]), to_source(asts[1]), domain)
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
                    one_sided_reference(lambda p, a=a: eval_node_reference(a.root, p), x, d, domain)
                    for a in asts
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

    def test_endpoints_crossing_within_the_order_tolerance_meet_at_the_midpoint(self):
        f = Ivf.from_expressions("max(x1, 1e-10)", "2*abs(x1)", cube(1, -1, 1))
        assert 1e-10 <= ENDPOINT_ORDER_TOL
        lo, hi = endpoint_rows(f, np.array([[0.0], [0.5]]))
        assert list(lo) == [0.5 * 1e-10, 0.5] and list(hi) == [0.5 * 1e-10, 1.0]

    def test_a_non_finite_derivative_names_the_point_and_direction(self):
        # every difference quotient overflows, so the extrapolations are NaN
        f = Ivf.from_expressions("x1*1e308*1e308", "x1*1e308*1e308 + 1", cube(1, -1, 1))
        message = r"directional derivative nan at x=\[0\.\] along d=\[1\.\] is not finite"
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match=message):
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
