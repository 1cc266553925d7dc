"""Evaluation, directional derivatives, gradients, convexity and Lipschitz
estimation of interval-valued objectives."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivwsm import BoxSet, Interval, Ivf, boundedness_check, dominance
from ivwsm import convexity_check, dir_derivative, eval_ivf, gh_difference, gh_gradient
from ivwsm import dir_derivatives, lipschitz_estimate, restricted, scalar_mul, subdiff_support
from ivwsm import PLUS_INF, EvalError, ExprAst, add, inf_family, interval_norm, sup_family
from ivwsm import to_source
from ivwsm.intervals import is_finite
from ivwsm.ivf import (
    AGREEMENT_RTOL,
    STEP_SCHEDULE,
    DomainError,
    InfeasibleDirectionError,
    ModelError,
    NonsmoothUncertainError,
    NotGHDifferentiableError,
    endpoint_rows,
)

from conftest import cube, l1_ivf, make_ivf, quad_ivf, random_convex_ivf, vee_ivf
from test_expr import eval_node_reference, random_ast, same_bits


def poly2d_ivf() -> Ivf:
    return Ivf.from_expressions(
        "5 - x1*x2 - x1", "10 - x1^2*x2 - x2^2*x1", cube(2, -1, 0)
    )


class TestEval:
    def test_vee_family(self):
        f = vee_ivf()
        assert eval_ivf(f, [2.0]) == Interval(0.5, 2.0)
        assert eval_ivf(f, [0.0]) == Interval(0.0, 0.0)

    def test_poly_example(self):
        # hand evaluation: upper = 10 - (1)(-1) - (1)(-1) = 12
        f = poly2d_ivf()
        assert eval_ivf(f, [-1.0, -1.0]) == Interval(5.0, 12.0)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            eval_ivf(vee_ivf(), [5.0])

    def test_crossed_endpoints_is_a_model_error(self):
        f = make_ivf(1, lambda x: x[0], lambda x: -x[0], -1, 1)
        with pytest.raises(ModelError):
            eval_ivf(f, [0.5])


class TestDirDerivative:
    def test_vee_at_kink_both_sides(self):
        f = vee_ivf(analytic=False)
        assert_close_interval(dir_derivative(f, [0.0], [1.0]), Interval(0.25, 1.0))
        assert_close_interval(dir_derivative(f, [0.0], [-1.0]), Interval(0.25, 1.0))

    def test_smooth_point(self):
        f = quad_ivf(analytic=False)
        assert_close_interval(dir_derivative(f, [1.0], [1.0]), Interval(2.0, 2.0))

    def test_zero_direction(self):
        f = quad_ivf(analytic=False)
        assert dir_derivative(f, [1.0], [0.0]) == Interval(0.0, 0.0)

    def test_infeasible_direction(self):
        f = vee_ivf()  # domain [-2, 2]
        with pytest.raises(InfeasibleDirectionError):
            dir_derivative(replace(f, analytic_dir_deriv=None), [2.0], [1.0])

    def test_kink_inside_probe_range_is_flagged(self):
        f = make_ivf(1, lambda x: abs(x[0] - 5e-4), lambda x: 2 * abs(x[0] - 5e-4), -1, 1)
        with pytest.raises(NonsmoothUncertainError):
            dir_derivative(f, [0.0], [1.0])

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        f = random_convex_ivf(17, analytic=False)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, f.dimension)
            d = rng.normal(size=f.dimension)
            t = float(rng.uniform(0.1, 4.0))
            base = dir_derivative(f, x, d)
            scaled = dir_derivative(f, x, t * d)
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
                    num = dir_derivative(numeric, x, d)
                except NonsmoothUncertainError:
                    continue  # a kink sits inside the probe range at this draw
                ana = dir_derivative(with_analytic, x, d)
                assert_close_interval(num, ana, tol=1e-5)
                compared += 1
            assert compared >= 8


class TestGhGradient:
    def test_affine_endpoints(self):
        f = make_ivf(
            2,
            lambda x: x[0] + x[1],
            lambda x: 2 * x[0] + 3 * x[1],
            -2,
            2,
        )
        grad = gh_gradient(f, [0.3, -0.4])
        assert_close_interval(grad.component(0), Interval(1.0, 2.0))
        assert_close_interval(grad.component(1), Interval(1.0, 3.0))

    def test_constant(self):
        f = make_ivf(1, lambda x: 4.0, lambda x: 4.0, -1, 1)
        grad = gh_gradient(f, [0.2])
        assert_close_interval(grad.component(0), Interval(0.0, 0.0))

    def test_kink_refused(self):
        f = vee_ivf(analytic=False)
        with pytest.raises(NotGHDifferentiableError):
            gh_gradient(f, [0.0])


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
                one = dir_derivative(f, x, d)
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
            assert dir_derivative(f, [0.5, -0.25], d) == Interval(a, b)

    def test_analytic_route_loops_over_rows(self):
        f = vee_ivf()
        lo, hi = dir_derivatives(f, [[0.0], [1.0]], [[1.0], [-1.0]])
        assert list(lo) == [0.25, -1.0] and list(hi) == [1.0, -0.25]

    def test_restricted_rows_are_infinite_where_the_direction_leaves(self):
        f_o = restricted(poly2d_ivf(), cube(2, -1, 0))
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

    def test_replaced_endpoint_is_the_one_evaluated(self):
        f = Ivf.from_expressions("abs(x1)", "2*abs(x1)", cube(1, -1, 1))
        g = replace(f, lower=lambda x: abs(x[0]) - 1.0)
        lo, hi = endpoint_rows(g, np.array([[0.5], [-1.0]]))
        assert list(lo) == [-0.5, 0.0] and list(hi) == [1.0, 2.0]
        assert dir_derivative(g, [0.5], [1.0]) == dir_derivative(f, [0.5], [1.0])

    def test_kink_message_names_the_point(self):
        f = Ivf.from_expressions("abs(x1 - 5e-4)", "2*abs(x1 - 5e-4)", cube(1, -1, 1))
        with pytest.raises(NonsmoothUncertainError, match=r"at x=\[0\.\] along d=\[1\.\]"):
            dir_derivative(f, [0.0], [1.0])


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
        f_o = restricted(f, s)
        assert f_o.value([0.5, 0.0]) is PLUS_INF
        assert f_o.value([-0.5, -0.5]) == eval_ivf(f, [-0.5, -0.5])

    def test_directional_derivative_exits(self):
        f = poly2d_ivf()
        f_o = restricted(f, cube(2, -1, 0))
        assert f_o.dir_deriv([0.0, -0.5], [1.0, 0.0]) is PLUS_INF
        inward = f_o.dir_deriv([0.0, -0.5], [-1.0, 0.0])
        assert is_finite(inward)

    def test_feasible_set_must_nest(self):
        with pytest.raises(ValueError):
            restricted(poly2d_ivf(), cube(2, -3, 0))


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
                deriv = dir_derivative(f, x, y - x)
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
                    result = boundedness_check(oracle.as_ivecset())
                except NonsmoothUncertainError:
                    continue
                assert result.bounded
                bound = max(bound, result.bound)
                checked += 1
            assert checked >= 20
            assert estimate <= bound + 1e-3
