"""Evaluation, directional derivatives, gradients, convexity and Lipschitz
estimation of interval-valued objectives."""

import itertools
import math
import weakref
from dataclasses import astuple, is_dataclass, replace
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivwsm import BoxSet, Interval, Ivf, RestrictedIvf, WsmProblem, boundedness_check, dominance
from ivwsm import convexity_check, gh_difference
from ivwsm import check_primal, dir_derivatives, lipschitz_estimate, scalar_mul, subdiff_support
from ivwsm import PLUS_INF, EvalError, add, inf_family, interval_norm, sup_family
from ivwsm.intervals import is_finite
from ivwsm import ivf as ivf_module
from ivwsm import subdiff, wsm
from ivwsm.support import signed_basis
from ivwsm.wsm import check_all
from ivwsm.expr import ExprAst, format_point, parse
from ivwsm.ivf import (
    ENDPOINT_MAX,
    ENDPOINT_ORDER_TOL,
    ROW_BLOCK,
    DomainError,
    InfeasibleDirectionError,
    ModelError,
    _first,
    _require_feasible,
    endpoint_rows,
    point_block_derivatives,
)

from conftest import _one_sided_abs, analytic_ivf, cube, make_ivf, quad_ivf, random_convex_ivf
from conftest import random_convex_expr_ivf, vee_ivf
from conftest import wsm_battery
from test_expr import random_tree, same_bits, tangent_node_reference, to_source


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
    VEE = "0.25*abs(x1)", "abs(x1)"

    def test_vee_at_kink_both_sides(self):
        f = Ivf.from_expressions(*self.VEE, cube(1, -2, 2))
        assert f.dir_deriv([0.0], [1.0]) == Interval(0.25, 1.0)
        assert f.dir_deriv([0.0], [-1.0]) == Interval(0.25, 1.0)

    def test_smooth_point(self):
        f = Ivf.from_expressions("x1^2", "x1^2 + 1", cube(1, -2, 2))
        assert f.dir_deriv([1.0], [1.0]) == Interval(2.0, 2.0)

    def test_zero_direction(self):
        f = Ivf.from_expressions("x1^2", "x1^2 + 1", cube(1, -2, 2))
        assert f.dir_deriv([1.0], [0.0]) == Interval(0.0, 0.0)

    def test_infeasible_direction(self):
        f = Ivf.from_expressions(*self.VEE, cube(1, -2, 2))
        with pytest.raises(InfeasibleDirectionError):
            f.dir_deriv([2.0], [1.0])

    def test_an_endpoint_may_return_its_cached_array(self):
        # rows memoises by the points' bytes and returns the cached array
        # itself, read-only: endpoint_rows only reads it, also where the
        # endpoints cross within the order tolerance, so the cache keeps
        # g's values and an identical call gives the same values
        def memoised(g):
            cache = {}

            def rows(points):
                key = points.tobytes()
                if key not in cache:
                    cache[key] = np.array([g(x) for x in points])
                    cache[key].flags.writeable = False
                return cache[key]

            return SimpleNamespace(rows=rows, g=g, cache=cache)

        ends = (memoised(lambda x: x[0] ** 2 + 1e-10 * (x[0] == 0)),
                memoised(lambda x: 2 * x[0] ** 2))
        f = Ivf(1, *ends, cube(1, -1, 1))
        points = np.array([[0.5], [0.0], [-1.0]])
        for _ in range(3):
            lo, hi = endpoint_rows(f, points)
            assert list(lo) == [0.25, 0.5 * 1e-10, 1.0] and list(hi) == [0.5, 0.5 * 1e-10, 2.0]
        for end in ends:
            assert len(end.cache) == 1
            for key, values in end.cache.items():
                assert same_bits(values, [end.g(x) for x in np.frombuffer(key).reshape(-1, 1)])

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        f = random_convex_expr_ivf(17)
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


class TestExactMatchesAnalytic:
    def test_twenty_seeded_objectives(self):
        # one objective as expression text (the exact route) and with its
        # hand-written derivative (the analytic route)
        rng = np.random.default_rng(2718)
        for seed in range(20):
            exact, analytic = random_convex_expr_ivf(seed), random_convex_ivf(seed)
            for _ in range(12):
                x = rng.uniform(-1.2, 1.2, exact.dimension)
                d = rng.normal(size=exact.dimension)
                d /= np.linalg.norm(d)
                assert_close_interval(exact.dir_deriv(x, d), analytic.dir_deriv(x, d), tol=1e-9)


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

    @pytest.mark.parametrize(
        "lower, upper", [("1e14*abs(x1)", "2e14*abs(x1)"), ("8e307*x1", "8e307*x1 + 1e307")]
    )
    def test_round_off_at_large_scale_passes(self, lower, upper):
        # the chords' round-off is about 1e-2 and 1e292, far past an
        # absolute 1e-9, but a tiny share of the values
        f = Ivf.from_expressions(lower, upper, cube(1, -1, 1))
        assert convexity_check(f, 300, seed=1) is None

    def test_a_relative_violation_is_still_found_at_large_scale(self):
        f = Ivf.from_expressions("-1e14*x1^2", "1e14", cube(1, -1, 1))
        counter = convexity_check(f, 300, seed=1)
        assert counter is not None and counter.endpoint == "lower" and counter.violation > 1e11

    def test_poly_example_is_not_convex(self):
        # both endpoints carry indefinite Hessians on the box; the sampled
        # guard must find a violation on one of them
        counter = convexity_check(poly2d_ivf(), 300, seed=1)
        assert counter is not None


RAISES = (EvalError, OverflowError, ValueError)


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
                continue  # a direction heading out, or a value or derivative out of range
            ref = [tangent_node_reference(t, x, d)[1] for t in trees]
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
        with pytest.raises(ValueError, match=r"lower\(\[1\.0\]\) = inf is not finite"):
            endpoint_rows(f, np.array([[0.5], [1.0]]))

    def test_an_endpoint_past_half_the_float_range_names_the_point(self):
        f = Ivf.from_expressions("1e308*x1", "1e308*x1 + abs(x1)*1e308", cube(1, -2, 2))
        assert ENDPOINT_MAX == np.finfo(float).max / 2
        message = r"lower\(\[-1\.0\]\) = -1e\+308 exceeds 8\.98846567e\+307 in magnitude"
        with pytest.raises(ValueError, match=message):
            endpoint_rows(f, np.array([[0.25], [-1.0], [-2.0 / 3]]))
        # at 1, lower is 1e308 and upper inf: every non-finite value is
        # reported first
        with pytest.raises(ValueError, match=r"upper\(\[1\.0\]\) = inf is not finite"):
            endpoint_rows(f, np.array([[1.0]]))
        with pytest.raises(ValueError, match=r"upper\(\[0\.5\]\) = 1e\+308 exceeds"):
            endpoint_rows(f, np.array([[0.25], [0.5]]))

    def test_endpoints_crossing_within_the_order_tolerance_meet_at_the_midpoint(self):
        f = Ivf.from_expressions("max(x1, 1e-10)", "2*abs(x1)", cube(1, -1, 1))
        assert 1e-10 <= ENDPOINT_ORDER_TOL
        lo, hi = endpoint_rows(f, np.array([[0.0], [0.5]]))
        assert list(lo) == [0.5 * 1e-10, 0.5] and list(hi) == [0.5 * 1e-10, 1.0]

    def test_a_non_finite_derivative_names_the_point_and_direction(self):
        # the exact derivative 1e308 * 1e308 overflows to inf
        f = Ivf.from_expressions("x1*1e308*1e308", "x1*1e308*1e308 + 1", cube(1, -1, 1))
        message = r"directional derivative inf at x=\[0\.0\] along d=\[1\.0\] is not finite"
        with pytest.raises(ValueError, match=message):
            dir_derivatives(f, np.array([[0.0]]), np.array([[1.0]]))

    def test_replaced_endpoint_is_the_one_evaluated(self):
        f = Ivf.from_expressions("abs(x1)", "2*abs(x1)", cube(1, -1, 1))
        g = replace(f, lower=lambda x: abs(x[0]) - 1.0)
        lo, hi = endpoint_rows(g, np.array([[0.5], [-1.0]]))
        assert list(lo) == [-0.5, 0.0] and list(hi) == [1.0, 2.0]
        g = replace(f, lower=parse("abs(x1) - x1", 1))
        assert g.dir_deriv([0.5], [1.0]) == Interval(0.0, 2.0)

    def test_a_derivative_outside_the_domain_raises_the_values_error(self):
        for make in ROUTES:
            f = make("abs(x1)", "abs(x1) + 1", cube(1, -2, 2))
            expected = _message(lambda: f.value([3.0]))
            assert expected == (DomainError, "[3.0] is outside the domain box")
            assert _message(lambda: f.dir_deriv([3.0], [-1.0])) == expected
            assert _message(lambda: f.dir_derivs([3.0], [[-1.0]])) == expected
            # the batched kernels take the points they are given
            lo, hi = dir_derivatives(f, [[3.0]], [[-1.0]])
            assert (lo[0], hi[0]) == pytest.approx((-1.0, -1.0))


def convex_sources(rng: np.random.Generator, n: int) -> tuple[str, str, Callable]:
    """Seeded convex endpoint pair in n variables, lower below upper: a
    squared affine form, a weighted kink and a max of two affine forms;
    and their hand-written directional derivative at x along d."""
    forms = []

    def affine():
        forms.append(np.round(rng.normal(size=n + 1), 3))
        a = forms[-1]
        return " + ".join([f"{a[0]}"] + [f"{c}*x{i}" for i, c in enumerate(a[1:], start=1)])

    w = round(float(rng.uniform(0.1, 2.0)), 3)
    lower = f"({affine()})^2 + {w}*abs({affine()}) + max({affine()}, {affine()})"
    upper = f"{lower} + ({affine()})^2 + 0.5"

    def deriv(x, d):
        # each affine form's value at x and slope along d
        (v0, t0), (v1, t1), (v2, t2), (v3, t3), (v4, t4) = (
            (a[0] + a[1:] @ x, a[1:] @ d) for a in forms)
        lo = 2 * v0 * t0 + w * _one_sided_abs(v1, t1) + (
            t2 if v2 > v3 else t3 if v3 > v2 else max(t2, t3))
        hi = lo + 2 * v4 * t4
        return Interval(min(lo, hi), max(lo, hi))

    return lower, upper, deriv


#: The two derivative routes, built from expression sources: exact and
#: analytic.
ROUTES = (Ivf.from_expressions, analytic_ivf)

#: Seeds of the derandomized blocks the kernels are tested on, in 1 to 4
#: dimensions.
KERNEL_SEEDS = range(32)


class TestExactDerivatives:
    """Expression endpoints take the exact route: one tangent pass over
    each tape instead of difference quotients."""

    def test_equals_a_hand_written_derivative(self):
        for seed in range(24):
            rng = np.random.default_rng(seed)
            n = 1 + seed % 3
            lower, upper, deriv = convex_sources(rng, n)
            exact = Ivf.from_expressions(lower, upper, cube(n, -2, 2))
            for x, d in zip(rng.uniform(-1.5, 1.5, (16, n)), rng.normal(size=(16, n))):
                assert_close_interval(exact.dir_deriv(x, d), deriv(x, d), tol=1e-9)

    def test_a_kink_inside_the_probe_range_gives_the_one_sided_derivative(self):
        f = Ivf.from_expressions("abs(x1 - 5e-4)", "2*abs(x1 - 5e-4)", cube(1, -1, 1))
        assert f.dir_deriv([0.0], [1.0]) == Interval(-2.0, -1.0)
        assert f.dir_deriv([5e-4], [1.0]) == Interval(1.0, 2.0)
        assert f.dir_deriv([5e-4], [-1.0]) == Interval(1.0, 2.0)

    def test_an_infeasible_direction_raises_the_same_error_on_both_routes(self):
        points, dirs = [[0.5, 0.0], [2.0, 0.5], [2.0, 0.5]], [[1.0, 0.0], [1.0, -1.0], [1.0, 0.0]]
        raised = [
            outcome(lambda: dir_derivatives(make("abs(x1)", "2*abs(x1)", cube(2, -2, 2)),
                                            points, dirs))
            for make in ROUTES
        ]
        assert raised[0][0] is InfeasibleDirectionError and "at [2.0, 0.5]" in raised[0][1]
        assert raised[0] == raised[1]

    def test_a_step_that_underflows_is_not_an_infeasible_direction(self):
        # x1 = 1 - 2**-53 lies inside [-1, 1], so it may move along +1e308:
        # the feasibility test reads bounds, not the exit step (1 - x1)/1e308,
        # which underflows to 0
        x, d = [[1 - 2**-53]], [[1e308]]
        for make in ROUTES:
            lo, hi = dir_derivatives(make("abs(x1)", "abs(x1) + 1", cube(1, -1, 1)), x, d)
            assert (lo[0], hi[0]) == (1e308, 1e308)
        # in a block with a later row on the bound heading out, that row is
        # named, not the one whose step underflows
        blocked = (InfeasibleDirectionError, "no small-t feasibility: the direction [1.0] "
                   "exits the domain immediately at [1.0]")
        for make in ROUTES:
            f = make("abs(x1)", "abs(x1) + 1", cube(1, -1, 1))
            assert _message(lambda: dir_derivatives(f, [x[0], [1.0]], [d[0], [1.0]])) == blocked
        # on the bound, past it, or along an infinite coordinate, every route
        # raises the same error through every entry point (a point past the
        # bound is outside the domain, where Ivf.dir_deriv raises the
        # DomainError of Ivf.value); a zero or NaN direction coordinate
        # heads nowhere, as before
        errors = []
        for make in ROUTES:
            f = make("abs(x1)", "abs(x1) + 1", cube(2, -1, 1))
            for point, d in (([1.0, 0.0], [1e-300, 0.0]), ([1.5, 0.0], [1e-300, 0.0]),
                             ([0.0, 0.0], [0.0, -np.inf])):
                errors.append(_message(lambda: dir_derivatives(f, [point], [d])))
                assert errors[-1][0] is InfeasibleDirectionError
                pairs = [(point, np.array([d]))]
                assert _message(lambda: list(point_block_derivatives(f, pairs))) == errors[-1]
                one = errors[-1] if f.domain.contains(point) else _message(lambda: f.value(point))
                assert _message(lambda: f.dir_deriv(point, d)) == one
            lo, hi = dir_derivatives(f, [[1.0, 0.5]], [[0.0, -1.0]])
            assert (lo[0], hi[0]) == (0.0, 0.0)
            # the exact route names the row; the analytic callback's
            # Interval raises its own error, with a note naming it
            error = _message(lambda: dir_derivatives(f, [[1.0, 0.5]], [[np.nan, 1.0]]))
            if make is analytic_ivf:
                assert error == (ValueError, "interval endpoints must be finite, got [nan, nan]")
                with pytest.raises(ValueError) as info:
                    dir_derivatives(f, [[1.0, 0.5]], [[np.nan, 1.0]])
                assert info.value.__notes__ == [
                    "raised by analytic_dir_deriv at x=[1.0, 0.5] along d=[nan, 1.0]"]
            else:
                assert error[0] is ValueError and "not finite" in error[1]
        assert errors[:3] == errors[3:]

    def test_a_failing_block_raises_the_first_failing_points_own_error(self):
        # lower's derivative overflows only at b along +1, upper's at a along
        # -1 and at b: the kernel checks lower first, but on its own a fails
        # first
        ramp = "max(x1 - 0.5, 0)*1e308*1e308"
        f = Ivf.from_expressions(ramp, f"{ramp} + max(-x1 - 0.5, 0)*1e308*1e308", cube(1, -2, 2))
        a, b = np.array([-0.5]), np.array([0.5])
        pairs = [(a, np.array([[-1.0]])), (b, np.array([[1.0]]))]
        expected = _message(lambda: dir_derivatives(f, a, pairs[0][1]))
        assert expected == (ValueError, "directional derivative inf at x=[-0.5] along d=[-1.0] "
                                        "is not finite")
        assert "x=[0.5]" in _message(lambda: dir_derivatives(f, [a, b], [[-1.0], [1.0]]))[1]
        assert _message(lambda: list(point_block_derivatives(f, pairs))) == expected


class TestRouteSelection:
    """One function picks the route of every derivative call: a supplied
    analytic derivative, else the exact route when both endpoints carry
    ``tangent_rows``; an objective with neither has no derivatives."""

    @pytest.mark.parametrize("opaque", ["lower", "upper", "both"])
    def test_an_objective_with_neither_provider_raises_one_named_error(self, opaque):
        exact = Ivf.from_expressions("abs(x1) + abs(x2)", "2*abs(x1) + abs(x2) + 1",
                                     cube(2, -2, 2))
        names = ("lower", "upper") if opaque == "both" else (opaque,)
        # each a plain callable, with no batched or tangent form
        f = replace(exact, **{name: (lambda x, g=getattr(exact, name): g(x)) for name in names})
        expected = (ValueError, "derivatives need analytic_dir_deriv or endpoints with "
                                f"tangent_rows ({names[0]} has none)")
        p = WsmProblem(f=f, s=cube(2, -1, 1), sbar=cube(2, 0, 0), alpha=0.5, grid=5)
        # raised before any row is read: a direction heading out, no rows
        for call in (lambda: f.dir_deriv([0.5, 0.0], [1.0, 0.0]),
                     lambda: f.dir_deriv([2.0, 0.0], [1.0, 0.0]),
                     lambda: dir_derivatives(f, [[0.5, 0.0]], [[1.0, 0.0]]),
                     lambda: dir_derivatives(f, np.empty((0, 2)), np.empty((0, 2))),
                     lambda: subdiff_support(f, [0.5, 0.0]).support([1.0, 0.0]),
                     lambda: check_primal(p)):
            assert _message(call) == expected
        # values need only the endpoints, and answer as the expressions do
        q = WsmProblem(f=exact, s=p.s, sbar=p.sbar, alpha=0.5, grid=5)
        assert f.value([0.5, -0.25]) == exact.value([0.5, -0.25]) == Interval(0.75, 2.25)
        assert same_result(wsm.check_definition(p), wsm.check_definition(q))
        assert wsm.check_definition(p).holds
        assert wsm.estimate_modulus(p) == wsm.estimate_modulus(q) > 0.5

    def test_a_supplied_derivative_wins_over_two_tangent_forms(self):
        calls = []
        f = replace(recording(vee_ivf(0.5, 1.0), lambda x, d: calls.append((x[0], d[0]))),
                    lower=parse("0.5*abs(x1)", 1), upper=parse("abs(x1)", 1))
        tape = mock.Mock(side_effect=AssertionError("a tape ran"))
        with mock.patch.object(ExprAst, "tangent_rows", tape), \
                mock.patch.object(ExprAst, "_run", tape):
            lo, hi = dir_derivatives(f, [[0.0], [1.0]], [[1.0], [-1.0]])
            pairs = [([0.0], np.array([[1.0]])), ([1.0], np.array([[-1.0]]))]
            ((_, _, _, block_lo, block_hi),) = point_block_derivatives(f, pairs)
        assert list(lo) == [0.5, -1.0] and list(hi) == [1.0, -0.5]
        assert same_bits(block_lo, lo) and same_bits(block_hi, hi)
        assert calls == [(0.0, 1.0), (1.0, -1.0)] * 2
        assert not tape.called


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
        message = r"^\[0\.5, 0\.0\] is outside the feasible set"
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
                result = boundedness_check(oracle)
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
        rng = np.random.default_rng(5)
        points = rng.uniform(-1.5, 1.5, size=(ROW_BLOCK + 37, 2))
        dirs = rng.normal(size=(ROW_BLOCK + 37, 2))
        for make in ROUTES:
            f = make("abs(x1) + x2^2", "2*abs(x1) + x2^2 + 1", cube(2, -2, 2))
            lo, hi = dir_derivatives(f, points, dirs)
            rows = [dir_derivatives(f, x[None], d[None]) for x, d in zip(points, dirs)]
            assert same_bits(lo, [r_lo[0] for r_lo, _ in rows])
            assert same_bits(hi, [r_hi[0] for _, r_hi in rows])

    @pytest.mark.parametrize(
        "bad_point, bad_dir, error",
        [
            ([0.5, 0.0], [1.0, 0.0], ValueError),  # the derivative overflows
            ([2.0, 0.0], [1.0, 0.0], InfeasibleDirectionError),  # exits the domain
        ],
    )
    def test_an_error_only_in_the_second_block_names_its_first_row(
        self, bad_point, bad_dir, error
    ):
        ramp = "max(x1, 0)*1e308*1e308"
        f = Ivf.from_expressions(ramp, f"{ramp} + 1", cube(2, -2, 2))
        points = np.tile([-1.0, 0.5], (ROW_BLOCK + 10, 1))
        dirs = np.tile([1.0, 0.0], (ROW_BLOCK + 10, 1))
        for i in (ROW_BLOCK + 3, ROW_BLOCK + 7):
            points[i], dirs[i] = bad_point, bad_dir
        first = slice(ROW_BLOCK + 3, ROW_BLOCK + 4)
        expected = _message(lambda: dir_derivatives(f, points[first], dirs[first]))
        assert expected[0] is error
        assert _message(lambda: dir_derivatives(f, points, dirs)) == expected

    @pytest.mark.parametrize("make", ROUTES, ids=["exact", "analytic"])
    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_seeded_pairs_give_each_points_own_rows_or_error(self, seed, make):
        # points between the ramps' kinks, where every derivative is finite,
        # some on a kink (the derivative overflows along some directions) or
        # on a bound of x2 (some directions exit the domain), in blocks of
        # one, a few or all of the pairs
        ramp = "max(x1 - 0.5, 0)*1e308*1e308"
        f = make(ramp, f"{ramp} + max(-x1 - 0.5, 0)*1e308*1e308", cube(2, -2, 2))
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(int(rng.integers(1, 12))):
            x = rng.uniform([-0.5, -2.0], [0.5, 2.0])
            kind = int(rng.integers(0, 8))
            if kind == 1:
                x[0] = rng.choice([-0.5, 0.5])
            elif kind == 2:
                x[1] = rng.choice([-2.0, 2.0])
            pairs.append((x, rng.normal(size=(int(rng.integers(1, 5)), 2))))
        with mock.patch.object(ivf_module, "ROW_BLOCK", int(rng.choice([1, 4, ROW_BLOCK]))):
            own = [outcome(lambda: dir_derivatives(f, x, dirs)) for x, dirs in pairs]
            blocks = outcome(lambda: list(point_block_derivatives(f, pairs)))
        first = next((result for result in own if failed(result)), None)
        if first is not None:
            assert blocks == first
            return
        assert sum(count for count, *_ in blocks) == len(pairs)
        for k, end in ((3, 0), (4, 1)):
            assert same_bits(np.concatenate([block[k] for block in blocks]),
                             np.concatenate([result[end] for result in own]))

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
        f = random_convex_ivf(seed, n) if analytic else random_convex_expr_ivf(seed, n)
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
            except InfeasibleDirectionError:
                assert _message(lambda: ctx.deriv_lo) == _message(one_point_rows)
                return
            table = ctx.deriv_lo
        assert table.shape == (len(ctx.sbar_grid), len(ctx.dirs))
        assert same_bits(table, rows)


def row_by_row_blocks(f: Ivf, pairs):
    """point_block_derivatives as one block, with an ``Ivf.dir_deriv`` call
    per row."""
    pairs = list(pairs)
    rows = [(x, d) for x, dirs in pairs for d in np.asarray(dirs, dtype=float)]
    values = [f.dir_deriv(x, d) for x, d in rows]
    points, dirs = (np.reshape([row[k] for row in rows], (-1, f.dimension)) for k in (0, 1))
    lo, hi = (np.array([getattr(v, end) for v in values], float) for end in ("lo", "hi"))
    yield len(pairs), points, dirs, lo, hi


def recording(f: Ivf, record) -> Ivf:
    """f with its analytic derivative reporting each call's arguments to
    ``record`` before it runs."""
    call = f.analytic_dir_deriv

    def deriv(x, d):
        record(x, d)
        return call(x, d)

    return replace(f, analytic_dir_deriv=deriv)


ANALYTIC_CASES = {case.name: case for case in wsm_battery()}


class TestAnalyticBlocks:
    """A supplied derivative callback is called once per (point, direction)
    row, in point-then-direction order, on read-only views of the pair's
    point and of its direction array's rows, which are listed once per
    block; the results and errors are those of row-by-row calls."""

    def problem(self, name: str, grid: int = 5, n_dirs: int = 16):
        case = ANALYTIC_CASES[name]
        return WsmProblem(f=case.f, s=case.s, sbar=case.sbar, alpha=case.nominal_alpha,
                          grid=grid, seed=3, n_dirs=n_dirs)

    @pytest.mark.parametrize("name", sorted(ANALYTIC_CASES))
    def test_the_table_equals_row_by_row_calls(self, name):
        p = self.problem(name)
        ctx = p.context()
        expected = [
            [p.f.dir_deriv(x, d).lo if p.s.tangent_cone(x).contains(d[None])[0] else np.inf
             for d in ctx.dirs]
            for x in ctx.sbar_grid
        ]
        assert same_bits(ctx.deriv_lo, expected)

    @pytest.mark.parametrize("name", sorted(ANALYTIC_CASES))
    def test_dual_e_equals_row_by_row_calls(self, name):
        block = wsm.check_dual_e(self.problem(name))
        with mock.patch.object(wsm, "point_block_derivatives", row_by_row_blocks):
            row = wsm.check_dual_e(self.problem(name))
        assert same_bits(block.worst_margin, row.worst_margin)
        assert (block.witness is None) == (row.witness is None)
        if row.witness is not None:
            assert all(map(same_bits, block.witness, row.witness))
        assert (block.verdict, block.samples_evaluated) == (row.verdict, row.samples_evaluated)

    @pytest.mark.parametrize("name", sorted(ANALYTIC_CASES))
    def test_per_direction_pairs_equal_row_by_row_calls(self, name):
        f, n = ANALYTIC_CASES[name].f, ANALYTIC_CASES[name].f.dimension
        rng = np.random.default_rng(len(name))
        for x in rng.uniform(-1, 1, size=(3, n)):
            pairs = [(x, d[None]) for d in signed_basis(n)]
            blocks = list(point_block_derivatives(f, pairs))
            rows = list(row_by_row_blocks(f, pairs))
            for end in (1, 2, 3, 4):
                assert same_bits(np.concatenate([b[end] for b in blocks]),
                                 np.concatenate([r[end] for r in rows]))

    def test_the_callback_reads_read_only_one_d_float_arrays(self):
        seen = []
        p = self.problem("l1-n3")
        f = recording(p.f, lambda x, d: seen.append((x, d)))
        p = WsmProblem(f=f, s=p.s, sbar=p.sbar, alpha=p.alpha, grid=5, seed=3, n_dirs=16)
        check_all(p)
        f.dir_deriv([0.5, 0.0, -0.5], [1.0, 0.0, 0.0])
        list(point_block_derivatives(f, [([0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]])]))
        assert len(seen) > 100
        for array in itertools.chain.from_iterable(seen):
            assert (array.ndim, array.dtype, array.flags.writeable) == (1, np.float64, False)

    @pytest.mark.parametrize("argument", [0, 1])
    def test_a_writing_callback_raises_and_changes_nothing(self, argument):
        def write(*args):
            args[argument][0] = 7.0

        p = self.problem("l1-n2")
        p = WsmProblem(f=recording(p.f, write), s=p.s, sbar=p.sbar, alpha=p.alpha, grid=5)
        ctx = p.context()
        grid, dirs = ctx.sbar_grid.copy(), ctx.dirs.copy()
        for call in (lambda: ctx.deriv_lo, lambda: wsm.check_dual_e(p),
                     lambda: wsm.check_dual_f(p)):
            assert _message(call)[0] is ValueError
        assert same_bits(ctx.sbar_grid, grid) and same_bits(ctx.dirs, dirs)

    @pytest.mark.parametrize("first", ["raises", "returns None"])
    def test_a_failing_block_raises_the_first_failing_points_own_error(self, first):
        # b's call raises; a's returns None, which fails only once its
        # values are read, after b's call in a block of both
        def deriv(x, d):
            if x[0] > 0:
                raise ValueError(f"no derivative at {format_point(x)}")
            if x[0] < 0 and first == "returns None":
                return None
            return Interval(d[0], 2 * abs(d[0]))

        f = replace(make_ivf(1, abs, abs, -2, 2), analytic_dir_deriv=deriv)
        dirs = np.array([[1.0], [-1.0]])
        pairs = [([-0.5], dirs), ([0.0], dirs), ([0.5], dirs), ([1.0], dirs)]
        failing = pairs[0] if first == "returns None" else pairs[2]
        expected = _message(lambda: dir_derivatives(f, *failing))
        assert expected == (
            (ValueError, "analytic_dir_deriv at x=[-0.5] along d=[1.0] returned a NoneType, "
                         "not an interval with real lo and hi")
            if first == "returns None" else (ValueError, "no derivative at [0.5]")
        )
        assert _message(lambda: list(point_block_derivatives(f, pairs))) == expected

    @pytest.mark.parametrize("block", [1, 10, ROW_BLOCK])
    def test_the_table_calls_once_per_feasible_pair_in_order(self, block):
        calls = []
        p = self.problem("l1-n3")
        f = recording(p.f, lambda x, d: calls.append((x.tobytes(), d.tobytes())))
        p = WsmProblem(f=f, s=p.s, sbar=cube(3, -0.5, 1), alpha=p.alpha, grid=5, seed=3,
                       n_dirs=7)
        ctx = p.context()
        with mock.patch.object(ivf_module, "ROW_BLOCK", block):
            ctx.deriv_lo
        assert calls == [
            (x.tobytes(), d.tobytes())
            for x in ctx.sbar_grid for d in ctx.dirs[p.s.tangent_cone(x).contains(ctx.dirs)]
        ]

    def test_row_views_live_one_block_at_a_time(self):
        views, most = [], []
        p = self.problem("l1-n3")

        def record(x, d):
            views.append(weakref.ref(d))
            most.append(sum(view() is not None for view in views))

        p = WsmProblem(f=recording(p.f, record), s=p.s, sbar=cube(3, -0.5, 1), alpha=p.alpha,
                       grid=5, seed=3, n_dirs=7)
        # a block holds at most 13 rows, a face's most: its 7 + 6 directions
        with mock.patch.object(ivf_module, "ROW_BLOCK", 13):
            p.context().deriv_lo
        assert len(views) > 100 and max(most) <= 13
        assert all(view() is None for view in views)


class TestAnalyticContract:
    """A supplied derivative is held to the other routes' contract: a value
    that is not finite raises ValueError naming its point and direction, so
    does a result without real ``lo`` and ``hi``, and an error raised in the
    callback keeps its type and message and gains a note naming them."""

    @staticmethod
    def ivf(deriv) -> Ivf:
        return replace(vee_ivf(), analytic_dir_deriv=deriv)

    @pytest.mark.parametrize("end", ["lo", "hi"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_a_value_that_is_not_finite_names_its_row(self, end, value):
        def deriv(x, d):
            ends = {"lo": d[0], "hi": 2 * d[0]}
            if x[0] > 0:
                ends[end] = value
            return SimpleNamespace(**ends)

        f = self.ivf(deriv)
        points, dirs = [[-0.5], [0.5], [1.0]], [[1.0], [-1.0], [1.0]]
        assert _message(lambda: dir_derivatives(f, points, dirs)) == (
            ValueError, f"directional derivative {value} at x=[0.5] along d=[-1.0] is not finite")
        pairs = [(np.array(x), np.array([d])) for x, d in zip(points, dirs)]
        assert _message(lambda: list(point_block_derivatives(f, pairs)))[1].startswith(
            f"directional derivative {value} at x=[0.5]")

    def test_an_infinite_derivative_never_reads_as_holds(self):
        # the restricted table, dual-e and dual-f all read the callback
        f = self.ivf(lambda x, d: SimpleNamespace(lo=np.inf, hi=np.inf))
        p = WsmProblem(f=f, s=cube(1, -1, 1), sbar=cube(1, 0, 0), alpha=0.25, grid=5)
        for checker in (wsm.check_primal, wsm.check_dual_normal_cone, wsm.check_dual_e,
                        wsm.check_dual_f):
            error = _message(lambda: checker(p))
            assert error[0] is ValueError and "is not finite" in error[1]

    def test_a_lower_end_above_the_upper_names_its_row(self):
        f = replace(vee_ivf(1.0, 2.0),
                    analytic_dir_deriv=lambda x, d: SimpleNamespace(lo=5.0, hi=1.0))
        assert _message(lambda: dir_derivatives(f, [[0.5]], [[-1.0]])) == (
            ValueError, "analytic_dir_deriv at x=[0.5] along d=[-1.0] returned lo=5.0 > hi=1.0")
        # every checker that reads the callback raises; primal, dual-e and
        # dual-f read "holds" at margin 2 while the crossed ends passed
        p = WsmProblem(f=f, s=cube(1, -1, 1), sbar=cube(1, 0, 0), alpha=3.0, grid=9)
        for checker in (wsm.check_primal, wsm.check_dual_normal_cone, wsm.check_dual_e,
                        wsm.check_dual_f):
            error = _message(lambda: checker(p))
            assert error[0] is ValueError and error[1].endswith("returned lo=5.0 > hi=1.0")

    @pytest.mark.parametrize("result, name", [((0.0, 1.0), "tuple"), (None, "NoneType"),
                                              (SimpleNamespace(lo="a", hi=1.0), "SimpleNamespace"),
                                              (SimpleNamespace(lo=0.0, hi=10**400),
                                               "SimpleNamespace"),
                                              # NumPy reads None as a NaN, not a real end
                                              (SimpleNamespace(lo=None, hi=1.0),
                                               "SimpleNamespace")])
    def test_a_result_without_real_ends_names_its_row_and_type(self, result, name):
        f = self.ivf(lambda x, d: result if x[0] > 0 else Interval(d[0], 2 * abs(d[0])))
        expected = (ValueError, "analytic_dir_deriv at x=[0.5] along d=[-1.0] returned a "
                                f"{name}, not an interval with real lo and hi")
        points, dirs = [[-0.5], [0.5], [1.0]], [[1.0], [-1.0], [1.0]]
        assert _message(lambda: dir_derivatives(f, points, dirs)) == expected
        assert _message(lambda: f.dir_deriv([0.5], [-1.0])) == expected

    def test_an_error_in_the_callback_gains_a_note_naming_its_row(self):
        calls = []

        def deriv(x, d):
            calls.append(x[0])
            if x[0] > 0:
                raise ZeroDivisionError("no derivative here")
            return Interval(d[0], 2 * abs(d[0]))

        f = self.ivf(deriv)
        points, dirs = [[-0.5], [0.5], [1.0]], [[1.0], [-1.0], [1.0]]
        with pytest.raises(ZeroDivisionError) as info:
            dir_derivatives(f, points, dirs)
        assert str(info.value) == "no derivative here"
        assert info.value.__notes__ == [
            "raised by analytic_dir_deriv at x=[0.5] along d=[-1.0]"]
        # the failing row is found without calling the callback again
        assert calls == [-0.5, 0.5]
        pairs = [(np.array(x), np.array([d])) for x, d in zip(points, dirs)]
        calls.clear()
        with pytest.raises(ZeroDivisionError) as info:
            list(point_block_derivatives(f, pairs))
        assert info.value.__notes__ == [
            "raised by analytic_dir_deriv at x=[0.5] along d=[-1.0]"]
        # the block, then its redo one pair at a time
        assert calls == [-0.5, 0.5] * 2

    def test_a_failing_table_calls_each_row_up_to_the_failure_twice(self):
        # once in its block and once in the block's redo, one pair at a time
        calls = []
        case = ANALYTIC_CASES["l1-n2"]

        def deriv(x, d):
            calls.append((x.tobytes(), d.tobytes()))
            if x[0] > 0.3 and x[1] > 0.3 and raising:
                raise ZeroDivisionError("no derivative here")
            return case.f.analytic_dir_deriv(x, d)

        def table():
            p = WsmProblem(f=replace(case.f, analytic_dir_deriv=deriv), s=case.s,
                           sbar=cube(2, -0.5, 1), alpha=1.0, grid=9, seed=3, n_dirs=16)
            p.context().deriv_lo

        raising = False
        table()
        rows, calls[:] = list(calls), []
        failing = next(i for i, (x, _) in enumerate(rows)
                       if min(np.frombuffer(x)) > 0.3)
        assert len(rows) <= ROW_BLOCK  # one block
        raising = True
        with pytest.raises(ZeroDivisionError) as info:
            table()
        x, d = (np.frombuffer(b) for b in rows[failing])
        assert info.value.__notes__ == [
            f"raised by analytic_dir_deriv at x={format_point(x)} along d={format_point(d)}"]
        assert calls == rows[: failing + 1] * 2
        assert len(calls) == 1952


def opaque(g, name: str, record) -> Callable:
    """g as a plain callable (no batched or tangent form) that reports
    ``name`` and its argument to ``record`` before it runs."""
    def endpoint(x):
        record(name, x)
        return g(x)

    return endpoint


def opaque_ivf(f: Ivf, record) -> Ivf:
    return replace(f, lower=opaque(f.lower, "lower", record),
                   upper=opaque(f.upper, "upper", record))


def plain_rows(g, name):
    """The reference for the kernels' per-row adapter: one float(g(x)) per
    row, on the rows of the array itself."""
    return reference_rows(g)


def same_result(a, b) -> bool:
    """Equal results, their floats and arrays bit for bit."""
    if is_dataclass(a):
        a, b = astuple(a), astuple(b)
    if isinstance(a, tuple):
        return type(b) is tuple and len(a) == len(b) and all(map(same_result, a, b))
    if a is None or isinstance(a, str):
        return a == b
    return same_bits(a, b)


class TestOpaqueEndpoints:
    """An endpoint without a batched form is called once per row, all of
    lower's rows before upper's, on read-only 1-d float64 views, and its
    results are those of one float(g(x)) per row, bit for bit."""

    CALLS = {
        "rows": lambda f, points, dirs: endpoint_rows(f, points),
        "grid": lambda f, points, dirs: endpoint_rows(f, cube(2, -1, 1).grid_axes(5)),
        "value": lambda f, points, dirs: f.value(points[0]),
        "convexity": lambda f, points, dirs: convexity_check(f, 50, seed=2),
        "lipschitz": lambda f, points, dirs: lipschitz_estimate(f, 50, seed=2),
        "probes": lambda f, points, dirs: subdiff._gh_diff_rows(f, points[0], points),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_calls_see_read_only_rows_in_the_reference_order(self, call):
        seen = []
        f = opaque_ivf(
            Ivf.from_expressions("abs(x1) - x2^2", "2*abs(x1) + 1", cube(2, -2, 2)),
            lambda name, x: seen.append(
                (name, x.tobytes(), x.ndim, x.dtype, x.flags.writeable)),
        )
        rng = np.random.default_rng(11)
        points, dirs = rng.uniform(-1.5, 1.5, size=(16, 2)), rng.normal(size=(16, 2))
        result = self.CALLS[call](f, points, dirs)
        calls, seen[:] = list(seen), []
        with mock.patch.object(ivf_module, "_rows", plain_rows):
            expected = self.CALLS[call](f, points, dirs)
        assert same_result(result, expected)
        assert [c[:2] for c in calls] == [c[:2] for c in seen]
        assert len(calls) >= 2 and {c[2:] for c in calls} == {(1, np.dtype(float), False)}

    def test_a_writing_endpoint_raises_and_changes_nothing(self):
        armed = []

        def write(name, x):
            if armed:
                x[0] = 7.0

        f = opaque_ivf(Ivf.from_expressions("abs(x1) + abs(x2)", "2*abs(x1) + abs(x2) + 1",
                                            cube(2, -2, 2)), write)
        p = WsmProblem(f=f, s=cube(2, -1, 1), sbar=cube(2, -0.5, 0.5), alpha=0.5, grid=5)
        ctx = p.context()
        grid, s_points = ctx.sbar_grid.copy(), ctx.s_axes.points()
        armed.append(True)
        for call in self.CALLS.values():
            for points in (ctx.sbar_grid, ctx.s_axes.points()):
                error = _message(lambda: call(f, points, np.ones((1, 2))))
                assert error == (ValueError, "assignment destination is read-only")
        assert _message(lambda: WsmProblem(f=f, s=p.s, sbar=p.sbar, alpha=0.5,
                                           grid=5).context())[0] is ValueError
        assert same_bits(ctx.sbar_grid, grid) and same_bits(ctx.s_axes.points(), s_points)

    @pytest.mark.parametrize("kind", [
        float, np.float64, np.float32, lambda v: int(v * 2**60), lambda v: v > 0,
        lambda v: Fraction(v) / 3,
    ], ids=["float", "float64", "float32", "int", "bool", "Fraction"])
    @pytest.mark.parametrize("ends", ["opaque", "expr-lower", "expr-upper"])
    def test_values_equal_float_of_each_result(self, kind, ends):
        def lower(x):
            return kind(x[0] - 0.7 * x[1] + 0.1)

        def upper(x):
            return kind(x[0] - 0.7 * x[1] + 3.1)

        if ends == "expr-lower":
            lower = parse("x1 - 1e20", 2)
        elif ends == "expr-upper":
            upper = parse("x1 + 1e20", 2)
        f = Ivf(2, lower, upper, cube(2, -2, 2))
        points = np.random.default_rng(3).uniform(-2, 2, size=(64, 2))
        lo, hi = endpoint_rows(f, points)
        assert same_bits(lo, reference_rows(lower)(points))
        assert same_bits(hi, reference_rows(upper)(points))

    @pytest.mark.parametrize("result, kind", [(None, "NoneType"), ([1.0], "list"),
                                              ("abc", "str")])
    @pytest.mark.parametrize("ends", ["opaque", "expr-upper"])
    def test_a_result_that_is_not_a_real_number_names_its_point(self, result, kind, ends):
        calls = []

        def lower(x):
            calls.append(x[0])
            return result if x[0] > 0 else 0.0

        f = Ivf(1, lower,
                parse("2 + x1", 1) if ends == "expr-upper" else (lambda x: 2.0 + x[0]),
                cube(1, -2, 2))
        points = np.array([[-1.0], [0.25], [0.5]])
        message = "lower([0.25]) returned a " + kind + ", not a real number"
        assert _message(lambda: endpoint_rows(f, points)) == (ValueError, message)
        assert calls == [-1.0, 0.25, 0.5]  # each row once, the scan reads the results
        calls.clear()
        assert _message(lambda: f.value([0.25])) == (ValueError, message)
        assert calls == [0.25]

    @pytest.mark.parametrize("ends", ["opaque", "expr-upper"])
    def test_a_result_beyond_the_float_range_names_its_endpoint_and_point(self, ends):
        f = Ivf(1, lambda x: 10**400 if x[0] > 0 else 0,
                parse("2 + x1", 1) if ends == "expr-upper" else (lambda x: 2.0),
                cube(1, -2, 2))
        expected = (ValueError, "lower([0.5]) returned a result beyond the float range (int)")
        assert _message(lambda: f.value([0.5])) == expected
        assert _message(lambda: endpoint_rows(f, [[-1.0], [0.5], [1.0]])) == expected

    @pytest.mark.parametrize("call", ["rows", "value"])
    @pytest.mark.parametrize("name", ["lower", "upper"])
    def test_an_error_raised_in_an_endpoint_gains_a_note_naming_its_point(self, name, call):
        seen = []

        def raising(x):
            seen.append(x[0])
            if x[0] >= 0.52:
                raise ZeroDivisionError("no value here")
            return abs(x[0]) + 1.0

        ends = {"lower": lambda x: abs(x[0]), "upper": lambda x: abs(x[0]) + 2.0, name: raising}
        f = Ivf(1, ends["lower"], ends["upper"], cube(1, -2, 2))
        points = np.arange(101)[:, None] / 100
        calls = {"rows": lambda: endpoint_rows(f, points),
                 "value": lambda: f.value([0.52])}
        with pytest.raises(ZeroDivisionError) as info:
            calls[call]()
        assert str(info.value) == "no value here"
        assert info.value.__notes__ == [f"raised by {name}([0.52])"]
        # rows 0.00 to 0.52, each once: the note comes from the rows collected
        assert seen == ([0.52] if call == "value" else list(points[:53, 0]))

    @pytest.mark.parametrize("rows, shape", [
        (lambda points: np.abs(points[:, :1]), lambda m: (m, 1)),
        (lambda points: np.abs(points[1:, 0]), lambda m: (m - 1,)),
    ], ids=["column", "one-short"])
    @pytest.mark.parametrize("name", ["lower", "upper"])
    def test_a_batched_result_of_another_shape_names_its_endpoint(self, name, rows, shape):
        ends = {"lower": parse("abs(x1)", 2), "upper": parse("abs(x1) + abs(x2) + 1", 2),
                name: SimpleNamespace(rows=rows)}
        f = Ivf(2, ends["lower"], ends["upper"], cube(2, -1, 1))

        def message(m):
            return f"{name}.rows returned shape {shape(m)} on points of shape ({m}, 2), not ({m},)"

        points = np.array([[0.5, 0.0], [-0.5, 0.5], [0.0, 1.0]])
        assert _message(lambda: endpoint_rows(f, points)) == (ValueError, message(3))
        assert _message(lambda: f.value([0.5, 0.0])) == (ValueError, message(1))
        p = WsmProblem(f=f, s=cube(2, -1, 1), sbar=cube(2, 0, 0), alpha=0.5, grid=5)
        assert _message(lambda: wsm.estimate_modulus(p)) == (ValueError, message(25))

    def test_a_nan_result_is_still_not_finite(self):
        calls = []

        def lower(x):
            calls.append(x[0])
            return math.nan if x[0] > 0 else 0.0

        f = Ivf(1, lower, lambda x: 2.0, cube(1, -2, 2))
        assert _message(lambda: endpoint_rows(f, [[-1.0], [0.5]])) == (
            ValueError, "lower([0.5]) = nan is not finite")
        assert calls == [-1.0, 0.5]

    def test_a_lower_endpoint_error_wins_over_an_earlier_upper_one(self):
        # upper fails at the first row, lower only at the third
        def failing(name, row):
            def endpoint(x):
                if x[0] == row:
                    raise ValueError(f"{name} fails at {format_point(x)}")
                return abs(x[0]) + (name == "upper")

            return endpoint

        f = Ivf(1, failing("lower", 0.5), failing("upper", -1.0), cube(1, -2, 2))
        points = np.array([[-1.0], [0.0], [0.5], [1.0]])
        with mock.patch.object(ivf_module, "_rows", plain_rows):
            expected = _message(lambda: endpoint_rows(f, points))
        assert expected == (ValueError, "lower fails at [0.5]")
        assert _message(lambda: endpoint_rows(f, points)) == expected


# The analytic loop in its plain formula, kept apart from the code it
# checks: the kernel must give its results bit for bit and raise its errors.


def reference_rows(g):
    """g at each row of an array: its batched form, else one float(g(x)) per row."""
    rows = getattr(g, "rows", None)
    return rows if rows is not None else (
        lambda points: np.array([float(g(x)) for x in points], dtype=float))


def reference_dir_derivatives(f: Ivf, points, dirs):
    """One block (at most ROW_BLOCK rows) of dir_derivatives of an objective
    with an analytic derivative, through the reference loop."""
    points, dirs = np.broadcast_arrays(
        np.asarray(points, dtype=float), np.asarray(dirs, dtype=float)
    )
    lo, hi = np.empty(len(points)), np.empty(len(points))
    for i, (x, d) in enumerate(zip(points, dirs)):
        value = f.analytic_dir_deriv(x, d)
        lo[i], hi[i] = value.lo, value.hi
    return lo, hi


def reference_exact_dir_derivatives(trees, domain: BoxSet, points, dirs):
    """One block of dir_derivatives of an objective whose endpoints are the
    expressions of two syntax trees, through the reference rules: the scan
    of every entry for a direction that exits the domain; then, lower before
    upper, the errors of the values (the tape's own, which test_expr pins
    against its reference), each row's derivative by
    test_expr.tangent_node_reference and the first that is not finite; then
    the span of the two, the first winning ties."""
    reference_require_feasible(domain, points, dirs)
    ends = []
    for tree in trees:
        parse(to_source(tree), points.shape[1]).rows(points)
        derivs = [tangent_node_reference(tree, x, d)[1] for x, d in zip(points, dirs)]
        for x, d, t in zip(points, dirs, derivs):
            if not math.isfinite(t):
                raise ValueError(f"directional derivative {t} at x={format_point(x)} "
                                 f"along d={format_point(d)} is not finite")
        ends.append(derivs)
    return tuple(np.array([pick(a, b) for a, b in zip(*ends)], dtype=float)
                 for pick in (min, max))


def kernel_block(rng: np.random.Generator, n: int, rows: int = 64):
    """The box [-2, 2]^n and a block of points and directions in it: about
    a fifth of the coordinates on a bound, and a tenth within 2e-3 of one
    and heading for it; about a fifth of the
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



class TestKernelMatchesTheReference:
    """The exact route and the analytic loop against their references on
    derandomized blocks in 1 to 4 dimensions, and the rows their errors
    name."""

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_exact_route(self, seed):
        rng = np.random.default_rng(seed)
        n = 1 + seed % 4
        domain, points, dirs = kernel_block(rng, n)
        trees = [random_tree(rng, n, int(rng.integers(1, 4))) for _ in range(2)]
        f = Ivf.from_expressions(to_source(trees[0]), to_source(trees[1]), domain)
        # exact zeros reach kinks, zero denominators and min/max ties
        points[rng.random(points.shape) < 0.1] = 0.0
        # the whole block, which raises if any row does, and the block of
        # the rows that do not raise on their own
        fine = [
            i
            for i, (x, d) in enumerate(zip(points[:, None], dirs[:, None]))
            if not failed(outcome(lambda: reference_exact_dir_derivatives(trees, domain, x, d)))
        ]
        assert len(fine) >= len(points) // 2
        for rows in (slice(None), fine):
            block = points[rows], dirs[rows]
            expected = outcome(lambda: reference_exact_dir_derivatives(trees, domain, *block))
            actual = outcome(lambda: dir_derivatives(f, *block))
            if failed(actual) or failed(expected):
                assert actual == expected
            else:  # equal values, counting the two zeros as equal
                assert all(map(np.array_equal, actual, expected))

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_exact_route_equals_the_hand_written_derivative(self, seed):
        # one objective as expression text and with its hand-written
        # derivative, at points on its domain's bounds and along signed zeros
        n = 1 + seed % 4
        exact, analytic = random_convex_expr_ivf(seed, n), random_convex_ivf(seed, n)
        _, points, dirs = kernel_block(np.random.default_rng(seed), n)
        points *= 0.75  # inside the objective's domain [-1.5, 1.5]^n
        expected = reference_dir_derivatives(analytic, points, dirs)
        for actual, wanted in zip(dir_derivatives(exact, points, dirs), expected):
            np.testing.assert_allclose(actual, wanted, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "lower, upper, point, direction, error",
        [
            # the direction heads out of the domain at once
            ("abs(x1)", "2*abs(x1)", [2.0, 0.5], [1.0, -1.0], InfeasibleDirectionError),
            # the endpoint has no value there
            ("1 / x1", "1 / x1 + 1", [0.0, 0.5], [1.0, 0.0], EvalError),
            # the derivative overflows
            ("x1*1e308*x2", "x1*1e308*x2 + 1", [0.0, 2.0], [1.0, 0.0], ValueError),
        ],
        ids=["infeasible", "no-value", "not-finite"],
    )
    def test_exact_errors_name_the_first_failing_row(
        self, lower, upper, point, direction, error
    ):
        f = Ivf.from_expressions(lower, upper, cube(2, -2, 2))
        # the third row fails too, at another point
        later = [point[0], -point[1]]
        points, dirs = [[0.5, 0.0], point, later], [[1.0, 0.0], direction, direction]
        expected = outcome(lambda: dir_derivatives(f, [point], [direction]))
        assert expected[0] is error and format_point(point) in expected[1]
        assert failed(outcome(lambda: dir_derivatives(f, [later], [direction])))
        assert outcome(lambda: dir_derivatives(f, points, dirs)) == expected

    def test_a_lower_endpoint_error_wins_over_an_earlier_upper_one(self):
        # upper's derivative overflows at the first row, lower's at the
        # second: lower is differentiated first, so its row is named
        ramp = "max(x1 - 0.5, 0)*1e308*1e308"
        f = Ivf.from_expressions(ramp, f"{ramp} + max(-x1 - 0.5, 0)*1e308*1e308", cube(1, -2, 2))
        points, dirs = [[-0.5], [0.5]], [[-1.0], [1.0]]
        assert outcome(lambda: dir_derivatives(f, points[:1], dirs[:1])) == (
            ValueError, "directional derivative inf at x=[-0.5] along d=[-1.0] is not finite")
        assert outcome(lambda: dir_derivatives(f, points, dirs)) == (
            ValueError, "directional derivative inf at x=[0.5] along d=[1.0] is not finite")

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


def reference_require_feasible(domain: BoxSet, points: np.ndarray, dirs: np.ndarray) -> None:
    """The feasibility test without its screen: every entry scanned."""
    blocked = ((dirs > 0) & (points >= domain.hi)) | ((dirs < 0) & (points <= domain.lo))
    i = _first((blocked | np.isinf(dirs)).any(axis=1))
    if i is not None:
        raise InfeasibleDirectionError(
            f"no small-t feasibility: the direction {format_point(dirs[i])} exits the "
            f"domain immediately at {format_point(points[i])}"
        )


class TestFeasibilityScreen:
    """The feasibility test scans a block entry by entry only where a
    coordinate reaches the smallest upper or the largest lower bound of the
    domain, or a direction is infinite; it passes the same blocks and names
    the same row as the scan of every entry."""

    LOWER, UPPER = "x1^2 + x2^2", "2*x1^2 + x2^2 + 1"

    @pytest.mark.parametrize("seed", KERNEL_SEEDS)
    def test_blocks_with_and_without_a_blocked_row(self, seed):
        rng = np.random.default_rng(seed)
        domain, points, dirs = kernel_block(rng, 1 + seed % 4)
        # with points on the bounds heading inward or along them, and with
        # every point inside, where the scan is skipped
        for block in (points, np.clip(points, -1.5, 1.5)):
            assert _require_feasible(domain, block, dirs) is None
            assert reference_require_feasible(domain, block, dirs) is None
            # past a bound heading out, on each bound heading out, an
            # infinite direction: each alone in a block inside the domain
            rows = rng.choice(len(points), size=4, replace=False)
            for k, (x, d) in enumerate(((2.5, 1.0), (2.0, 1.0), (-2.0, -1.0), (0.0, -np.inf))):
                moved, heading = block.copy(), dirs.copy()
                moved[rows[k:], 0], heading[rows[k:], 0] = x, d
                error = outcome(lambda: reference_require_feasible(domain, moved, heading))
                assert error[0] is InfeasibleDirectionError
                assert format_point(moved[min(rows[k:])]) in error[1]
                assert outcome(lambda: _require_feasible(domain, moved, heading)) == error

    def test_axes_with_other_bounds_are_scanned_entry_by_entry(self):
        # x2 = 5 lies past the smallest upper bound 1, but inside its axis;
        # a NaN coordinate is scanned too, and heads nowhere
        domain = BoxSet(np.array([-1.0, 0.0]), np.array([1.0, 10.0]))
        points = np.array([[0.5, 5.0], [0.0, 9.0], [np.nan, 5.0]])
        dirs = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
        assert _require_feasible(domain, points, dirs) is None
        for moved in ([0.0, 10.0], [0.5, 12.0]):
            blocked = points.copy()
            blocked[1] = moved
            error = outcome(lambda: reference_require_feasible(domain, blocked, dirs))
            assert error[0] is InfeasibleDirectionError and format_point(moved) in error[1]
            assert outcome(lambda: _require_feasible(domain, blocked, dirs)) == error

    @pytest.mark.parametrize("make", ROUTES, ids=["exact", "analytic"])
    def test_points_on_a_bound_heading_inward_pass_on_every_route(self, make):
        f = make(self.LOWER, self.UPPER, cube(2, -1, 1))
        points = [[1.0, 0.25], [-1.0, 1.0], [0.5, -1.0], [0.25, 0.5]]
        dirs = [[-1.0, 0.5], [1.0, -1.0], [0.0, 1.0], [1.0, 1.0]]
        # the span of 2 x.d and 4 x1 d1 + 2 x2 d2
        lo, hi = dir_derivatives(f, points, dirs)
        assert lo == pytest.approx([-3.75, -6.0, -2.0, 1.5])
        assert hi == pytest.approx([-1.75, -4.0, -2.0, 2.0])

    @pytest.mark.parametrize("make", ROUTES, ids=["exact", "analytic"])
    @pytest.mark.parametrize(
        "point, direction",
        [([2.0, 0.5], [1.0, 0.0]), ([2.5, 0.5], [1.0, 0.0]), ([0.5, -2.5], [0.5, -1.0]),
         ([0.5, 0.5], [0.0, np.inf]), ([0.5, 0.5], [-np.inf, 0.0])],
        ids=["on-a-bound", "past-a-bound", "past-the-lower-bound", "inf", "minus-inf"],
    )
    def test_a_blocked_row_raises_the_same_error_on_every_route(self, make, point, direction):
        f = make(self.LOWER, self.UPPER, cube(2, -2, 2))
        points = np.array([[0.5, 0.0], point, [-2.0, 0.5], point])
        dirs = np.array([[1.0, 0.0], direction, [1.0, -1.0], [-1.0, 0.0]])
        expected = (InfeasibleDirectionError, "no small-t feasibility: the direction "
                    f"{format_point(dirs[1])} exits the domain immediately at "
                    f"{format_point(points[1])}")
        assert outcome(lambda: reference_require_feasible(f.domain, points, dirs)) == expected
        assert _message(lambda: dir_derivatives(f, points, dirs)) == expected
        pairs = [(x, d[None]) for x, d in zip(points, dirs)]
        assert _message(lambda: list(point_block_derivatives(f, pairs))) == expected
