"""The five sharpness checkers, their concordance, and modulus estimation."""

import dataclasses
import gc
import io
import itertools
import tracemalloc
import weakref
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings

from ivwsm import (
    BoxSet,
    GuardError,
    IVector,
    Ivf,
    RestrictedIvf,
    WsmProblem,
    check_all,
    check_definition,
    check_dual_e,
    check_dual_f,
    check_dual_normal_cone,
    check_primal,
    concordant,
    estimate_modulus,
    is_subgradient,
)
from pathlib import Path

from ivwsm import build_problem, cli, cone_ball_support, dist_to_cone, ivf, load_problem_file, wsm
from ivwsm.expr import EvalError, ExprAst, parse
from ivwsm.geometry import GridAxes, Tag, row_norms
from ivwsm.ivf import InfeasibleDirectionError
from ivwsm.problems import parse_problem_text
from ivwsm.wsm import _Worst

from conftest import (
    box_dist,
    cube,
    l1_ivf,
    make_ivf,
    point_box,
    random_convex_expr_ivf,
    vee_ivf,
    wsm_battery,
)
from make_cli_golden import FILES, ROOT
from test_cli_fuzz import COEFFICIENTS, MAGNITUDES, runs
from test_expr import same_bits


def vee_problem(alpha: float, grid: int = 33) -> WsmProblem:
    return WsmProblem(
        f=vee_ivf(), s=cube(1, -1, 1), sbar=point_box(0.0), alpha=alpha, grid=grid
    )


def brute_force_scalar_wsm(g, s_points, sbar_points, dist_fn, alpha) -> float:
    """Oracle: worst slack of the scalar sharp-growth inequality over all pairs."""
    worst = np.inf
    for xbar in sbar_points:
        for x in s_points:
            worst = min(worst, g(x) - g(xbar) - alpha * dist_fn(x))
    return worst


class TestDefinition:
    def test_holds_below_the_modulus(self):
        report = check_definition(vee_problem(0.2))
        assert report.holds
        assert report.worst_margin >= 0

    def test_fails_above_with_witness_at_the_edge(self):
        report = check_definition(vee_problem(0.3))
        assert not report.holds
        assert abs(report.witness[1][0]) == pytest.approx(1.0)
        assert report.worst_margin == pytest.approx(0.25 - 0.3, abs=1e-9)

    def test_boundary_modulus_has_zero_margin(self):
        report = check_definition(vee_problem(0.25))
        assert report.holds
        assert report.worst_margin == pytest.approx(0.0, abs=1e-9)

    def test_matches_brute_force_endpoint_conjunction(self):
        # the interval verdict is the conjunction of the scalar checks on
        # the two endpoint functions, run independently
        for alpha in (0.1, 0.25, 0.4):
            p = vee_problem(alpha, grid=9)
            ctx = p.context()
            report = check_definition(p)
            margins = [
                brute_force_scalar_wsm(
                    g, ctx.s_grid, ctx.sbar_grid, lambda x: box_dist(p.sbar, x), alpha
                )
                for g in (p.f.lower, p.f.upper)
            ]
            assert report.worst_margin == pytest.approx(min(margins), abs=1e-12)
            assert report.holds == all(m >= -p.margin_tol for m in margins)

    def test_guard_rejects_non_nested_sets(self):
        with pytest.raises(GuardError):
            check_definition(
                WsmProblem(f=vee_ivf(), s=cube(1, -1, 1), sbar=point_box(1.5), alpha=0.1)
            )
        with pytest.raises(GuardError):
            check_definition(
                WsmProblem(f=vee_ivf(), s=cube(1, -3, 3), sbar=point_box(0.0), alpha=0.1)
            )

    @pytest.mark.parametrize("field, label", [("s", "S"), ("sbar", "Sbar")])
    def test_a_set_of_another_dimension_is_named(self, field, label):
        f = Ivf.from_expressions("abs(x1) + abs(x2)", "2*abs(x1) + abs(x2)", cube(2, -1, 1))
        sets = {"s": cube(2, -1, 1), "sbar": cube(2, 0, 0), field: cube(3, 0, 0)}
        with pytest.raises(GuardError) as info:
            WsmProblem(f=f, alpha=1.0, grid=5, **sets)
        assert (info.value.field, str(info.value)) == (
            field, f"{label} has dimension 3, the objective 2")

    def test_nonconvex_declared_objective_is_noted_not_fatal(self):
        f = make_ivf(1, lambda x: -x[0] ** 2, lambda x: 1.0, -2, 2)
        p = WsmProblem(f=f, s=cube(1, -1, 1), sbar=point_box(0.0), alpha=0.1)
        report = check_definition(p)
        assert any("convexity" in note for note in report.notes)

    def test_crossed_endpoints_are_a_model_error(self):
        from ivwsm.ivf import ModelError

        f = make_ivf(1, lambda x: x[0], lambda x: -x[0], -2, 2)
        p = WsmProblem(f=f, s=cube(1, -1, 1), sbar=point_box(0.0), alpha=0.1)
        with pytest.raises(ModelError):
            check_definition(p)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(GuardError):
            check_definition(
                WsmProblem(f=vee_ivf(), s=cube(1, -1, 1), sbar=point_box(0.0), alpha=0.0)
            )

    @pytest.mark.parametrize(
        "setting, value",
        [
            ("grid", 1),
            ("grid", 0),
            ("grid", -3),
            ("margin_tol", -1.0),
            ("margin_tol", float("nan")),
            ("margin_tol", float("inf")),
            ("n_dirs", -1),
            ("n_dirs", 100_000_000_000),
            ("alpha", float("inf")),
            ("alpha", float("nan")),
            ("seed", -1),
        ],
    )
    def test_out_of_range_settings_rejected(self, setting, value):
        with pytest.raises(GuardError, match=f"^{setting} must be"):
            WsmProblem(
                f=vee_ivf(), s=cube(1, -1, 1), sbar=point_box(0.0), **{"alpha": 0.2, setting: value}
            )

    def test_everything_a_single_point_is_concordantly_sharp(self):
        # S = Sbar = {p}: the definition is vacuous, restricted derivatives
        # are infinite in every direction, cone intersections collapse
        f = Ivf.from_expressions("x1^2", "x1^2 + 1", cube(2, -1, 1))
        point = point_box(0.25, -0.5)
        p = WsmProblem(f=f, s=point, sbar=point, alpha=3.0, grid=5)
        reports = check_all(p)
        assert concordant(reports)
        assert all(r.holds for r in reports.values())


class TestPrimal:
    def test_verdicts_match_definition(self):
        assert check_primal(vee_problem(0.2)).holds
        assert not check_primal(vee_problem(0.3)).holds

    def test_whole_set_candidate_with_flat_objective(self):
        f = Ivf.from_expressions("1", "2", cube(1, -2, 2))
        s = cube(1, -1, 1)
        p = WsmProblem(f=f, s=s, sbar=s, alpha=5.0, grid=9)
        assert check_primal(p).holds
        assert check_definition(p).holds


class TestDualNormalCone:
    def test_point_inside_the_kink_box_passes(self):
        p = vee_problem(0.2)
        report = check_dual_normal_cone(p)
        assert report.holds
        # directly: 0.2 embeds as a member of the subgradient set at 0
        f_o = RestrictedIvf(p.f, p.s)
        ctx = p.context()
        res = is_subgradient(f_o, [0.0], IVector.degenerate([0.2]), ctx.s_grid)
        assert res.member

    def test_point_outside_fails(self):
        report = check_dual_normal_cone(vee_problem(0.3))
        assert not report.holds

    def test_interior_candidate_point_is_trivial(self):
        # Sbar = S: every normal cone along the candidate grid is {0}
        f = Ivf.from_expressions("1", "1.5", cube(1, -2, 2))
        s = cube(1, -1, 1)
        p = WsmProblem(f=f, s=s, sbar=s, alpha=3.0, grid=7)
        assert check_dual_normal_cone(p).holds


class TestDualE:
    def test_examples(self):
        assert check_dual_e(vee_problem(0.2)).holds
        report = check_dual_e(vee_problem(0.3))
        assert not report.holds
        assert report.worst_margin == pytest.approx(0.25 - 0.3, abs=1e-6)

    def test_empty_intersection_is_vacuous(self):
        # interior candidate points: tangent(S) is everything, normal(Sbar)
        # is {0}, so no directions are generated there
        f = make_ivf(1, lambda x: 1.0, lambda x: 1.5, -2, 2)
        s = cube(1, -1, 1)
        p = WsmProblem(f=f, s=s, sbar=s, alpha=2.0, grid=5)
        report = check_dual_e(p)
        assert report.holds and report.witness is None


class TestDualF:
    def test_examples(self):
        assert check_dual_f(vee_problem(0.2)).holds
        assert not check_dual_f(vee_problem(0.3)).holds

    def test_candidate_points_pass_trivially(self):
        p = vee_problem(0.2)
        report = check_dual_f(p)
        assert report.samples_evaluated == len(p.context().s_grid)


class TestConcordance:
    @pytest.mark.parametrize("case", wsm_battery(), ids=lambda c: c.name)
    def test_battery_agrees_at_both_scalings(self, case):
        base = case.modulus if case.positive else case.nominal_alpha
        for scale in (0.8, 1.2):
            problem = case.problem(alpha=scale * base, grid=17)
            reports = check_all(problem)
            assert concordant(reports), {
                name: (r.verdict, r.worst_margin) for name, r in reports.items()
            }
            expected = case.positive and scale == 0.8
            assert reports["definition"].holds == expected

    def test_monotone_in_alpha(self):
        for alpha in (0.05, 0.1, 0.2, 0.25):
            assert check_definition(vee_problem(alpha)).holds
        for alpha in (0.26, 0.5, 1.0):
            assert not check_definition(vee_problem(alpha)).holds


class TestContextDistances:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_dists_equal_the_row_norms_of_the_offsets(self, n):
        # free axes of S on the even axes (3 points each), point axes on the
        # odd ones, so that from 8 axes on the order of the sum matters
        free = np.arange(n) % 2 == 0
        rng = np.random.default_rng(n)
        at = rng.uniform(-0.9, 0.9, size=n)
        s = BoxSet(np.where(free, -1.0, at), np.where(free, 1.0, at))
        sbar = point_box(*np.where(free, rng.uniform(-0.9, 0.9, size=n), at))
        p = WsmProblem(f=l1_ivf(n, 1.0, 2.0), s=s, sbar=sbar, alpha=0.5, grid=3, n_dirs=4)
        ctx = p.context()
        expected = np.linalg.norm(ctx.s_grid - ctx.proj, axis=1)
        assert len(ctx.s_grid) == 3 ** int(free.sum())
        assert ctx.dists.tobytes() == expected.tobytes()


def materialized_context(p: WsmProblem) -> dict:
    """``s_grid``, ``flo_s``, ``fhi_s``, ``proj`` and ``dists`` computed on
    the rows of S's grid, listed point by point, in the order the context
    builds them (then Sbar's values and the convexity guard), so that it
    raises what that build raises."""
    k = wsm.grid_density(p.s, p.grid)
    axes = [np.linspace(lo, hi, k) if hi > lo else [lo] for lo, hi in zip(p.s.lo, p.s.hi)]
    grid = np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, p.s.dimension)
    flo, fhi = ivf.endpoint_rows(p.f, grid)
    ivf.endpoint_rows(p.f, p.sbar.grid(k))
    proj = p.sbar.project(grid)
    with np.errstate(over="ignore"):
        dists = np.linalg.norm(grid - proj, axis=1)
    # a squared distance past the float range is rescaled, as row_norms does
    over = np.isinf(dists)
    dists[over] = row_norms((grid - proj)[over])
    wsm.convexity_note(p.f, p.seed)
    return {"s_grid": grid, "flo_s": flo, "fhi_s": fhi, "proj": proj, "dists": dists}


def assert_routes_agree(p: WsmProblem) -> bool:
    """The context, which reads S's grid by its axes, holds the arrays of
    :func:`materialized_context` byte for byte, or raises its exception
    with its message; True when they raise."""
    try:
        expected = materialized_context(p)
    except Exception as exc:
        with pytest.raises(Exception) as raised:
            p.context()
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return True
    ctx = p.context()
    for name, value in expected.items():
        got = getattr(ctx, name)
        assert (got.dtype, got.shape, got.tobytes()) == (value.dtype, value.shape, value.tobytes())
    return False


def l1_source(n: int, weights, centre) -> str:
    terms = zip(map(float, weights), map(float, centre))
    return " + ".join(f"{w!r}*abs(x{i} - {c!r})" for i, (w, c) in enumerate(terms, 1))


class TestGridRoute:
    """The context reads S's grid by its axes (``_Context.s_axes``): the
    endpoint values and distances equal those computed on the grid's rows,
    and its errors are theirs."""

    @pytest.mark.parametrize("name", FILES)
    def test_every_shipped_and_regression_file(self, name):
        assert_routes_agree(build_problem(load_problem_file(ROOT / name)))

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(runs(COEFFICIENTS + MAGNITUDES))
    def test_the_fuzzers_files(self, case):
        try:
            p = build_problem(parse_problem_text(case[0]))
        except ValueError:  # a mutated file
            return
        assert_routes_agree(p)

    @pytest.mark.parametrize("n_free", range(8, 13))
    def test_eight_to_twelve_free_axes(self, n_free):
        # three point axes among the free ones, and a box Sbar, so that the
        # offsets vary and the 8-partial-sum order of the norm applies
        n = n_free + 3
        rng = np.random.default_rng(n_free)
        free = np.isin(np.arange(n), rng.choice(n, n_free, replace=False))
        at = rng.uniform(-0.9, 0.9, size=n)
        s = BoxSet(np.where(free, -1.0, at), np.where(free, 1.0, at))
        sbar = BoxSet(np.where(free, rng.uniform(-0.6, 0.0, n), at),
                      np.where(free, rng.uniform(0.0, 0.6, n), at))
        lower = l1_source(n, np.round(rng.uniform(0.5, 1.0, n), 3), np.zeros(n))
        upper = f"{lower} + (x1 - x2)^2 + 1/(3 + x{n})"
        f = Ivf.from_expressions(lower, upper, cube(n, -2, 2))
        p = WsmProblem(f=f, s=s, sbar=sbar, alpha=0.5, grid=3, n_dirs=4)
        assert not assert_routes_agree(p)
        assert len(p.context().s_axes.shape) == n_free

    @pytest.mark.parametrize("n", [64, 100, 140])
    def test_a_point_candidate_past_64_dimensions(self, n):
        rng = np.random.default_rng(n)
        free = np.isin(np.arange(n), [2, 11, 60, n - 3])
        at = np.round(rng.uniform(-0.9, 0.9, size=n), 3)
        s = BoxSet(np.where(free, -1.0, at), np.where(free, 1.0, at))
        f = Ivf.from_expressions(
            l1_source(n, [0.75] * n, at), l1_source(n, [1.5] * n, at) + " + 0.5", cube(n, -2, 2)
        )
        p = WsmProblem(f=f, s=s, sbar=point_box(*at), alpha=0.5, grid=9, n_dirs=4)
        assert not assert_routes_agree(p)
        assert check_definition(p).holds

    @pytest.mark.parametrize(
        "lower, upper",
        [
            ("x1 + 1/(x1 + x2 - 0.5)", "x1 + 3"),  # zero at (-0.5, 1), a 2-d mask
            ("(1e200*x2 + 1e200)^2 + x1", "x1 + 1"),  # overflow from x2 = -0.5 on
            ("1e308*x1 + 1e308*x2", "1e308*x1 + 1e308*x2 + 1"),  # inf, then too large
            ("x1 + x2", "0.5 - x1*x2"),  # crossing
            ("x1", "x1 + 1/x2"),  # the upper endpoint fails
        ],
    )
    def test_a_failing_point_is_named_as_on_the_rows(self, lower, upper):
        f = Ivf.from_expressions(lower, upper, cube(2, -2, 2))
        p = WsmProblem(f=f, s=cube(2, -1, 1), sbar=point_box(0.0, 0.0), alpha=0.5, grid=5)
        assert assert_routes_agree(p)

    def test_an_opaque_endpoint_reads_the_materialized_points(self):
        lower = parse("abs(x1) + 0.5*abs(x2)", 2)
        f = Ivf(2, lower, lambda x: 2 * abs(x[0]) + abs(x[1]) + 1.0, cube(2, -2, 2))
        p = WsmProblem(f=f, s=cube(2, -1, 1), sbar=point_box(0.0, 0.0), alpha=0.5, grid=7)
        assert not assert_routes_agree(p)

    @pytest.mark.parametrize(
        "name", [name for name in FILES if "problems/" in name or "weighted_l1" in name]
    )
    def test_definition_and_modulus_never_build_the_grid_of_s(self, name, monkeypatch):
        name = str(ROOT / name)
        built = []
        points = GridAxes.points
        monkeypatch.setattr(GridAxes, "points", lambda grid: built.append(grid) or points(grid))
        p = build_problem(load_problem_file(name))
        check_definition(p)
        estimate_modulus(p)
        ctx = p.context()
        assert all(grid is not ctx.s_axes for grid in built)
        assert "s_grid" not in vars(ctx) and "proj" not in vars(ctx)
        # nor through the command line
        refuse = property(lambda ctx: pytest.fail("the grid of S was built"))
        monkeypatch.setattr(wsm._Context, "s_grid", refuse)
        monkeypatch.setattr(wsm._Context, "proj", refuse)
        with redirect_stdout(io.StringIO()):
            assert cli.main(["check", name, "--mode", "definition"]) in (0, 1)
            assert cli.main(["modulus", name]) == 0

    @pytest.mark.parametrize(
        "name", [name for name in FILES if "problems/" in name or "weighted_l1" in name]
    )
    def test_definition_and_modulus_never_draw_the_directions(self, name, monkeypatch):
        name = str(ROOT / name)

        def run():
            p = build_problem(load_problem_file(name))
            report, modulus = check_definition(p), estimate_modulus(p)
            out = io.StringIO()
            with redirect_stdout(out):
                codes = cli.main(["check", name, "--mode", "definition"]), cli.main(["modulus", name])
            data = [line for line in out.getvalue().splitlines() if line.startswith("#DATA")]
            return p.context(), report, modulus, codes, data

        expected = run()
        monkeypatch.setattr(wsm, "default_directions",
                            lambda *args: pytest.fail("the directions were drawn"))
        ctx, report, *rest = run()
        assert "dirs" not in vars(ctx)
        assert rest == list(expected[2:]) and rest[2]
        assert same_bits(report.worst_margin, expected[1].worst_margin)
        assert all(map(same_bits, report.witness, expected[1].witness))
        # the gaps, formed in place, are the minimum of the two endpoint gaps
        gaps = np.minimum(ctx.flo_s - ctx.flo_sbar.max(), ctx.fhi_s - ctx.fhi_sbar.max())
        assert same_bits(ctx.gaps, gaps)


class TestEstimateModulus:
    def test_vee_recovers_quarter(self):
        value = estimate_modulus(vee_problem(0.1))
        assert value == pytest.approx(0.25, abs=1e-3)

    def test_l1_recovers_one(self):
        p = WsmProblem(
            f=l1_ivf(2, 1.0, 2.0), s=cube(2, -1, 1), sbar=point_box(0.0, 0.0), alpha=0.1
        )
        assert estimate_modulus(p) == pytest.approx(1.0, abs=1e-2)

    def test_wrong_candidate_gives_zero(self):
        f = make_ivf(1, lambda x: x[0], lambda x: x[0] + 1, -2, 2,
                     lambda x, d: d[0], lambda x, d: d[0])
        p = WsmProblem(f=f, s=cube(1, -1, 1), sbar=point_box(0.0), alpha=0.1)
        assert estimate_modulus(p) == 0.0

    def test_returns_the_lipschitz_cap_when_the_cap_passes(self):
        # F is 0 on S = Sbar, so every modulus passes; the slope outside S
        # sets the cap
        f = Ivf.from_expressions("max(abs(x1) - 1, 0)", "2*max(abs(x1) - 1, 0)", cube(1, -2, 2))
        p = WsmProblem(f=f, s=cube(1, -1, 1), sbar=cube(1, -1, 1), alpha=0.1)
        cap = 1.25 * ivf.lipschitz_estimate(f, 400, p.seed)
        assert cap > 1e-2
        assert estimate_modulus(p) == cap

    def test_consistency_with_the_definition_checker(self):
        p = vee_problem(0.1)
        value = estimate_modulus(p)
        at_value = WsmProblem(f=p.f, s=p.s, sbar=p.sbar, alpha=value, grid=p.grid)
        just_above = WsmProblem(f=p.f, s=p.s, sbar=p.sbar, alpha=value + 2e-3, grid=p.grid)
        assert check_definition(at_value).holds
        assert not check_definition(just_above).holds


class TestNormalConeUnionCorollary:
    def test_sampled_union_members_are_subgradients_somewhere(self):
        # when the normal-cone inclusion holds pointwise, every sampled
        # scaled ray from any candidate point's normal cone must be a
        # subgradient at some candidate grid point
        case = [c for c in wsm_battery() if c.name == "strip-segment"][0]
        p = case.problem(alpha=0.8 * case.modulus, grid=9)
        assert check_dual_normal_cone(p).holds
        ctx = p.context()
        f_o = RestrictedIvf(p.f, p.s)
        for xbar in ctx.sbar_grid:
            n_cone = p.sbar.normal_cone(xbar)
            for ray in n_cone.extreme_rays():
                z = p.alpha * ray
                found = any(
                    is_subgradient(f_o, yb, IVector.degenerate(z), ctx.s_grid).member
                    for yb in ctx.sbar_grid
                )
                assert found


class TestReportShape:
    def test_reports_carry_counts_and_density(self):
        p = vee_problem(0.2, grid=9)
        report = check_definition(p)
        assert report.samples_evaluated == 9  # 9 grid points x 1 candidate
        assert report.grid_per_axis == 9
        assert report.checker == "definition"

    def test_grid_cap_reduces_density(self):
        f = l1_ivf(4, 1.0, 2.0)
        p = WsmProblem(
            f=f, s=cube(4, -1, 1), sbar=point_box(0.0, 0.0, 0.0, 0.0),
            alpha=0.5, grid=33,
        )
        report = check_definition(p)
        assert report.grid_per_axis == 14  # 14^4 = 38416 <= 40000 < 33^4
        assert any("reduced" in note for note in report.notes)


class TestNanMargins:
    def test_a_nan_margin_is_kept_as_the_worst(self):
        worst = _Worst()
        worst.update(0.5, [0.0], [1.0])
        worst.update(float("nan"), [0.0], [2.0])
        worst.update(-3.0, [0.0], [3.0])
        assert np.isnan(worst.margin)
        assert list(worst.witness[1]) == [2.0]

    def test_batches_report_their_first_nan(self):
        worst = _Worst()
        dirs = np.array([[1.0], [2.0], [3.0], [4.0]])
        worst.update_rows(np.array([0.2, np.nan, -1.0, np.nan]), np.zeros((4, 1)), dirs)
        assert np.isnan(worst.margin)
        assert list(worst.witness[1]) == [2.0]

    def test_batches_keep_the_first_minimum(self):
        worst = _Worst()
        worst.update_rows(np.array([0.2, -1.0, -1.0]), np.zeros((3, 1)), np.arange(3.0)[:, None])
        worst.update_rows(np.array([-1.0]), np.zeros((1, 1)), np.array([[9.0]]))
        assert worst.margin == -1.0 and list(worst.witness[1]) == [1.0]

    def test_a_nan_margin_fails(self):
        report = vee_problem(0.2, grid=9).context().report(
            "primal", float("nan"), None, ("x", "d"), 1
        )
        assert report.verdict == "fails"


class TestWithAlpha:
    def test_shares_the_context_and_matches_a_fresh_problem(self):
        p = vee_problem(0.2, grid=17)
        probe = p.with_alpha(0.3)
        assert probe.context() is p.context()
        fresh = check_definition(vee_problem(0.3, grid=17))
        reused = check_definition(probe)
        assert (reused.worst_margin, reused.verdict) == (fresh.worst_margin, fresh.verdict)
        assert [list(w) for w in reused.witness] == [list(w) for w in fresh.witness]

    def test_rejects_a_nonpositive_modulus(self):
        with pytest.raises(GuardError):
            vee_problem(0.2, grid=9).with_alpha(0.0)

    def test_the_last_problem_to_go_frees_the_shared_context(self):
        # no problem/context cycle: refcounting frees the grids, without
        # waiting for the cycle collector
        p = vee_problem(0.2, grid=9)
        probe = p.with_alpha(0.3)
        context = weakref.ref(p.context())
        gc.disable()
        try:
            del p
            assert context() is not None
            del probe
            assert context() is None
        finally:
            gc.enable()


# -- per-point reference loops ----------------------------------------------
#
# The checkers before the shared derivative table, the distinct-member scan
# and the point blocks: one restricted derivative call per candidate point
# (primal, dual-b), every cone-ball member tested (dual-b), one derivative
# call per point (dual-e).


def primal_reference(p):
    ctx = p.context()
    f_o = RestrictedIvf(p.f, p.s)
    worst = _Worst()
    for xbar in ctx.sbar_grid:
        lhs = p.alpha * dist_to_cone(ctx.dirs, p.sbar.tangent_cone(xbar))
        deriv_lo, _ = f_o.dir_derivs(xbar, ctx.dirs)
        worst.update_rows(deriv_lo - lhs, np.broadcast_to(xbar, ctx.dirs.shape), ctx.dirs)
    return worst.margin, worst.witness, len(ctx.sbar_grid) * len(ctx.dirs)


def dual_b_reference(p):
    ctx = p.context()
    f_o = RestrictedIvf(p.f, p.s)
    worst = _Worst()
    samples = 0
    pool = ctx.dirs[: 2 * p.f.dimension + 16]
    for b, xbar in enumerate(ctx.sbar_grid):
        n_cone = p.sbar.normal_cone(xbar)
        rhs_lo, _ = f_o.dir_derivs(xbar, ctx.dirs)
        lhs = cone_ball_support(n_cone, p.alpha, ctx.dirs)
        worst.update_rows(rhs_lo - lhs, np.broadcast_to(xbar, ctx.dirs.shape), ctx.dirs)
        samples += len(ctx.dirs)
        base_lo = ctx.flo_sbar[b]
        base_hi = ctx.fhi_sbar[b]
        diff_lo = np.minimum(ctx.flo_s - base_lo, ctx.fhi_s - base_hi)
        diff_hi = np.maximum(ctx.flo_s - base_lo, ctx.fhi_s - base_hi)
        h = ctx.s_grid - xbar
        members = [np.zeros(n_cone.dimension)]
        members.extend(p.alpha * r for r in n_cone.extreme_rays())
        z = n_cone.project(pool)
        norms = row_norms(z)
        keep = norms > 1e-9
        members.extend(p.alpha * z[keep] / norms[keep, None])
        for z in members:
            samples += 1
            hz = h @ IVector.degenerate(z).los
            margins = np.minimum(diff_lo - hz, diff_hi - hz)
            worst.update(float(margins.min()), xbar, z)
    return worst.margin, worst.witness, samples


def dual_e_reference(p):
    ctx = p.context()
    worst = _Worst()
    samples = 0
    for xbar in ctx.sbar_grid:
        cone = p.s.tangent_cone(xbar).intersect(p.sbar.normal_cone(xbar))
        if all(t is Tag.ZERO for t in cone.tags):
            samples += 1
            continue
        z = cone.project(ctx.dirs)
        norms = row_norms(z)
        keep = norms > 1e-9
        dirs = np.vstack([*cone.extreme_rays(), z[keep] / norms[keep, None]])
        samples += len(dirs)
        deriv_lo, _ = p.f.dir_derivs(xbar, dirs)
        worst.update_rows(
            deriv_lo - p.alpha * row_norms(dirs), np.broadcast_to(xbar, dirs.shape), dirs
        )
    return worst.margin, worst.witness, samples


def definition_reference(p):
    """check_definition from both endpoint margin arrays, the witness
    endpoint read where their minimum is first smallest."""
    ctx = p.context()
    margin_lo = ctx.flo_s - ctx.flo_sbar.max() - p.alpha * ctx.dists
    margin_hi = ctx.fhi_s - ctx.fhi_sbar.max() - p.alpha * ctx.dists
    margins = np.minimum(margin_lo, margin_hi)
    i = int(np.argmin(margins))
    j = int(np.argmax(ctx.flo_sbar if margin_lo[i] <= margin_hi[i] else ctx.fhi_sbar))
    return float(margins[i]), (ctx.sbar_grid[j], ctx.s_grid[i])


def modulus_reference(p) -> float:
    """estimate_modulus's bisection with each probe taking the smaller of
    the two endpoint margins at every grid point."""
    ctx = p.context()

    def passes(alpha):
        margin_lo = ctx.flo_s - ctx.flo_sbar.max() - alpha * ctx.dists
        margin_hi = ctx.fhi_s - ctx.fhi_sbar.max() - alpha * ctx.dists
        return np.minimum(margin_lo, margin_hi).min() >= -p.margin_tol

    if not passes(1e-6):
        return 0.0
    hi = max(1.25 * ivf.lipschitz_estimate(p.f, 400, p.seed), 1e-2)
    if passes(hi):
        return hi
    lo = 1e-6
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if passes(mid) else (lo, mid)
    return lo


PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
KINK_DUAL_E = Path(__file__).resolve().parent / "regressions" / "kink_dual_e_2d.txt"
PROBLEM_FILES = sorted(PROBLEMS.glob("*.txt"))
BATTERY = {case.name: case for case in wsm_battery()}


def _reference_cases():
    for path in PROBLEM_FILES:
        yield pytest.param(lambda path=path: build_problem(load_problem_file(path)), id=path.name)
    for name in ("vee-quarter", "l1-n2", "l1-n3"):  # 1-d, 2-d point, 3-d
        for scale in (1.0, 1.2):
            yield pytest.param(
                lambda name=name, scale=scale: BATTERY[name].problem(
                    scale * BATTERY[name].nominal_alpha, grid=17
                ),
                id=f"{name}-x{scale}",
            )
    # not convex: the four dual-b rays tie at the worst margin, below the
    # support route, so the witness shows the order the members are scanned in
    capped = Ivf.from_expressions(
        "min(abs(x1), 0.5) + min(abs(x2), 0.5)",
        "2*min(abs(x1), 0.5) + 2*min(abs(x2), 0.5)",
        cube(2, -2, 2),
    )
    yield pytest.param(
        lambda: WsmProblem(f=capped, s=cube(2, -1, 1), sbar=point_box(0.0, 0.0), alpha=0.8,
                           grid=9),
        id="capped-l1-ties",
    )
    # F falls across Sbar, so Sbar holds no minima: the point route's worst
    # margin at the first candidate point ties with the support route's at
    # the last, so the witness shows where the support values enter the scan
    yield pytest.param(
        lambda: WsmProblem(f=Ivf.from_expressions("-x1", "-x1 + 1", cube(1, -2, 2)),
                           s=cube(1, -1, 1), sbar=cube(1, -1, 0), alpha=1.0, grid=5),
        id="support-ties-an-earlier-pair",
    )
    yield from FACE_CASES


def _excess(width: float, n: int) -> str:
    """Sum over the axes of max(|x_i| - width, 0)."""
    return " + ".join(f"max(abs(x{i}) - {width}, 0)" for i in range(1, n + 1))


#: Candidate grids whose points lie on many faces of Sbar and of S.
FACE_CASES = [
    # every feasible grid point is a candidate, F is not constant on Sbar
    pytest.param(
        lambda: WsmProblem(
            f=Ivf.from_expressions(
                "abs(x1) + abs(x2)", "2*abs(x1) + 2*abs(x2) + 1", cube(2, -2, 2)
            ),
            s=cube(2, -1, 1), sbar=cube(2, -1, 1), alpha=0.5, grid=9,
        ),
        id="sbar-equals-s",
    ),
    # Sbar meets the upper face x1 = 1 of S, F is 0 on Sbar
    pytest.param(
        lambda: WsmProblem(
            f=Ivf.from_expressions(
                "max(0.5 - x1, 0) + max(abs(x2) - 0.5, 0)",
                "2*max(0.5 - x1, 0) + 2*max(abs(x2) - 0.5, 0) + 1",
                cube(2, -2, 2),
            ),
            s=cube(2, -1, 1),
            sbar=BoxSet(np.array([0.5, -0.5]), np.array([1.0, 0.5])),
            alpha=0.8, grid=9,
        ),
        id="sbar-on-a-side-of-s",
    ),
    # corners, edges, faces and the inside of a 3-d Sbar, all inside S
    pytest.param(
        lambda: WsmProblem(
            f=Ivf.from_expressions(
                _excess(0.5, 3), f"2*({_excess(0.5, 3)}) + 1", cube(3, -2, 2)
            ),
            s=cube(3, -1, 1), sbar=cube(3, -0.5, 0.5), alpha=0.8, grid=9,
        ),
        id="sbar-cube-inside-s",
    ),
    # F is not constant on Sbar: the gap rows change along the segment
    pytest.param(
        lambda: WsmProblem(
            f=l1_ivf(2, 1.0, 2.0),
            s=cube(2, -1, 1),
            sbar=BoxSet(np.array([0.0, -0.5]), np.array([0.0, 0.5])),
            alpha=0.8, grid=9,
        ),
        id="not-constant-on-sbar",
    ),
    # F grows along Sbar and the point route decides at the last
    # candidate point, so the gap rows must follow F(xbar)
    pytest.param(
        lambda: WsmProblem(
            f=Ivf.from_expressions(
                "abs(x1) + 0.1*x2", "2*abs(x1) + 0.1*x2 + 1", cube(2, -2, 2)
            ),
            s=cube(2, -1, 1),
            sbar=BoxSet(np.array([0.0, -1.0]), np.array([0.0, 1.0])),
            alpha=0.5, grid=9,
        ),
        id="sloped-along-sbar",
    ),
    # Sbar starts within MEMBER_TOL of the lower end of S: the points
    # at its lower end (within the tolerance) are not all at that of S,
    # so their dual-e cones differ
    pytest.param(
        lambda: WsmProblem(
            f=Ivf.from_expressions("x1^2", "x1^2 + 1", cube(1, -2, 2)),
            s=cube(1, 0, 1),
            sbar=BoxSet(np.array([0.8e-12]), np.array([4.8e-12])),
            alpha=0.5, grid=9,
        ),
        id="sbar-within-tolerance-of-s",
    ),
    # dual-e's worst margin ties across the rays +-e2, +-e3 at each point
    # of a 3-d segment, so its witness is the first tied direction
    pytest.param(
        lambda: WsmProblem(
            f=Ivf.from_expressions(
                "2*max(abs(x1) - 0.5, 0) + abs(x2) + abs(x3)",
                "4*max(abs(x1) - 0.5, 0) + 2*abs(x2) + 2*abs(x3) + 1",
                cube(3, -2, 2),
            ),
            s=cube(3, -1, 1),
            sbar=BoxSet(np.array([-0.5, 0.0, 0.0]), np.array([0.5, 0.0, 0.0])),
            alpha=0.8, grid=9,
        ),
        id="ties-on-a-segment",
    ),
    # a tiny Sbar where F is 0: one gap row and a few members, but the
    # point-route margin of a member moves with xbar on the member's axis,
    # so a pair is a repeat only if xbar there is the same too
    pytest.param(
        lambda: WsmProblem(
            f=Ivf.from_expressions(
                "max(abs(x1) - 1.5, 0)", "2*max(abs(x1) - 1.5, 0) + 1", cube(1, -3, 3)
            ),
            s=cube(1, -2, 2),
            sbar=BoxSet(np.array([0.8e-12]), np.array([4.8e-12])),
            alpha=0.8, grid=9,
        ),
        id="member-margin-moves-with-xbar",
    ),
]


class TestReferenceLoops:
    """The shared table, the distinct-member scan and the point blocks give
    the same reports as the per-point loops, bit for bit."""

    @pytest.mark.parametrize("make", list(_reference_cases()))
    @pytest.mark.parametrize(
        "checker, reference",
        [
            (check_primal, primal_reference),
            (check_dual_normal_cone, dual_b_reference),
            (check_dual_e, dual_e_reference),
        ],
        ids=["primal", "dual-b", "dual-e"],
    )
    def test_report_equals_the_per_point_loop(self, make, checker, reference):
        report = checker(make())
        margin, witness, samples = reference(make())
        assert same_bits(report.worst_margin, margin)
        # no witness when nothing is tested (Sbar = S leaves dual-e no direction)
        assert (report.witness is None) == (witness is None)
        assert all(same_bits(a, b) for a, b in zip(report.witness or (), witness or ()))
        assert report.samples_evaluated == samples

    @pytest.mark.parametrize("make", list(_reference_cases()))
    def test_definition_equals_both_endpoint_margins(self, make):
        report = check_definition(make())
        margin, witness = definition_reference(make())
        assert same_bits(report.worst_margin, margin)
        assert all(same_bits(a, b) for a, b in zip(report.witness, witness))

    @pytest.mark.parametrize("make", list(_reference_cases()))
    def test_modulus_equals_the_bisection_over_both_margins(self, make):
        assert same_bits(estimate_modulus(make()), modulus_reference(make()))

    @staticmethod
    def assert_table_equals_one_point_calls(p):
        ctx = p.context()
        f_o = RestrictedIvf(p.f, p.s)
        rows = [f_o.dir_derivs(x, ctx.dirs)[0] for x in ctx.sbar_grid]
        assert same_bits(ctx.deriv_lo, rows)

    def test_table_rows_equal_one_point_calls(self):
        self.assert_table_equals_one_point_calls(BATTERY["l1-n3"].problem(1.0, grid=9))

    @pytest.mark.parametrize("make", FACE_CASES)
    def test_face_table_rows_equal_one_point_calls(self, make):
        self.assert_table_equals_one_point_calls(make())


class TestFaces:
    @pytest.mark.parametrize("make", list(_reference_cases()))
    def test_each_point_has_the_cones_of_its_face(self, make):
        p = make()
        ctx = p.context()
        face_of, cones = ctx.faces
        assert face_of.max() + 1 == len(cones)
        for x, f in zip(ctx.sbar_grid, face_of):
            t_s, t_sbar = cones[f]
            assert p.s.tangent_cone(x) == t_s
            assert p.sbar.tangent_cone(x) == t_sbar
            assert p.sbar.normal_cone(x) == t_sbar.polar()

    def test_cones_are_built_once_per_face_not_per_point(self, monkeypatch):
        # strip3d at grid 17: 289 candidate points on 9 faces; every cone
        # comes from the face codes (OrthantCone.of_codes), so no checker
        # asks a box for the cones at a point
        p = build_problem(load_problem_file(PROBLEMS / "strip3d.txt"), grid=17)
        calls = {"tangent_cone": 0, "normal_cone": 0}
        for name in calls:
            original = getattr(BoxSet, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(BoxSet, name, counted)
        check_all(p)
        faces = len(p.context().faces[1])
        assert (faces, len(p.context().sbar_grid)) == (9, 289)
        assert calls == {"tangent_cone": 0, "normal_cone": 0}

    def test_dual_e_differentiates_each_distinct_direction_of_a_face_once(self, monkeypatch):
        # strip3d at grid 17: 38148 sampled (point, direction) rows, 578 of
        # them distinct within the directions of their point's face
        p = build_problem(load_problem_file(PROBLEMS / "strip3d.txt"), grid=17)
        p.context()
        rows = []
        original = ivf._block_kernel

        def counted(f, points, dirs, calls):
            rows.append(len(points))
            return original(f, points, dirs, calls)

        monkeypatch.setattr(ivf, "_block_kernel", counted)
        report = check_dual_e(p)
        assert (sum(rows), report.samples_evaluated) == (578, 38148)

    @pytest.mark.parametrize(
        "path, faces, cones",
        [(PROBLEMS / "strip3d.txt", 9, 1), (KINK_DUAL_E, 3, 3)],
        ids=["strip3d", "kink_dual_e_2d"],
    )
    def test_dual_e_builds_directions_once_per_distinct_cone(
        self, monkeypatch, path, faces, cones
    ):
        # every face of strip3d meets in one cone T_S ∩ N_Sbar, so its 9
        # faces share one direction array; the kink file's 3 faces meet in
        # 3 cones.  The report is the per-point loop's either way.
        p = build_problem(load_problem_file(path))
        p.context()
        built = []
        original = wsm._unit_members

        def counted(cone, pool, scale):
            built.append(cone)
            return original(cone, pool, scale)

        monkeypatch.setattr(wsm, "_unit_members", counted)
        report = check_dual_e(p)
        assert (len(p.context().faces[1]), len(built), len(set(built))) == (faces, cones, cones)
        margin, witness, samples = dual_e_reference(build_problem(load_problem_file(path)))
        assert same_bits(report.worst_margin, margin)
        assert all(same_bits(a, b) for a, b in zip(report.witness, witness))
        assert report.samples_evaluated == samples

    @pytest.mark.parametrize(
        "grid, samples", [(17, 44931), (33, 169059)], ids=["grid-17", "grid-33"]
    )
    def test_dual_b_tests_each_distinct_pair_key_once(self, monkeypatch, grid, samples):
        # strip3d: F is constant on Sbar, and a member is zero on every axis
        # where its point lies strictly inside Sbar, so a key reads xbar only
        # where it sits on a bound of Sbar; 64 (gap row, member, xbar on the
        # member's axes) keys stand for the 2104 distinct point-member pairs
        # at grid 17 and the 6744 at grid 33
        p = build_problem(load_problem_file(PROBLEMS / "strip3d.txt"), grid=grid)
        p.context().deriv_lo
        passes = 0
        original = wsm.subgradient_margins

        def counted(*args):
            nonlocal passes
            passes += 1
            return original(*args)

        monkeypatch.setattr(wsm, "subgradient_margins", counted)
        report = check_dual_normal_cone(p)
        assert (passes, report.samples_evaluated) == (64, samples)


class TestDerivativeTableMemory:
    def test_building_keeps_one_endpoint_and_one_block(self):
        # Sbar = S in 3-d: 729 candidate points; the table holds only the
        # lower endpoint, and the upper endpoint and the point/direction
        # rows live one block at a time
        f = Ivf.from_expressions("abs(x1)", "2*abs(x1) + x1^2", cube(3, -2, 2))
        s = cube(3, -1, 1)
        ctx = WsmProblem(f=f, s=s, sbar=s, alpha=0.5, grid=9).context()
        tracemalloc.start()
        try:
            table = ctx.deriv_lo
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (729, len(ctx.dirs))
        assert peak < 1.5 * table.nbytes


class _RowForms:
    """An expression endpoint seen only through its row forms (``rows`` and
    ``tangent_rows``), so that its derivatives take the row route."""

    def __init__(self, ast: ExprAst):
        self.rows, self.tangent_rows = ast.rows, ast.tangent_rows


def row_route(p: WsmProblem) -> WsmProblem:
    """p afresh, its expression endpoints seen only through their row forms."""
    f = p.f
    if isinstance(f.lower, ExprAst) and isinstance(f.upper, ExprAst):
        f = dataclasses.replace(f, lower=_RowForms(f.lower), upper=_RowForms(f.upper))
    return dataclasses.replace(p, f=f, _ctx=None)


def table_and_dual_f(p: WsmProblem) -> tuple:
    """Primal's table and dual-f's report as bytes, or the type and message
    of the error each raises."""

    def outcome(call):
        try:
            return call()
        except Exception as exc:  # the error is the outcome compared
            return type(exc), str(exc)

    def dual_f():
        r = check_dual_f(p)
        witness = [a.tobytes() for a in r.witness or ()]
        return r.verdict, np.float64(r.worst_margin).tobytes(), witness, r.samples_evaluated

    table = outcome(lambda: p.context().deriv_lo)
    if isinstance(table, np.ndarray):
        table = table.shape, table.tobytes()
    return table, outcome(dual_f)


def _grid_route_cases():
    for name in FILES:
        yield pytest.param(lambda name=name: build_problem(load_problem_file(ROOT / name)),
                           id=name)
    for case in wsm_battery():
        yield pytest.param(lambda case=case: case.problem(case.nominal_alpha, grid=9),
                           id=f"battery-{case.name}")
    yield from FACE_CASES
    for seed, n in itertools.product(range(3), (1, 2, 3)):
        yield pytest.param(
            lambda seed=seed, n=n: WsmProblem(
                f=random_convex_expr_ivf(seed, n), s=cube(n, -1, 1),
                sbar=BoxSet(np.full(n, -0.25), np.linspace(0.0, 0.5, n)), alpha=1.0,
                grid=7, seed=seed, n_dirs=9),
            id=f"random-expr-{seed}-{n}d")


class TestGridDerivatives:
    """On the exact route, primal's table and dual-f's derivatives come
    from tangent-tape passes over grid columns (``ivf.grid_derivatives``):
    they equal the row route's bit for bit, in blocks of any width, and
    where that route raises, they raise its error."""

    @pytest.mark.parametrize("make", list(_grid_route_cases()))
    def test_the_table_and_dual_f_equal_the_row_route(self, make, monkeypatch):
        expected = table_and_dual_f(row_route(make()))
        for block in (1, 7, ivf.ROW_BLOCK):
            monkeypatch.setattr(ivf, "ROW_BLOCK", block)
            assert table_and_dual_f(make()) == expected

    def test_a_point_on_the_domain_takes_the_row_routes_error(self):
        path = ROOT / "tests" / "regressions" / "s_past_domain_within_tolerance.txt"
        p = build_problem(load_problem_file(path))
        (_, dual_f) = table_and_dual_f(p)
        assert dual_f[0] is InfeasibleDirectionError
        assert table_and_dual_f(p) == table_and_dual_f(row_route(p))

    def test_an_infinite_tangent_of_the_upper_endpoint_alone_raises(self):
        # at the kink x1 = 0.03, Sbar's one point, the upper tangent is
        # +inf along both d = 1 and d = -1, while the smaller of the two
        # ends, the lower one, is finite; dual-f's short directions keep
        # every tangent finite
        f = Ivf.from_expressions("abs(x1)", "abs(x1) + abs(1e300*(2e8*(x1 - 0.03)))",
                                 cube(1, -0.06, 0.06))
        p = WsmProblem(f=f, s=cube(1, -0.05, 0.05), sbar=cube(1, 0.03, 0.03), alpha=0.5,
                       grid=5)
        expected = table_and_dual_f(row_route(p))
        assert expected[0] == (ValueError, "directional derivative inf at x=[0.03] along "
                                           "d=[1.0] is not finite")
        assert expected[1][0] == "fails"
        assert table_and_dual_f(p) == expected

    def test_a_value_error_where_dual_f_reads_no_derivative_is_not_raised(self):
        # y = (0.5, 0.5) lies 1e-13 past Sbar, so dual-f skips its row; its
        # projection (0.5 - 1e-13, 0.5), a point of neither grid and of no
        # other row, is where 1/(x1 + x2 - c) fails, and the grid route
        # differentiates it too
        hi = 0.5 - 1e-13
        c = repr(hi + 0.5)
        f = Ivf.from_expressions(f"abs(x1) + 1/(x1 + x2 - {c})",
                                 f"2*abs(x1) + 1/(x1 + x2 - {c})", cube(2, -2, 2))
        p = WsmProblem(f=f, s=BoxSet(np.array([-1.0, -1.0]), np.array([0.5, 1.0])),
                       sbar=BoxSet(np.array([0.1, -0.6]), np.array([hi, 0.9])),
                       alpha=0.5, grid=5)
        expected = table_and_dual_f(row_route(p))
        assert expected[1][0] == "fails"
        assert table_and_dual_f(p) == expected

    def test_a_value_error_at_a_projection_raises_the_row_routes(self):
        # the projection (0.25, 0.5) of S's grid points (0.5, 0.5) and
        # (1, 0.5) is a point of neither grid, where 1/(x1 + x2 - 0.75) fails
        f = Ivf.from_expressions("abs(x1) + 1/(x1 + x2 - 0.75)",
                                 "2*abs(x1) + 1/(x1 + x2 - 0.75)", cube(2, -2, 2))
        p = WsmProblem(f=f, s=cube(2, -1, 1),
                       sbar=BoxSet(np.array([0.125, -0.6]), np.array([0.25, 0.9])),
                       alpha=0.5, grid=5)
        table, dual_f = expected = table_and_dual_f(row_route(p))
        assert isinstance(table, tuple) and table[0] == (25, len(p.context().dirs))
        assert dual_f == (EvalError, "division by zero at x=[0.25, 0.5]")
        assert table_and_dual_f(p) == expected

    def test_strip3d_makes_one_tape_pass_per_endpoint(self, monkeypatch):
        # the strip's tapes read only x1, a point axis of Sbar, so one block
        # holds all 134 directions of the 289 candidate points
        p = build_problem(load_problem_file(PROBLEMS / "strip3d.txt"))
        ctx = p.context()
        passes = []
        tangents = ExprAst.tangents
        monkeypatch.setattr(ExprAst, "tangents",
                            lambda ast, *args: passes.append(ast) or tangents(ast, *args))
        monkeypatch.setattr(ExprAst, "tangent_rows",
                            lambda *args: pytest.fail("the row route ran"))
        assert ctx.deriv_lo.shape == (289, 134)
        assert passes == [p.f.lower, p.f.upper]
        passes.clear()
        check_dual_f(p)
        assert passes == [p.f.lower, p.f.upper]

    @pytest.mark.parametrize("block", [100, ivf.ROW_BLOCK])
    def test_a_tape_that_reads_every_axis_keeps_blocks_within_the_bound(
        self, block, monkeypatch
    ):
        # 729 candidate points, all read: blocks of ROW_BLOCK // 729
        # directions, or of one where the points alone exceed ROW_BLOCK
        f = Ivf.from_expressions("abs(x1) + abs(x2) + abs(x3)",
                                 "2*abs(x1) + abs(x2) + abs(x3) + x3^2", cube(3, -2, 2))
        ctx = WsmProblem(f=f, s=cube(3, -1, 1), sbar=cube(3, -0.5, 0.5), alpha=0.5,
                         grid=9).context()
        monkeypatch.setattr(ivf, "ROW_BLOCK", block)
        sizes = []
        tangents = ExprAst.tangents

        def measured(ast, *args):
            value, tangent = tangents(ast, *args)
            sizes.append(np.size(tangent))
            return value, tangent

        monkeypatch.setattr(ExprAst, "tangents", measured)
        width = max(1, block // 729)
        assert ctx.deriv_lo.shape == (729, len(ctx.dirs))
        assert len(sizes) == 2 * -(-len(ctx.dirs) // width)
        assert max(sizes) == 729 * width

    @pytest.mark.parametrize(
        "name", [name for name in FILES
                 if ("problems/" in name or "weighted_l1" in name) and "poly2d" not in name]
    )
    def test_dual_f_never_builds_the_grid_of_s(self, name, monkeypatch):
        # poly2d's S is its domain, so dual-f takes the row route there
        name = str(ROOT / name)
        p = build_problem(load_problem_file(name))
        check_dual_f(p)
        assert "s_grid" not in vars(p.context()) and "proj" not in vars(p.context())
        refuse = property(lambda ctx: pytest.fail("the grid of S was built"))
        monkeypatch.setattr(wsm._Context, "s_grid", refuse)
        monkeypatch.setattr(wsm._Context, "proj", refuse)
        with redirect_stdout(io.StringIO()):
            assert cli.main(["check", name, "--mode", "dual-f"]) in (0, 1)


class _Gathers:
    """An array that counts the gathers (``a[index]``) read from it."""

    def __init__(self, array: np.ndarray):
        self.array, self.count = array, 0

    def __getitem__(self, index):
        self.count += 1
        return self.array[index]


class TestSupportTable:
    """primal and dual-b read the support table's worst entry at one alpha
    from one build; the context keeps that entry, never the table."""

    def problem(self) -> WsmProblem:
        return build_problem(load_problem_file(PROBLEMS / "strip3d.txt"))

    def test_built_once_per_check_all_and_again_at_another_alpha(self):
        p = self.problem()
        ctx = p.context()
        gathers = ctx.__dict__["tangent_dists"] = _Gathers(ctx.tangent_dists)
        reports = check_all(p)
        assert gathers.count == 1
        probe = p.with_alpha(2 * p.alpha)
        probe_reports = check_all(probe)
        assert gathers.count == 2
        check_all(p.with_alpha(p.alpha))
        check_primal(p)
        assert gathers.count == 3
        # the reports are those of problems built afresh at each alpha
        for problem, got in ((p, reports), (probe, probe_reports)):
            fresh = check_all(dataclasses.replace(problem, _ctx=None))
            for name in ("primal", "dual-b"):
                assert same_bits(got[name].worst_margin, fresh[name].worst_margin)
                assert all(map(same_bits, got[name].witness, fresh[name].witness))

    def test_the_context_keeps_no_table_sized_array(self):
        ctx = self.problem().context()
        ctx.deriv_lo, ctx.tangent_dists
        tracemalloc.start()
        try:
            ctx.primal_worst(0.5)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table = ctx.deriv_lo.nbytes  # 289 x 134 floats
        assert peak >= table and kept < table / 100


class TestConstantOnSbarGuard:
    def test_non_constant_objective_is_noted(self):
        p = WsmProblem(
            f=l1_ivf(2, 1.0, 2.0),
            s=cube(2, -1, 1),
            sbar=BoxSet(np.array([0.0, -0.5]), np.array([0.0, 0.5])),
            alpha=0.8,
            grid=9,
        )
        assert any("not constant on the sampled Sbar grid" in n for n in p.context().notes)

    def test_constant_objective_is_not_noted(self):
        case = BATTERY["strip-segment"]
        assert case.problem(1.0, grid=9).context().notes == ()
