"""The five sharpness checkers, their concordance, and modulus estimation."""

import numpy as np
import pytest

from ivwsm import (
    GuardError,
    IVector,
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
    restricted,
)
from ivwsm.wsm import _Worst

from conftest import cube, l1_ivf, make_ivf, point_box, vee_ivf, wsm_battery


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
                    g, ctx.s_grid, ctx.sbar_grid, lambda x: p.sbar.dist(x), alpha
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

    def test_everything_a_single_point_is_concordantly_sharp(self):
        # S = Sbar = {p}: the definition is vacuous, restricted derivatives
        # are infinite in every direction, cone intersections collapse
        f = make_ivf(2, lambda x: x[0] ** 2, lambda x: x[0] ** 2 + 1, -1, 1)
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
        f = make_ivf(1, lambda x: 1.0, lambda x: 2.0, -2, 2)
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
        f_o = restricted(p.f, p.s)
        ctx = p.context()
        res = is_subgradient(f_o, [0.0], IVector.degenerate([0.2]), ctx.s_grid)
        assert res.member

    def test_point_outside_fails(self):
        report = check_dual_normal_cone(vee_problem(0.3))
        assert not report.holds

    def test_interior_candidate_point_is_trivial(self):
        # Sbar = S: every normal cone along the candidate grid is {0}
        f = make_ivf(1, lambda x: 1.0, lambda x: 1.5, -2, 2)
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
        f_o = restricted(p.f, p.s)
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
        worst.update_rows(np.array([0.2, np.nan, -1.0, np.nan]), np.array([0.0]), dirs)
        assert np.isnan(worst.margin)
        assert list(worst.witness[1]) == [2.0]

    def test_batches_keep_the_first_minimum(self):
        worst = _Worst()
        worst.update_rows(np.array([0.2, -1.0, -1.0]), np.zeros((3, 1)), np.arange(3.0)[:, None])
        worst.update_rows(np.array([-1.0]), np.zeros(1), np.array([[9.0]]))
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
