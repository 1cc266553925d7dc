"""Subgradient sets: membership criteria, explicit forms, support identity,
convexity/closedness/boundedness of the set."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivwsm import (
    FiniteIVecSet,
    Interval,
    IntervalBoxSet,
    Ivf,
    IVector,
    RestrictedIvf,
    boundedness_check,
    default_directions,
    is_subgradient,
    is_subgradient_directional,
    scalar_mul,
    special_product,
    subdiff_1d,
    subdiff_support,
)
from ivwsm.intervals import is_finite, PLUS_INF
from ivwsm.expr import EvalError
from ivwsm.ivf import DomainError
from ivwsm.subdiff import DIRECTIONAL_SLACK, _gh_diff_rows

from conftest import (
    _one_sided_abs,
    cube,
    l1_ivf,
    make_ivf,
    quad_ivf,
    random_convex_ivf,
    vee_ivf,
)


def probe_grid(f, k=17):
    return f.domain.grid(k)


def combo(g1: IVector, g2: IVector, lam: float) -> IVector:
    return IVector(lam * g1.los + (1 - lam) * g2.los, lam * g1.his + (1 - lam) * g2.his)


class TestMembershipExamples:
    def test_zero_is_member_at_the_kink(self):
        f = vee_ivf()
        res = is_subgradient(f, [0.0], IVector.zeros(1), probe_grid(f))
        assert res.member

    def test_degenerate_dot_two_is_member(self):
        f = vee_ivf()
        res = is_subgradient(f, [0.0], IVector.degenerate([0.2]), probe_grid(f))
        assert res.member

    def test_dot_five_is_violated_at_positive_x(self):
        f = vee_ivf()
        res = is_subgradient(f, [0.0], IVector.degenerate([0.5]), probe_grid(f))
        assert not res.member
        assert res.witness is not None and res.witness[0] > 0
        # at x = 1 the pairing gives [0.5, 0.5] against a value difference of
        # [0.25, 1]: the lower endpoint comparison fails by exactly 0.25
        at_one = is_subgradient(f, [0.0], IVector.degenerate([0.5]), [[1.0]])
        assert not at_one.member
        assert at_one.margin == pytest.approx(0.25 - 0.5, abs=1e-12)

    def test_directional_criterion_matches(self):
        f = vee_ivf()
        dirs = default_directions(1, seed=3, count=16)
        assert is_subgradient_directional(f, [0.0], IVector.degenerate([0.2]), dirs).member
        res = is_subgradient_directional(f, [0.0], IVector.degenerate([0.5]), dirs)
        assert not res.member and res.witness[0] > 0

    def test_gradient_is_member_at_smooth_points(self):
        f = quad_ivf()
        (grad,) = subdiff_1d(f, 0.7).members
        assert is_subgradient(f, [0.7], grad, probe_grid(f)).member
        dirs = default_directions(1, seed=3, count=16)
        assert is_subgradient_directional(f, [0.7], grad, dirs).member


class TestSubdiff1d:
    def test_kink_box_reproduced(self):
        rep = subdiff_1d(vee_ivf(), 0.0)
        assert isinstance(rep, IntervalBoxSet)
        assert rep.lower.los[0] == pytest.approx(-1.0, abs=1e-6)
        assert rep.lower.his[0] == pytest.approx(-0.25, abs=1e-6)
        assert rep.upper.los[0] == pytest.approx(0.25, abs=1e-6)
        assert rep.upper.his[0] == pytest.approx(1.0, abs=1e-6)

    def test_smooth_point_collapses_to_gradient(self):
        rep = subdiff_1d(quad_ivf(), 1.0)
        assert isinstance(rep, FiniteIVecSet)
        assert rep.members[0].los[0] == pytest.approx(2.0, abs=1e-5)
        assert rep.members[0].his[0] == pytest.approx(2.0, abs=1e-5)

    def test_constant_gives_zero(self):
        f = Ivf.from_expressions("3", "4", cube(1, -1, 1))
        rep = subdiff_1d(f, 0.3)
        assert isinstance(rep, FiniteIVecSet)
        assert rep.members == (IVector.zeros(1),)

    def test_crossing_corners_name_the_point_and_non_convexity(self):
        # a concave kink: -F'(0.5; -1) = [1, 2] lies above F'(0.5; +1) = [-2, -1]
        f = Ivf.from_expressions("-2*abs(x1 - 0.5)", "-abs(x1 - 0.5)", cube(1, -2, 2))
        with pytest.raises(ValueError) as info:
            subdiff_1d(f, 0.5)
        assert str(info.value) == (
            "F is not convex at x=0.5: the subgradient corners cross, "
            "-F'(x; -1) = [1, 2] is not below F'(x; +1) = [-2, -1]"
        )

    def test_a_supplied_analytic_derivative_is_read(self):
        # opaque endpoints with kinks at 0 and 1e-4: the supplied derivative
        # gives F'(0; +1) = [0, 0], F'(0; -1) = [2, 4], and without it F
        # has no derivative
        def lower(x):
            return abs(x[0]) + abs(x[0] - 1e-4)

        def d_lower(x, d):
            return _one_sided_abs(x[0], d[0]) + _one_sided_abs(x[0] - 1e-4, d[0])

        f = make_ivf(
            1, lower, lambda x: 2 * lower(x), -1, 1, d_lower, lambda x, d: 2 * d_lower(x, d)
        )
        rep = subdiff_1d(f, 0.0)
        assert isinstance(rep, IntervalBoxSet)
        assert (list(rep.lower.los), list(rep.lower.his)) == ([-4.0], [-2.0])
        assert (list(rep.upper.los), list(rep.upper.his)) == ([0.0], [0.0])
        opaque = Ivf(1, f.lower, f.upper, f.domain)
        with pytest.raises(ValueError, match=r"^derivatives need analytic_dir_deriv or "
                                             r"endpoints with tangent_rows \(lower has none\)$"):
            subdiff_1d(opaque, 0.0)

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError):
            subdiff_1d(vee_ivf(), 2.0)

    def test_needs_one_dimension(self):
        with pytest.raises(ValueError):
            subdiff_1d(l1_ivf(2, 1, 2), [0.0, 0.0])


class TestSupportIdentity:
    def test_oracle_equals_directional_derivative(self):
        f = vee_ivf()
        oracle = subdiff_support(f, [0.0])
        val = oracle.support([1.0])
        assert val.lo == pytest.approx(0.25, abs=1e-9)
        assert val.hi == pytest.approx(1.0, abs=1e-9)

    def test_box_support_matches_derivative_on_64_directions(self):
        for f, xbar in [
            (vee_ivf(), 0.0),
            (vee_ivf(0.5, 2.0), 0.0),
            (vee_ivf(0.25, 1.0, center=0.3), 0.3),
        ]:
            rep = subdiff_1d(f, xbar)
            rng = np.random.default_rng(123)
            for _ in range(64):
                d = np.array([float(rng.uniform(-2, 2))])
                from_box = rep.support(d)
                from_deriv = f.dir_deriv(np.array([xbar]), d)
                assert from_box.lo == pytest.approx(from_deriv.lo, abs=1e-5)
                assert from_box.hi == pytest.approx(from_deriv.hi, abs=1e-5)

    def test_opposite_supports_meet_only_at_smooth_points(self):
        # at a gH-differentiable point the subgradient set is the one
        # interval gradient G, so the support along e_i is G_i and the
        # support along -e_i is -G_i; at a kink the set is wider
        f = Ivf.from_expressions("x1 + x2", "2*x1 + 3*x2", cube(2, -2, 2))
        oracle = subdiff_support(f, [0.2, -0.3])
        for e, component in zip(np.eye(2), (Interval(1.0, 2.0), Interval(1.0, 3.0))):
            along = oracle.support(e)
            against = scalar_mul(-1.0, oracle.support(-e))
            for got in (along, against):
                assert got.lo == pytest.approx(component.lo, abs=1e-5)
                assert got.hi == pytest.approx(component.hi, abs=1e-5)
        kink = subdiff_support(vee_ivf(), [0.0])
        assert kink.support([1.0]).lo == pytest.approx(0.25, abs=1e-5)
        assert scalar_mul(-1.0, kink.support([-1.0])).lo == pytest.approx(-1.0, abs=1e-5)

    def test_restricted_boundary_exit_is_infinite(self):
        f = vee_ivf()
        f_o = RestrictedIvf(f, cube(1, -1, 1))
        oracle = subdiff_support(f_o, [1.0])
        assert oracle.support([1.0]) is PLUS_INF
        assert is_finite(oracle.support([-1.0]))


def sample_ex1_interior(rng, count=100, margin=1e-3):
    box_lo, box_hi = (-1.0, 0.25), (-0.25, 1.0)  # ranges for lo and hi parts
    out = []
    while len(out) < count:
        u = rng.uniform(box_lo[0] + margin, box_lo[1] - margin)
        v = rng.uniform(box_hi[0] + margin, box_hi[1] - margin)
        if u <= v:
            out.append(IVector(np.array([u]), np.array([v])))
    return out


def sample_ex1_exterior(rng, count=100, offset=1e-3):
    out = []
    modes = 0
    while len(out) < count:
        mode = modes % 4
        modes += 1
        if mode == 0:  # lo endpoint below the face at -1
            u = rng.uniform(-1.5, -1.0 - offset)
            v = rng.uniform(u, 1.0)
        elif mode == 1:  # lo endpoint above the face at 0.25
            u = rng.uniform(0.25 + offset, 0.75)
            v = rng.uniform(u, 1.5)
        elif mode == 2:  # hi endpoint below the face at -0.25
            v = rng.uniform(-0.75, -0.25 - offset)
            u = rng.uniform(-1.0, v)
        else:  # hi endpoint above the face at 1
            v = rng.uniform(1.0 + offset, 1.5)
            u = rng.uniform(-1.0, 0.25)
        out.append(IVector(np.array([u]), np.array([v])))
    return out


class TestKinkBoxMembershipBattery:
    def test_interior_accepted_exterior_rejected_criteria_agree(self):
        f = vee_ivf()
        rng = np.random.default_rng(7)
        probes = probe_grid(f)
        dirs = default_directions(1, seed=5, count=32)
        for g in sample_ex1_interior(rng):
            by_def = is_subgradient(f, [0.0], g, probes)
            by_dir = is_subgradient_directional(f, [0.0], g, dirs)
            assert by_def.member and by_dir.member
        for g in sample_ex1_exterior(rng):
            by_def = is_subgradient(f, [0.0], g, probes)
            by_dir = is_subgradient_directional(f, [0.0], g, dirs)
            assert not by_def.member and not by_dir.member


class TestCriterionEquivalence:
    def test_agreement_across_battery(self):
        # the defining criterion quantifies over every x, so its finite
        # rendering needs probes close to xbar: far-away grids let smooth
        # curvature mask linear-scale violations that the directional
        # criterion (the limit form) still sees
        rng = np.random.default_rng(31)
        cases = [
            (vee_ivf(), np.array([0.0])),
            (vee_ivf(), np.array([0.6])),
            (quad_ivf(), np.array([-0.5])),
            (l1_ivf(2, 1.0, 2.0), np.array([0.0, 0.0])),
            (l1_ivf(2, 1.0, 2.0), np.array([0.4, -0.3])),
            (random_convex_ivf(40, n=2), np.array([0.1, 0.2])),
        ]
        for f, xbar in cases:
            dirs = default_directions(f.dimension, seed=8, count=48)
            local = [xbar + delta * d for d in dirs for delta in (1e-2, 1e-4)]
            probes = np.vstack([probe_grid(f, 9), local])
            for _ in range(25):
                lo = rng.uniform(-1.5, 1.5, f.dimension)
                g = IVector(lo, lo + rng.uniform(0, 1.0, f.dimension))
                by_def = is_subgradient(f, xbar, g, probes)
                by_dir = is_subgradient_directional(f, xbar, g, dirs)
                assert by_def.member == by_dir.member, (f, xbar, g)


class TestSetGeometry:
    def test_convex_combinations_stay_members(self):
        f = vee_ivf()
        probes = probe_grid(f)
        rng = np.random.default_rng(2)
        members = sample_ex1_interior(rng, count=10)
        for _ in range(30):
            g1, g2 = rng.choice(len(members), 2)
            lam = float(rng.uniform())
            mixed = combo(members[g1], members[g2], lam)
            assert is_subgradient(f, [0.0], mixed, probes).member

    def test_closedness_at_the_membership_boundary(self):
        f = vee_ivf()
        probes = probe_grid(f)
        inside = IVector.degenerate([0.0])
        outside = IVector.degenerate([0.6])

        def member_at(lam: float) -> bool:
            return is_subgradient(f, [0.0], combo(outside, inside, lam), probes,
                                  slack=0.0).member

        lo_lam, hi_lam = 0.0, 1.0  # member at 0, not at 1
        assert member_at(lo_lam) and not member_at(hi_lam)
        for _ in range(40):
            mid = 0.5 * (lo_lam + hi_lam)
            if member_at(mid):
                lo_lam = mid
            else:
                hi_lam = mid
        limit = combo(outside, inside, hi_lam)  # approached from outside
        res = is_subgradient(f, [0.0], limit, probes, slack=1e-7)
        assert res.member  # the set is closed: the boundary point belongs

    def test_boundedness_at_interior_points(self):
        for f, pts in [
            (vee_ivf(), [[0.0], [0.5]]),
            (l1_ivf(2, 1.0, 2.0), [[0.0, 0.0], [0.3, -0.2]]),
        ]:
            for x in pts:
                result = boundedness_check(subdiff_support(f, x))
                assert result.bounded and result.bound < 100

    def test_nonempty_at_interior_grid_points(self):
        f = vee_ivf()
        probes = probe_grid(f)
        inner = cube(1, -1.8, 1.8)
        for x in inner.grid(9):
            rep = subdiff_1d(f, float(x[0]))
            if isinstance(rep, FiniteIVecSet):
                (candidate,) = rep.members
            else:
                mid_lo = 0.5 * (rep.lower.los + rep.upper.los)
                mid_hi = 0.5 * (rep.lower.his + rep.upper.his)
                candidate = IVector(np.minimum(mid_lo, mid_hi), np.maximum(mid_lo, mid_hi))
            assert is_subgradient(f, x, candidate, probes).member


# -- the directional criterion against the per-direction loop ---------------


def directional_reference(f, xbar, g, directions, slack=DIRECTIONAL_SLACK):
    """The per-direction loop ``is_subgradient_directional`` had before it
    shared ``subgradient_margins``; also returns every feasible margin."""
    xbar = np.asarray(xbar, dtype=float)
    directions = np.asarray(directions, dtype=float)
    deriv_lo, deriv_hi = f.dir_derivs(xbar, directions)
    worst_margin = np.inf
    worst_dir = None
    margins = []
    for d, lo, hi in zip(directions, deriv_lo, deriv_hi):
        if lo == np.inf:
            continue  # infinite right-hand side holds automatically
        lhs = special_product(d, g)
        margin = min(lo - lhs.lo, hi - lhs.hi)
        margins.append(margin)
        if margin < worst_margin:
            worst_margin = margin
            worst_dir = d
    member = worst_margin >= -slack
    return member, float(worst_margin), None if member else worst_dir, sorted(margins)


class TestDirectionalMatchesPerDirectionLoop:
    """``D @ g`` may differ from the per-row ``d @ g`` in the last bit for
    n >= 2, so margins agree to 1e-12 relative, verdicts exactly, and
    witnesses wherever the worst margin is not a near tie."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        kind=st.sampled_from(["ivf", "restricted", "all-infeasible"]),
        count=st.integers(1, 40),
        degenerate=st.booleans(),
    )
    def test_verdict_margin_and_witness(self, seed, n, kind, count, degenerate):
        rng = np.random.default_rng(seed)
        f = random_convex_ivf(int(rng.integers(0, 50)), n=n)
        dirs = rng.normal(size=(count, n))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=1), 1e-12)[:, None]
        s = cube(n, -0.5, 0.5)
        if kind == "ivf":
            xbar = rng.uniform(-1.0, 1.0, n)
        else:
            f = RestrictedIvf(f, s)
            xbar = rng.uniform(-0.5, 0.5, n)
            pinned = rng.random(n) < 0.6
            xbar[pinned] = np.sign(rng.normal(size=n))[pinned] * 0.5
            if kind == "all-infeasible":
                xbar[0] = 0.5
                dirs[:, 0] = np.abs(dirs[:, 0]) + 0.1  # every row leaves S
        lo = rng.uniform(-3.0, 3.0, n)
        g = IVector(lo, lo if degenerate else lo + rng.uniform(0.0, 2.0, n))

        got = is_subgradient_directional(f, xbar, g, dirs)
        member, margin, witness, margins = directional_reference(f, xbar, g, dirs)
        assert got.member == member
        if margin == np.inf:
            assert kind != "ivf" and got.margin == np.inf
        else:
            assert abs(got.margin - margin) <= 1e-12 * max(1.0, abs(margin))
        if kind == "all-infeasible":
            assert got.member and got.margin == np.inf
        if member:
            assert got.witness is None
        elif len(margins) == 1 or margins[1] - margins[0] > 1e-12 * max(1.0, abs(margin)):
            assert np.array_equal(got.witness, witness)


# -- the defining criterion's value differences against the per-probe loop --


def gh_diff_reference(f, xbar, probes):
    """The per-probe loop ``_gh_diff_rows`` had before it made one
    ``endpoint_rows`` call."""
    base = f.value(xbar)
    lo, hi = np.empty(len(probes)), np.empty(len(probes))
    for j, x in enumerate(probes):
        val = f.value(x)
        if is_finite(val):
            d1, d2 = val.lo - base.lo, val.hi - base.hi
            lo[j], hi[j] = min(d1, d2), max(d1, d2)
        else:
            lo[j] = hi[j] = np.inf
    return lo, hi


def expression_ivf(n: int) -> Ivf:
    terms = " + ".join(f"abs(x{i + 1} - 0.3)" for i in range(n))
    squares = " + ".join(f"x{i + 1}^2" for i in range(n))
    return Ivf.from_expressions(terms, f"2*({terms}) + {squares}", cube(n, -2, 2))


class TestGhDiffMatchesPerProbeLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        kind=st.sampled_from(["callables", "expressions"]),
        restricted=st.booleans(),
        count=st.integers(2, 60),
    )
    def test_bit_for_bit(self, seed, n, kind, restricted, count):
        rng = np.random.default_rng(seed)
        f = random_convex_ivf(int(rng.integers(0, 50)), n=n) if kind == "callables" else expression_ivf(n)
        probes = rng.uniform(f.domain.lo, f.domain.hi, size=(count, n))
        xbar = rng.uniform(-0.5, 0.5, n)
        if restricted:
            # S = [-0.5, 0.5]^n: most probes fall outside it
            f = RestrictedIvf(f, cube(n, -0.5, 0.5))
            probes[::3] = rng.uniform(-0.5, 0.5, size=probes[::3].shape)
            probes[1] = f.domain.hi + 0.5  # outside the domain too: +inf, not an error
        got = _gh_diff_rows(f, xbar, probes)
        want = gh_diff_reference(f, xbar, probes)
        for a, b in zip(got, want):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        if restricted:
            outside = ~f.feasible.contains(probes)
            assert outside[1] and np.all(got[0][outside] == np.inf)

    def test_probe_outside_the_domain_raises_domain_error(self):
        f = expression_ivf(2)
        probes = np.array([[0.0, 0.0], [2.5, 0.0], [3.0, 0.0]])
        with pytest.raises(DomainError, match=r"\[2\.5, 0\.0\] is outside the domain box"):
            _gh_diff_rows(f, np.zeros(2), probes)

    def test_an_earlier_failing_probe_wins_over_the_domain_error(self):
        f = Ivf.from_expressions("1/x1", "1/x1 + 1", cube(1, -2, 2))
        probes = np.array([[1.0], [0.0], [2.5]])
        for rows in (_gh_diff_rows, gh_diff_reference):
            with pytest.raises(EvalError, match=r"division by zero at x=\[0\.0\]"):
                rows(f, np.array([1.0]), probes)

    def test_lower_rows_are_checked_before_upper_rows(self):
        # the per-probe loop names the first probe with any non-finite
        # endpoint; the batched rows check every lower value first, so an
        # upper failure at an earlier probe is reported as the later lower one
        f = make_ivf(
            1,
            lambda x: np.inf if x[0] == 0.5 else 0.0,
            lambda x: np.inf if x[0] == -0.5 else 1.0,
            -1,
            1,
        )
        probes = np.array([[-0.5], [0.5]])
        with pytest.raises(ValueError, match=r"^lower\(\[0\.5\]\) = inf is not finite$"):
            _gh_diff_rows(f, np.zeros(1), probes)
        with pytest.raises(ValueError, match=r"^upper\(\[-0\.5\]\) = inf is not finite$"):
            gh_diff_reference(f, np.zeros(1), probes)
