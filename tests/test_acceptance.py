"""Acceptance gate: one test per criterion, run at its stated tolerance.

Each test prints one ``ACCEPTANCE <name>: PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output) and enforces its runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from ivwsm import (
    CHECKERS,
    BoxSet,
    Interval,
    add,
    boundedness_check,
    check_all,
    concordant,
    default_directions,
    dist_to_cone,
    dominance,
    estimate_modulus,
    gh_difference,
    is_subgradient,
    is_subgradient_directional,
    lipschitz_estimate,
    scalar_mul,
    subdiff_1d,
    subdiff_support,
    cone_ball_support,
    Dominance,
    WsmProblem,
)
from ivwsm.cli import main
from ivwsm.expr import ParseError, parse
from ivwsm.intervals import minkowski_sub
from ivwsm.support import IntervalBoxSet

from conftest import box_dist, cube, l1_ivf, point_box, random_convex_expr_ivf, random_convex_ivf
from conftest import random_interval, vee_ivf, wsm_battery
from test_expr import random_tree, tape_of, to_source
from test_geometry import cone_ball_support_sampled
from test_subdiff import sample_ex1_exterior, sample_ex1_interior


@contextmanager
def criterion(name: str, budget_seconds: float):
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed or elapsed > budget_seconds else "PASS"
        print(f"ACCEPTANCE {name}: {verdict} ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed <= budget_seconds, f"{name} exceeded its {budget_seconds}s budget"


def test_a1_algebraic_identities():
    with criterion("algebraic-identities", 1.0):
        rng = np.random.default_rng(20250809)
        for _ in range(10_000):
            a = random_interval(rng)
            b = random_interval(rng)
            c_extra = random_interval(rng)
            lam = float(rng.uniform())
            # self difference is exactly zero
            assert gh_difference(a, a) == Interval(0, 0)
            # defining property: one of the two reconstructions matches
            c = gh_difference(a, b)
            first = add(b, c)
            second = minkowski_sub(a, c)
            assert (
                abs(first.lo - a.lo) <= 1e-12 and abs(first.hi - a.hi) <= 1e-12
            ) or (abs(second.lo - b.lo) <= 1e-12 and abs(second.hi - b.hi) <= 1e-12)
            # chord scaling of the gH difference
            blend = add(scalar_mul(1 - lam, a), scalar_mul(lam, b))
            left = gh_difference(blend, a)
            right = scalar_mul(lam, gh_difference(b, a))
            assert abs(left.lo - right.lo) <= 1e-12
            assert abs(left.hi - right.hi) <= 1e-12
            # shifted-subtrahend dominance: r below A below (b gh- c_extra)
            d = gh_difference(b, c_extra)
            shift = float(rng.uniform(0.0, 1.0))
            a_hi = d.hi - shift
            a_below = Interval(min(d.lo, a_hi) - 0.5, a_hi)
            r = a_below.lo - 0.25
            assert dominance(add(c_extra, Interval(r, r)), b, slack=1e-12).leq
            # partial-order axioms on (a, b, blend)
            assert dominance(a, a, slack=0.0) is Dominance.EQUAL
            ab = dominance(a, b, slack=0.0)
            ba = dominance(b, a, slack=0.0)
            if ab.leq and ba.leq:
                assert a == b
            bc = dominance(b, blend, slack=0.0)
            if ab.leq and bc.leq:
                assert dominance(a, blend, slack=0.0).leq


def test_a2_kink_box_reproduction():
    with criterion("kink-box-reproduction", 1.0):
        f = vee_ivf()
        rep = subdiff_1d(f, 0.0)
        assert isinstance(rep, IntervalBoxSet)
        box = rep
        assert np.allclose(
            [box.lower.los[0], box.lower.his[0]], [-1.0, -0.25], atol=1e-6
        )
        assert np.allclose(
            [box.upper.los[0], box.upper.his[0]], [0.25, 1.0], atol=1e-6
        )
        rng = np.random.default_rng(1)
        probes = f.domain.grid(17)
        dirs = default_directions(1, seed=5, count=32)
        for g in sample_ex1_interior(rng, count=100, margin=1e-3):
            by_def = is_subgradient(f, [0.0], g, probes)
            by_dir = is_subgradient_directional(f, [0.0], g, dirs)
            assert by_def.member and by_dir.member
        for g in sample_ex1_exterior(rng, count=100, offset=1e-3):
            by_def = is_subgradient(f, [0.0], g, probes)
            by_dir = is_subgradient_directional(f, [0.0], g, dirs)
            assert not by_def.member and not by_dir.member


def test_a3_directional_derivative_and_support_identity():
    with criterion("derivative-and-support-identity", 5.0):
        rng = np.random.default_rng(2718)
        # the exact route (expression text) equals the hand-written derivative
        for seed in range(20):
            exact, analytic = random_convex_expr_ivf(seed), random_convex_ivf(seed)
            for _ in range(12):
                x = rng.uniform(-1.2, 1.2, exact.dimension)
                d = rng.normal(size=exact.dimension)
                d /= np.linalg.norm(d)
                got, want = exact.dir_deriv(x, d), analytic.dir_deriv(x, d)
                assert got.lo == pytest.approx(want.lo, abs=1e-9)
                assert got.hi == pytest.approx(want.hi, abs=1e-9)
        # one-dimensional subset: explicit box support equals the derivative
        for f, xbar in [
            (vee_ivf(), 0.0),
            (vee_ivf(0.5, 2.0), 0.0),
            (vee_ivf(0.25, 1.0, center=0.3), 0.3),
        ]:
            rep = subdiff_1d(f, xbar)
            for _ in range(64):
                d = np.array([float(rng.uniform(-2, 2))])
                from_box = rep.support(d)
                from_deriv = f.dir_deriv(np.array([xbar]), d)
                assert from_box.lo == pytest.approx(from_deriv.lo, abs=1e-5)
                assert from_box.hi == pytest.approx(from_deriv.hi, abs=1e-5)


def test_a4_modulus_recovery():
    with criterion("modulus-recovery", 3.0):
        vee_problem = WsmProblem(
            f=vee_ivf(), s=cube(1, -1, 1), sbar=point_box(0.0), alpha=0.1
        )
        assert estimate_modulus(vee_problem) == pytest.approx(0.25, abs=1e-3)
        l1_problem = WsmProblem(
            f=l1_ivf(2, 1.0, 2.0), s=cube(2, -1, 1), sbar=point_box(0.0, 0.0), alpha=0.1
        )
        assert estimate_modulus(l1_problem) == pytest.approx(1.0, abs=1e-2)


def test_a5_checker_concordance_battery():
    """Every checker at 0.8x and 1.2x each case's modulus (or nominal alpha),
    and the estimated modulus; prints the verdict table."""
    with criterion("checker-concordance", 30.0):
        cases = wsm_battery()
        assert len(cases) >= 12
        assert sum(c.positive for c in cases) >= 6
        assert sum(not c.positive for c in cases) >= 6
        header = f"{'case':26s} {'alpha':>7s}  " + "  ".join(
            f"{name:>10s}" for name in CHECKERS
        ) + f"  {'agree':>5s}"
        print(header)
        print("-" * len(header))
        agreements = 0
        for case in cases:
            base = case.modulus if case.positive else case.nominal_alpha
            for scale in (0.8, 1.2):
                alpha = scale * base
                reports = check_all(case.problem(alpha=alpha, grid=33, seed=11))
                agree = concordant(reports)
                print(f"{case.name:26s} {alpha:7.3f}  " + "  ".join(
                    f"{reports[name].verdict:>10s}" for name in CHECKERS
                ) + f"  {'yes' if agree else 'NO':>5s}")
                assert agree, (case.name, scale)
                expected = case.positive and scale == 0.8
                assert reports["definition"].holds == expected, (case.name, scale)
                agreements += 1
            estimate = estimate_modulus(case.problem(alpha=base, grid=33, seed=11))
            known = f"{case.modulus:.3f}" if case.positive else "none"
            print(f"{'':26s} estimated modulus {estimate:.4f} (known {known})")
            if case.positive:
                assert case.modulus - 1e-3 <= estimate <= case.modulus, case.name
            else:
                assert estimate < 0.8 * case.nominal_alpha, case.name
        assert agreements == 2 * len(cases)


def test_a6_polynomial_example_cli_run(tmp_path, capsys):
    with criterion("polynomial-example-cli", 10.0):
        template = (
            "dimension: 2\n"
            "lower: 5 - x1*x2 - x1\n"
            "upper: 10 - x1^2*x2 - x2^2*x1\n"
            "domain: -1 0 -1 0\n"
            "S: -1 0 -1 0\n"
            "Sbar: 0 0 -1 0\n"
            "alpha: {alpha}\n"
            "seed: 7\n"
        )
        for alpha in (0.05, 0.5):
            path = tmp_path / f"poly_{alpha}.txt"
            path.write_text(template.format(alpha=alpha))
            code = main(["check", str(path), "--mode", "all"])
            out = capsys.readouterr().out
            assert "CONCORDANCE: agree" in out
            assert "NOTE:" in out and "convexity" in out
            # internal concordance is the acceptance bar; the published
            # any-positive-modulus claim is not treated as reproducible
            definition_line = [
                l for l in out.splitlines() if l.startswith("#DATA checker=definition")
            ][0]
            assert ("verdict=holds" in definition_line) == (code == 0)


def test_a7_geometry_identities():
    with criterion("geometry-identities", 5.0):
        rng = np.random.default_rng(42)
        boxes = []
        for _ in range(5):
            n = int(rng.integers(1, 4))
            lo = rng.uniform(-2, 0.5, size=n)
            hi = lo + rng.uniform(0.1, 2, size=n)
            boxes.append(BoxSet(lo, hi))
        for c in boxes:
            grid = c.grid(7)
            for y in rng.uniform(-3, 3, size=(100, c.dimension)):
                target = box_dist(c, y)
                candidates = [
                    dist_to_cone(y - x, c.tangent_cone(x))
                    for x in np.vstack([grid, c.project(y)[None, :]])
                ]
                assert max(candidates) == pytest.approx(target, abs=1e-6)
            for x in c.grid(3):
                t_cone = c.tangent_cone(x)
                n_cone = t_cone.polar()
                for u in rng.normal(size=(10, c.dimension)):
                    d = n_cone.project(u)
                    assert dist_to_cone(d, t_cone) == pytest.approx(
                        float(np.linalg.norm(d)), abs=1e-9
                    )
                for u in rng.normal(size=(5, c.dimension)):
                    closed = cone_ball_support(n_cone, 1.5, u)
                    sampled = cone_ball_support_sampled(n_cone, 1.5, u, seed=3)
                    assert sampled == pytest.approx(closed, rel=1e-3, abs=1e-9)


def test_a8_boundedness_and_lipschitz():
    with criterion("boundedness-and-lipschitz", 5.0):
        from dataclasses import replace

        checked_points = 0
        for seed in range(6):
            f = random_convex_ivf(seed)
            inner = BoxSet(0.9 * f.domain.lo, 0.9 * f.domain.hi)
            estimate = lipschitz_estimate(replace(f, domain=inner), 300, seed=seed)
            bound = 0.0
            for x in inner.grid(4):
                result = boundedness_check(subdiff_support(f, x))
                assert result.bounded
                bound = max(bound, result.bound)
                checked_points += 1
            assert estimate <= bound + 1e-3
        assert checked_points >= 50


def test_a9_parser_robustness():
    with criterion("parser-robustness", 2.0):
        rng = np.random.default_rng(99)
        seeds = [
            "5 - x1*x2 - x1",
            "10 - x1^2*x2 - x2^2*x1",
            "min(x1, 2*x1) + max(x2, abs(x1) - 0.5, 3)",
            "abs(-x1^3 / (x2 + 2)) * 1.5e-2",
            "((x1))",
        ]
        alphabet = list("x12+-*/^().,ea bs")
        for i in range(1000):
            base = seeds[i % len(seeds)]
            if i % 2 == 0:
                mutated = base[: int(rng.integers(0, len(base)))]
            else:
                pos = int(rng.integers(0, len(base)))
                mutated = base[:pos] + str(rng.choice(alphabet)) + base[pos + 1:]
            try:
                parse(mutated, 2)
            except ParseError:
                pass  # structured failure is the accepted outcome
        gen = np.random.default_rng(1234)
        for _ in range(200):
            dimension = int(gen.integers(1, 4))
            tree = random_tree(gen, dimension, int(gen.integers(1, 4)))
            assert parse(to_source(tree), dimension).tape == tape_of(tree)
