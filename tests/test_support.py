"""Support values over finite sets, interval boxes, and oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivwsm import (
    FiniteIVecSet,
    IntervalBoxSet,
    Interval,
    IVector,
    OracleIVecSet,
    PLUS_INF,
    RestrictedIvf,
    boundedness_check,
    default_directions,
    dominance,
    scalar_mul,
    special_product,
    subdiff_support,
    sup_family,
    vnorm,
)

from conftest import cube, vee_ivf


def ivec(*pairs) -> IVector:
    return IVector.from_intervals([Interval(lo, hi) for lo, hi in pairs])


def ex1_box() -> IntervalBoxSet:
    """The 1-d subgradient box of |x| * [1/4, 1] at the kink."""
    return IntervalBoxSet(ivec((-1.0, -0.25)), ivec((0.25, 1.0)))


class TestSupportValue:
    def test_finite_positive_direction(self):
        s = FiniteIVecSet((ivec((0, 1)), ivec((2, 3))))
        assert s.support([1.0]) == sup_family(
            [special_product([1.0], m) for m in s.members]
        )
        assert s.support([1.0]) == Interval(2, 3)

    def test_finite_negative_direction(self):
        s = FiniteIVecSet((ivec((0, 1)), ivec((2, 3))))
        assert s.support([-1.0]) == Interval(-1, 0)

    def test_singleton_reduces_to_special_product(self):
        g = ivec((0.5, 1.5), (-2, 0))
        s = FiniteIVecSet((g,))
        for d in default_directions(2, seed=1, count=16):
            assert s.support(d) == special_product(d, g)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            FiniteIVecSet((ivec((0, 1)),)).support([1.0, 2.0])


def box_corner_members(box: IntervalBoxSet):
    """All per-component corner choices that form valid intervals."""
    per_component = []
    for i in range(box.dimension):
        choices = set()
        for lo in (box.lower.los[i], box.upper.los[i]):
            for hi in (box.lower.his[i], box.upper.his[i]):
                if lo <= hi:
                    choices.add((lo, hi))
        per_component.append(sorted(choices))
    for combo in itertools.product(*per_component):
        yield IVector(np.array([c[0] for c in combo]), np.array([c[1] for c in combo]))


class TestIntervalBoxSupport:
    def test_matches_corner_enumeration(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            for _ in range(5):
                l_lo = rng.uniform(-2, 0, n)
                l_hi = l_lo + rng.uniform(0, 1, n)
                u_lo = l_lo + rng.uniform(0, 1, n)
                u_hi = np.maximum(l_hi + rng.uniform(0, 1, n), u_lo)
                box = IntervalBoxSet(IVector(l_lo, l_hi), IVector(u_lo, u_hi))
                corners = FiniteIVecSet(tuple(box_corner_members(box)))
                for d in default_directions(n, seed=n, count=24):
                    closed = box.support(d)
                    brute = corners.support(d)
                    assert closed.lo == pytest.approx(brute.lo, abs=1e-9)
                    assert closed.hi == pytest.approx(brute.hi, abs=1e-9)

    def test_ex1_box_values(self):
        box = ex1_box()
        assert box.support([1.0]) == Interval(0.25, 1.0)
        assert box.support([-1.0]) == Interval(0.25, 1.0)


class TestBoundedness:
    def test_finite_set_bound_is_max_vnorm(self):
        s = FiniteIVecSet((ivec((0, 1), (2, 3)), ivec((-4, 0), (0, 1))))
        result = boundedness_check(s)
        assert result.bounded and result.bound == max(vnorm(m) for m in s.members)

    def test_zero_singleton(self):
        s = FiniteIVecSet((IVector.zeros(2),))
        result = boundedness_check(s)
        assert result.bounded and result.bound == 0.0

    def test_restricted_subdiff_ray_is_unbounded(self):
        # at the end 0 of the feasible set [0, 1] the subgradient set of the
        # restriction holds the whole ray of the normal cone, so its support
        # value along -1 (the direction leaving the set) is +inf
        oracle = subdiff_support(RestrictedIvf(vee_ivf(), cube(1, 0, 1)), [0.0])
        result = boundedness_check(oracle)
        assert not result.bounded
        assert result.unbounded_direction[0] == -1.0
        assert oracle.support(result.unbounded_direction) is PLUS_INF

    def test_box_bound_is_the_largest_corner_endpoint_per_axis(self):
        # sum over axes of max(|L.lo|, |L.hi|, |U.lo|, |U.hi|), bit for bit
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 5, 8):
            for scale in (1e-3, 1.0, 1e6):
                l_lo = scale * rng.uniform(-2, 1, n)
                l_hi = l_lo + scale * rng.uniform(0, 1, n)
                u_lo = l_lo + scale * rng.uniform(0, 2, n)
                u_hi = np.maximum(l_hi + scale * rng.uniform(0, 1, n), u_lo)
                box = IntervalBoxSet(IVector(l_lo, l_hi), IVector(u_lo, u_hi))
                corners = np.abs([l_lo, l_hi, u_lo, u_hi])
                result = boundedness_check(box)
                assert result.bounded
                assert result.bound == float(np.sum(corners.max(axis=0)))

    def test_oracle_bound_covers_members(self):
        box = ex1_box()
        oracle = OracleIVecSet(1, lambda d: box.support(d))
        result = boundedness_check(oracle)
        assert result.bounded
        assert result.bound >= 1.0 - 1e-12  # the widest member has norm 1

    def test_bounded_set_support_below_norm_ball(self):
        rng = np.random.default_rng(14)
        members = tuple(
            IVector(lo, lo + rng.uniform(0, 1, 3))
            for lo in rng.uniform(-2, 2, size=(4, 3))
        )
        s = FiniteIVecSet(members)
        m_bound = boundedness_check(s).bound
        for d in default_directions(3, seed=0, count=32):
            val = s.support(d)
            cap = float(np.linalg.norm(d)) * m_bound
            assert dominance(val, Interval(cap, cap), slack=1e-9).leq


class TestHomogeneity:
    @given(st.floats(0.01, 20.0), st.integers(0, 1000))
    def test_positive_scaling(self, t, seed):
        rng = np.random.default_rng(seed)
        members = tuple(
            IVector(lo, lo + rng.uniform(0, 1, 2))
            for lo in rng.uniform(-1, 1, size=(3, 2))
        )
        s = FiniteIVecSet(members)
        d = rng.normal(size=2)
        left = s.support(t * d)
        right = scalar_mul(t, s.support(d))
        assert left.lo == pytest.approx(right.lo, rel=1e-9, abs=1e-9)
        assert left.hi == pytest.approx(right.hi, rel=1e-9, abs=1e-9)
