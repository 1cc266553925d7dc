"""Interval vectors: componentwise algebra, the special product, norms."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivwsm import IVector, Interval, add, dominance, gh_difference, interval_norm, special_product, vnorm, vstar
from ivwsm import scalar_mul

from conftest import intervals


def ivec(*pairs) -> IVector:
    return IVector.from_intervals([Interval(lo, hi) for lo, hi in pairs])


@st.composite
def ivectors(draw, n=None):
    if n is None:
        n = draw(st.integers(1, 4))
    comps = draw(st.lists(intervals(), min_size=n, max_size=n))
    return IVector.from_intervals(comps)


class TestConstruction:
    def test_rejects_mismatched_and_reversed(self):
        with pytest.raises(ValueError):
            IVector(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            IVector(np.array([2.0]), np.array([1.0]))

    def test_component_access(self):
        v = ivec((0, 1), (2, 3))
        assert v.component(0) == Interval(0, 1)
        assert v.components == (Interval(0, 1), Interval(2, 3))


class TestVstar:
    def test_componentwise_add(self):
        a = ivec((0, 1), (2, 3))
        b = ivec((1, 1), (0, 2))
        assert vstar(a, b, add) == ivec((1, 2), (2, 5))

    def test_self_gh_difference_vanishes(self):
        a = ivec((0, 1), (2, 3), (-4, -1))
        assert vstar(a, a, gh_difference) == IVector.zeros(3)

    def test_single_component_reuses_interval_rule(self):
        assert vstar(ivec((1, 3)), ivec((0, 1)), gh_difference) == ivec((1, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vstar(ivec((0, 1)), ivec((0, 1), (0, 1)), add)


class TestSpecialProduct:
    def test_example_with_sign_mix(self):
        # both candidate sums equal -2 here
        result = special_product([1, -1], ivec((0, 1), (2, 3)))
        s_lo = 1 * 0 + (-1) * 2
        s_hi = 1 * 1 + (-1) * 3
        assert result == Interval(min(s_lo, s_hi), max(s_lo, s_hi)) == Interval(-2, -2)

    def test_zero_vector(self):
        assert special_product([0, 0], ivec((0, 1), (2, 3))) == Interval(0, 0)

    def test_degenerate_reduces_to_inner_product(self):
        assert special_product([1, 1], ivec((2, 2), (3, 3))) == Interval(5, 5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            special_product([1.0], ivec((0, 1), (2, 3)))

    @given(ivectors(), st.data())
    def test_degenerate_reduction_general(self, v, data):
        n = v.dimension
        x = np.array(data.draw(st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n)))
        flat = IVector.degenerate(v.los)
        result = special_product(x, flat)
        assert result.is_degenerate
        assert result.lo == pytest.approx(float(x @ v.los), abs=1e-9)

    @given(ivectors(), st.data())
    def test_norm_bound(self, a, data):
        n = a.dimension
        x = np.array(data.draw(st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n)))
        lhs = special_product(x, a)
        scale = float(np.linalg.norm(x)) * vnorm(a)
        bound = Interval(scale, scale)
        assert dominance(lhs, bound, slack=1e-9).leq

    @given(ivectors(), st.data())
    def test_positive_homogeneity(self, a, data):
        n = a.dimension
        x = np.array(data.draw(st.lists(
            st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n)))
        t = data.draw(st.floats(0.0, 50.0, allow_nan=False))
        left = special_product(t * x, a)
        right = scalar_mul(t, special_product(x, a))
        assert left.lo == pytest.approx(right.lo, abs=1e-7)
        assert left.hi == pytest.approx(right.hi, abs=1e-7)


class TestVnorm:
    def test_examples(self):
        assert vnorm(ivec((-3, 1), (0, 2))) == 5
        assert vnorm(IVector.zeros(3)) == 0
        assert vnorm(ivec((1, 1))) == 1

    @given(ivectors())
    def test_sum_of_component_norms(self, v):
        expected = sum(interval_norm(c) for c in v.components)
        assert vnorm(v) == pytest.approx(expected, rel=1e-12)
        assert (vnorm(v) == 0) == all(c == Interval(0, 0) for c in v.components)
