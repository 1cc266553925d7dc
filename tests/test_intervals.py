"""Interval arithmetic, the gH difference, dominance, and suprema."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivwsm import Dominance, Interval, add, dominance, gh_difference, interval_norm
from ivwsm import scalar_mul, sup_family, inf_family, leq, ext_leq, PLUS_INF, MINUS_INF
from ivwsm.intervals import DEFAULT_SLACK, minkowski_sub

from conftest import intervals, random_interval


def corner_add(a: Interval, b: Interval) -> Interval:
    """Endpoint-enumeration oracle: min/max of sums over all corners."""
    sums = [x + y for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    return Interval(min(sums), max(sums))


def corner_scale(k: float, a: Interval) -> Interval:
    prods = [k * x for x in (a.lo, a.hi)]
    return Interval(min(prods), max(prods))


NAN, INF = float("nan"), float("inf")


class TestConstruction:
    @staticmethod
    def message(lo, hi) -> str:
        with pytest.raises(ValueError) as info:
            Interval(lo, hi)
        return str(info.value)

    def test_rejects_reversed_endpoints(self):
        assert self.message(1.0, 0.0) == "interval endpoints out of order: lo=1.0 > hi=0.0"
        assert self.message(np.float64(2.5), np.int64(-3)) == (
            "interval endpoints out of order: lo=2.5 > hi=-3.0"
        )
        assert self.message(5e-324, -0.0) == "interval endpoints out of order: lo=5e-324 > hi=-0.0"

    def test_rejects_nan_and_inf(self):
        for lo, hi, shown in [
            (NAN, 1.0, "[nan, 1.0]"),
            (0.0, NAN, "[0.0, nan]"),
            (NAN, NAN, "[nan, nan]"),
            (0.0, INF, "[0.0, inf]"),
            (-INF, 0.0, "[-inf, 0.0]"),
            (-INF, INF, "[-inf, inf]"),
            # finiteness is reported before order
            (INF, 0.0, "[inf, 0.0]"),
            (0.0, -INF, "[0.0, -inf]"),
            (INF, INF, "[inf, inf]"),
            (-INF, -INF, "[-inf, -inf]"),
            (np.float64(NAN), np.float32(1), "[nan, 1.0]"),
        ]:
            assert self.message(lo, hi) == f"interval endpoints must be finite, got {shown}"

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (np.float64(0.25), np.float64(1.5)),
            (np.int64(-2), np.int32(3)),
            (np.float32(0.1), np.float16(0.5)),
            (-1.7976931348623157e308, 1.7976931348623157e308),
            (-0.0, 0.0),
            (3, 3),
        ],
    )
    def test_endpoints_are_stored_as_python_floats(self, lo, hi):
        iv = Interval(lo, hi)
        assert type(iv.lo) is float and type(iv.hi) is float
        assert (iv.lo, iv.hi) == (float(lo), float(hi))
        assert np.signbit(iv.lo) == np.signbit(float(lo))
        assert vars(iv) == {"lo": float(lo), "hi": float(hi)}

    def test_fields_are_frozen(self):
        iv = Interval(0.0, 1.0)
        for name in ("lo", "hi"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(iv, name, 0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del iv.lo
        assert (iv.lo, iv.hi) == (0.0, 1.0)

    def test_equality_and_hash_are_those_of_the_endpoint_pair(self):
        a = Interval(np.float64(0.5), 2)
        assert a == Interval(0.5, 2.0) and hash(a) == hash(Interval(0.5, 2.0))
        assert hash(a) == hash((0.5, 2.0))
        assert Interval(-0.0, 0.0) == Interval(0.0, 0.0)
        assert hash(Interval(-0.0, 0.0)) == hash(Interval(0.0, 0.0))
        assert a != Interval(0.5, 2.5) and a != (0.5, 2.0)
        assert dataclasses.astuple(a) == (0.5, 2.0)
        assert dataclasses.replace(a, hi=3) == Interval(0.5, 3.0)
        assert len({a, Interval(0.5, 2.0), Interval(0.5, 2.5)}) == 2

    def test_degenerate_behaves_as_the_real(self):
        p = Interval.degenerate(3.5)
        assert p.lo == p.hi == 3.5
        assert p.is_degenerate


class TestAdd:
    def test_example(self):
        assert add(Interval(1, 2), Interval(3, 5)) == corner_add(Interval(1, 2), Interval(3, 5))
        assert add(Interval(1, 2), Interval(3, 5)) == Interval(4, 7)

    def test_additive_identity(self):
        assert add(Interval(0, 0), Interval(3, 5)) == Interval(3, 5)

    def test_symmetric_example(self):
        assert add(Interval(-1, 1), Interval(-1, 1)) == corner_add(Interval(-1, 1), Interval(-1, 1))
        assert add(Interval(-1, 1), Interval(-1, 1)) == Interval(-2, 2)


class TestScalarMul:
    def test_positive(self):
        assert scalar_mul(2, Interval(1, 3)) == corner_scale(2, Interval(1, 3))
        assert scalar_mul(2, Interval(1, 3)) == Interval(2, 6)

    def test_negative_swaps(self):
        assert scalar_mul(-1, Interval(1, 3)) == corner_scale(-1, Interval(1, 3))
        assert scalar_mul(-1, Interval(1, 3)) == Interval(-3, -1)

    def test_zero_annihilates(self):
        assert scalar_mul(0, Interval(1, 3)) == Interval(0, 0)

    def test_markers_accept_positive_scalars_only(self):
        assert scalar_mul(2.0, PLUS_INF) is PLUS_INF
        with pytest.raises(ValueError):
            scalar_mul(-1.0, PLUS_INF)
        with pytest.raises(ValueError):
            scalar_mul(0.0, MINUS_INF)


class TestGhDifference:
    def test_example(self):
        c = gh_difference(Interval(1, 3), Interval(0, 1))
        assert c == Interval(1, 2)
        # defining property: A = B + C here
        assert add(Interval(0, 1), c) == Interval(1, 3)

    def test_self_difference_is_zero(self):
        assert gh_difference(Interval(2, 5), Interval(2, 5)) == Interval(0, 0)

    def test_wider_subtrahend(self):
        c = gh_difference(Interval(0, 1), Interval(0, 3))
        assert c == Interval(-2, 0)
        # here the second clause holds: B = A (-) C
        assert minkowski_sub(Interval(0, 1), c) == Interval(0, 3)


def dominance_reference(a, b, slack):
    """Reference oracle: the classification by cases on both relations."""
    le = a.lo <= b.lo + slack and a.hi <= b.hi + slack
    ge = b.lo <= a.lo + slack and b.hi <= a.hi + slack
    if le and ge:
        return Dominance.EQUAL
    if le:
        return Dominance.LT
    if ge:
        return Dominance.GT
    return Dominance.INCOMPARABLE


class TestDominance:
    def test_reflexive_equal(self):
        assert dominance(Interval(1, 2), Interval(1, 2)) is Dominance.EQUAL

    def test_strict(self):
        assert dominance(Interval(0, 1), Interval(1, 2)) is Dominance.LT

    def test_incomparable(self):
        assert dominance(Interval(0, 3), Interval(1, 2)) is Dominance.INCOMPARABLE

    def test_lt_implies_leq(self):
        rel = dominance(Interval(0, 1), Interval(1, 2))
        assert rel.leq and not rel.geq

    def test_slack_absorbs_round_off(self):
        a = Interval(0.1 + 0.2, 1.0)  # 0.30000000000000004
        b = Interval(0.3, 1.0)
        assert dominance(a, b) is Dominance.EQUAL
        assert dominance(a, b, slack=0.0) is Dominance.GT

    @pytest.mark.parametrize("slack", [DEFAULT_SLACK, 0.0])
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (Interval(1, 2), Interval(1, 2), Dominance.EQUAL),
            (Interval(0, 1), Interval(1, 2), Dominance.LT),
            (Interval(1, 2), Interval(0, 1), Dominance.GT),
            (Interval(0, 3), Interval(1, 2), Dominance.INCOMPARABLE),
        ],
        ids=["equal", "lt", "gt", "incomparable"],
    )
    def test_every_class_matches_the_case_reference(self, a, b, expected, slack):
        rel = dominance(a, b, slack)
        assert rel is expected is dominance_reference(a, b, slack)
        assert (rel.leq, rel.geq) == (leq(a, b, slack), leq(b, a, slack))

    @given(intervals(), intervals(), st.sampled_from([0.0, DEFAULT_SLACK, 0.5]))
    def test_matches_the_case_reference(self, a, b, slack):
        rel = dominance(a, b, slack)
        assert rel is dominance_reference(a, b, slack)
        assert rel == rel.leq + 2 * rel.geq

    def test_ext_markers(self):
        assert ext_leq(Interval(5, 9), PLUS_INF)
        assert not ext_leq(PLUS_INF, Interval(5, 9))
        assert ext_leq(MINUS_INF, Interval(-1, 0))
        assert ext_leq(PLUS_INF, PLUS_INF)
        assert not ext_leq(Interval(0, 1), MINUS_INF)
        assert ext_leq(MINUS_INF, MINUS_INF)
        # finite intervals compare by dominance
        assert ext_leq(Interval(0, 1), Interval(1, 2))
        assert not ext_leq(Interval(1, 2), Interval(0, 1))


class TestNorm:
    def test_examples(self):
        assert interval_norm(Interval(-3, 1)) == 3
        assert interval_norm(Interval(0, 0)) == 0
        assert interval_norm(Interval(2, 5)) == 5

    @given(intervals())
    def test_matches_endpoint_maximization(self, a):
        assert interval_norm(a) == max(abs(t) for t in (a.lo, a.hi))
        assert interval_norm(a) >= 0


class TestSupFamily:
    def test_examples(self):
        assert sup_family([Interval(0, 1), Interval(2, 3)]) == Interval(2, 3)
        # the bound can fall outside the family
        assert sup_family([Interval(0, 3), Interval(1, 2)]) == Interval(1, 3)
        assert sup_family([Interval(5, 7)]) == Interval(5, 7)

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            sup_family([])
        with pytest.raises(ValueError):
            inf_family([])

    @given(st.lists(intervals(), min_size=1, max_size=8))
    def test_upper_bound_property(self, family):
        top = sup_family(family)
        # upper bound: every member dominates it ... member <= top
        assert all(leq(a, top, slack=0.0) for a in family)
        # least: endpoint-wise equal to the brute-force scan
        assert top.lo == max(a.lo for a in family)
        assert top.hi == max(a.hi for a in family)

    @given(st.lists(intervals(), min_size=1, max_size=8))
    def test_inf_is_dual(self, family):
        bottom = inf_family(family)
        assert all(leq(bottom, a, slack=0.0) for a in family)


class TestAlgebraicProperties:
    @given(intervals(), intervals())
    def test_gh_defining_property(self, a, b):
        c = gh_difference(a, b)
        first = add(b, c)
        second = minkowski_sub(a, c)
        holds_first = abs(first.lo - a.lo) <= 1e-12 and abs(first.hi - a.hi) <= 1e-12
        holds_second = abs(second.lo - b.lo) <= 1e-12 and abs(second.hi - b.hi) <= 1e-12
        assert holds_first or holds_second

    @given(intervals(), intervals(), st.floats(0.0, 1.0))
    def test_chord_difference_scales(self, a, b, lam):
        blend = add(scalar_mul(1 - lam, a), scalar_mul(lam, b))
        left = gh_difference(blend, a)
        right = scalar_mul(lam, gh_difference(b, a))
        assert abs(left.lo - right.lo) <= 1e-12
        assert abs(left.hi - right.hi) <= 1e-12

    @given(
        intervals(),
        intervals(),
        st.floats(0.0, 100.0),
        st.floats(0.0, 100.0),
        st.floats(0.0, 100.0),
    )
    def test_shift_stays_below(self, b, c, u, v, w):
        # build A dominated by the gH difference, then r below A; the shifted
        # subtrahend must stay dominated by the minuend
        d = gh_difference(b, c)
        a_hi = d.hi - v
        a_lo = min(d.lo, a_hi) - u
        a = Interval(a_lo, a_hi)
        assert dominance(a, d, slack=0.0).leq
        r = a.lo - w
        rel = dominance(add(c, Interval(r, r)), b, slack=1e-12)
        assert rel.leq

    @given(intervals(), intervals(), intervals())
    def test_partial_order_axioms(self, a, b, c):
        assert dominance(a, a, slack=0.0) is Dominance.EQUAL
        ab = dominance(a, b, slack=0.0)
        ba = dominance(b, a, slack=0.0)
        if ab.leq and ba.leq:  # antisymmetry
            assert a == b
        bc = dominance(b, c, slack=0.0)
        if ab.leq and bc.leq:  # transitivity
            assert dominance(a, c, slack=0.0).leq


def test_ten_thousand_seeded_pairs_hold_all_identities():
    rng = np.random.default_rng(20240817)
    for _ in range(10_000):
        a = random_interval(rng)
        b = random_interval(rng)
        lam = float(rng.uniform())
        # self difference is exactly zero
        assert gh_difference(a, a) == Interval(0, 0)
        # defining property within 1e-12
        c = gh_difference(a, b)
        first = add(b, c)
        second = minkowski_sub(a, c)
        assert (
            abs(first.lo - a.lo) <= 1e-12 and abs(first.hi - a.hi) <= 1e-12
        ) or (
            abs(second.lo - b.lo) <= 1e-12 and abs(second.hi - b.hi) <= 1e-12
        )
        # chord scaling
        blend = add(scalar_mul(1 - lam, a), scalar_mul(lam, b))
        left = gh_difference(blend, a)
        right = scalar_mul(lam, gh_difference(b, a))
        assert abs(left.lo - right.lo) <= 1e-12 and abs(left.hi - right.hi) <= 1e-12
