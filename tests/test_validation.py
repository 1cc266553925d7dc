"""Validation paths of the constructors, set types and membership tests:
each malformed input raises its documented error, and the edge cases next
to them give their documented results."""

import numpy as np
import pytest

from ivwsm import (
    BoxSet,
    FiniteIVecSet,
    Interval,
    IntervalBoxSet,
    IVector,
    Ivf,
    OracleIVecSet,
    OrthantCone,
    RestrictedIvf,
    Tag,
    cone_ball_support,
    dir_derivatives,
    evaluate,
    is_subgradient,
    is_subgradient_directional,
    parse,
    subdiff_support,
)
from ivwsm.ivf import endpoint_rows

from conftest import _one_sided_abs, cube, make_ivf, vee_ivf

NAN, INF = float("nan"), float("inf")


def ivec(*pairs) -> IVector:
    return IVector.from_intervals([Interval(lo, hi) for lo, hi in pairs])


F2 = Ivf.from_expressions("abs(x1) + abs(x2)", "2*abs(x1) + abs(x2) + 1", cube(2, -1, 1))


def _slope(x, d):  # the one-sided derivative of |x1| and of |x1| + 1
    return _one_sided_abs(x[0], d[0])


#: Opaque endpoints, and the analytic derivative that their derivatives need.
OPAQUE2 = make_ivf(2, lambda x: abs(x[0]), lambda x: abs(x[0]) + 1, -1, 1, _slope, _slope)


ERRORS = {
    "box-ragged": (lambda: BoxSet(np.zeros(2), np.ones(1)),
                   "box bounds must be equal-length nonempty vectors"),
    "box-empty": (lambda: BoxSet(np.zeros(0), np.zeros(0)),
                  "box bounds must be equal-length nonempty vectors"),
    "box-inf": (lambda: BoxSet(np.zeros(1), np.array([INF])), "box bounds must be finite"),
    "box-nan": (lambda: BoxSet(np.array([NAN]), np.ones(1)), "box bounds must be finite"),
    "box-wider-than-the-float-range": (
        lambda: BoxSet(np.array([-1.5e308]), np.array([1.5e308])),
        "box width hi - lo is past the float range on some axis"),
    "ivf-dimension": (lambda: Ivf(2, abs, abs, cube(1, -1, 1)),
                      "domain dimension does not match the declared dimension"),
    "parse-dimension-0": (lambda: parse("1", 0), "dimension must be >= 1"),
    "cone-intersect-dimensions": (
        lambda: OrthantCone((Tag.FREE,)).intersect(OrthantCone((Tag.FREE, Tag.FREE))),
        "cone dimension mismatch"),
    "cone-ball-alpha-0": (lambda: cone_ball_support(OrthantCone((Tag.FREE,)), 0.0, [1.0]),
                          "alpha must be positive"),
    "finite-set-empty": (lambda: FiniteIVecSet(()), "finite set must be nonempty"),
    "finite-set-dimensions": (lambda: FiniteIVecSet((ivec((0, 1)), ivec((0, 1), (0, 1)))),
                              "members must share one dimension"),
    "box-set-corner-dimensions": (lambda: IntervalBoxSet(ivec((0, 1)), ivec((0, 1), (0, 1))),
                                  "corner dimension mismatch"),
    "box-set-crossed-corners": (lambda: IntervalBoxSet(ivec((0, 2)), ivec((1, 1))),
                                "lower corner must dominate the upper corner"),
    # a support function takes one direction of the set's dimension
    "box-set-support-length": (
        lambda: IntervalBoxSet(ivec((0, 1)), ivec((1, 2))).support([1.0, 0.0]),
        "d of shape (2,) is not a direction of 1 entry"),
    "box-set-support-two-directions": (
        lambda: IntervalBoxSet(ivec((0, 1), (0, 1)), ivec((1, 2), (1, 2))).support(np.eye(2)),
        "d of shape (2, 2) is not a direction of 2 entries"),
    "oracle-support-length": (
        lambda: OracleIVecSet(2, lambda d: Interval(0, 0)).support([1.0]),
        "d of shape (1,) is not a direction of 2 entries"),
    "oracle-support-two-directions": (
        lambda: OracleIVecSet(2, lambda d: Interval(0, 0)).support(np.eye(2)),
        "d of shape (2, 2) is not a direction of 2 entries"),
    "finite-set-support-length": (
        lambda: FiniteIVecSet((ivec((0, 1), (2, 3)),)).support([1.0]),
        "d of shape (1,) is not a direction of 2 entries"),
    "finite-set-support-two-directions": (
        lambda: FiniteIVecSet((ivec((0, 1), (2, 3)),)).support(np.eye(2)),
        "d of shape (2, 2) is not a direction of 2 entries"),
    "ivector-2d-endpoints": (lambda: IVector(np.zeros((1, 2)), np.ones((1, 2))),
                             "expected a 1-d array, got shape (1, 2)"),
    # a candidate subgradient of another dimension than F, before any evaluation
    "subgradient-dimension": (
        lambda: is_subgradient(F2, [0, 0], IVector.zeros(3), np.zeros((3, 2))),
        "g has dimension 3, F has dimension 2"),
    "subgradient-directional-dimension": (
        lambda: is_subgradient_directional(F2, [0, 0], IVector.zeros(3), np.zeros((3, 2))),
        "g has dimension 3, F has dimension 2"),
    "subgradient-xbar-outside": (
        lambda: is_subgradient(RestrictedIvf(vee_ivf(), cube(1, 0, 1)), [-0.5],
                               IVector.zeros(1), [[0.5]]),
        "xbar must lie in the effective domain"),
    # points and directions of another length than the function's dimension
    "dir-deriv-direction-length": (lambda: F2.dir_deriv([0.1, 0.1], [1.0]),
                                   "d of shape (1,) is not a direction of 2 entries"),
    "dir-deriv-two-directions": (lambda: F2.dir_deriv([0.1, 0.1], [[1.0, 0.0], [0.0, 1.0]]),
                                 "d of shape (2, 2) is not a direction of 2 entries"),
    "support-two-directions": (
        lambda: subdiff_support(F2, [0.1, 0.1]).support([[1.0, 0.0], [0.0, 1.0]]),
        "d of shape (2, 2) is not a direction of 2 entries"),
    "support-point-length": (lambda: subdiff_support(F2, [0.1]).support([1, 0]),
                             "x of shape (1,) is not a point of 2 entries"),
    "restricted-dir-deriv-direction-length": (
        lambda: RestrictedIvf(F2, cube(2, -1, 1)).dir_deriv([0.1, 0.1], [1.0]),
        "d of shape (1,) is not a direction of 2 entries"),
    "restricted-dir-deriv-two-directions": (
        lambda: RestrictedIvf(F2, cube(2, -1, 1)).dir_deriv([0.1, 0.1], [[1.0, 0.0]]),
        "d of shape (1, 2) is not a direction of 2 entries"),
    "restricted-value-point-length": (lambda: RestrictedIvf(F2, cube(2, 0, 1)).value([-0.5]),
                                      "x of shape (1,) is not a point of 2 entries"),
    "opaque-value-point-length": (lambda: OPAQUE2.value([0.5]),
                                  "x of shape (1,) is not a point of 2 entries"),
    "evaluate-scalar-point": (lambda: evaluate(parse("x1", 1), 5.0),
                              "x of shape () is not a point of 1 entry"),
    "evaluate-point-of-one-row": (lambda: evaluate(parse("x1", 1), [[1.0]]),
                                  "x of shape (1, 1) is not a point of 1 entry"),
    "expr-value-point-length": (lambda: F2.value([0.5]),
                                "x of shape (1,) is not a point of 2 entries"),
    "value-three-vector": (lambda: F2.value([0.5, 0.5, 0.5]),
                           "x of shape (3,) is not a point of 2 entries"),
    "dir-derivatives-point-length": (lambda: dir_derivatives(F2, [[0.1]], [[1.0, 0.0]]),
                                     "points of shape (1, 1) are not rows of 2 entries"),
    "endpoint-rows-point-length": (lambda: endpoint_rows(OPAQUE2, [[0.1, 0.2, 0.3]]),
                                   "points of shape (1, 3) are not rows of 2 entries"),
    "endpoint-rows-three-axes": (lambda: endpoint_rows(OPAQUE2, np.zeros((1, 1, 2))),
                                 "points of shape (1, 1, 2) are not rows of 2 entries"),
    "endpoint-rows-grid-of-three-dimensions": (
        lambda: endpoint_rows(OPAQUE2, cube(3, -1, 1).grid_axes(3)),
        "a grid of dimension 3 has no points of 2 entries"),
    "endpoint-rows-expr-grid-of-one-dimension": (
        lambda: endpoint_rows(F2, cube(1, -1, 1).grid_axes(3)),
        "a grid of dimension 1 has no points of 2 entries"),
    # one entry is counted in the singular
    "dir-derivatives-rows-of-one-entry": (
        lambda: dir_derivatives(vee_ivf(), [[0.1, 0.2]], [[1.0]]),
        "points of shape (1, 2) are not rows of 1 entry"),
    "endpoint-rows-grid-of-one-entry": (
        lambda: endpoint_rows(vee_ivf(), cube(2, -1, 1).grid_axes(3)),
        "a grid of dimension 2 has no points of 1 entry"),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_a_malformed_input_raises_its_value_error(case):
    call, message = ERRORS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("f", [F2, OPAQUE2], ids=["expr", "opaque"])
def test_a_one_d_point_or_direction_is_one_row(f):
    # one row of two entries, not two rows of one
    assert np.array_equal(endpoint_rows(f, [0.1, 0.2]), endpoint_rows(f, [[0.1, 0.2]]))
    assert np.array_equal(dir_derivatives(f, [0.1, 0.2], [1.0, -1.0]),
                          dir_derivatives(f, [[0.1, 0.2]], [[1.0, -1.0]]))


def test_a_finite_set_has_its_members_dimension():
    assert FiniteIVecSet((ivec((0, 1), (2, 3)), ivec((1, 1), (0, 0)))).dimension == 2


def test_an_interval_vector_equals_no_other_type():
    v = ivec((0, 1))
    assert v.__eq__(3) is NotImplemented
    assert v != 3 and not v == 3


def test_an_interval_repr_shows_short_endpoints():
    assert repr(Interval(0.5, 2)) == "[0.5, 2]"


def test_a_one_d_probe_list_is_a_column_of_probes():
    f, g = vee_ivf(), IVector.degenerate([0.5])
    flat = is_subgradient(f, [0.0], g, [-1.0, 0.5, 1.5])
    column = is_subgradient(f, [0.0], g, [[-1.0], [0.5], [1.5]])
    # at x = 1.5: F(x) gh- F(0) = [0.375, 1.5] against the pairing 0.75
    assert (flat.member, flat.margin) == (column.member, column.margin) == (False, -0.375)
    assert np.array_equal(flat.witness, column.witness) and np.array_equal(flat.witness, [1.5])
