"""Closed bounded intervals and generalized-Hukuhara (gH) arithmetic.

The atom of everything in this package is the closed interval ``[lo, hi]``
with ``lo <= hi``.  Addition and scalar multiplication follow the usual
endpoint rules; subtraction is replaced by the gH difference, which exists
for every pair and satisfies ``gh_difference(a, a) == [0, 0]``.

Intervals are only partially ordered: ``a`` dominates ``b`` when both of
``a``'s endpoints are <= the corresponding endpoints of ``b``.  Two
intervals whose endpoints disagree in direction are incomparable.

``PLUS_INF`` / ``MINUS_INF`` are markers standing in for the two infinite
elements used by proper extended interval-valued functions.  They take part
in dominance tests (every finite interval is strictly below ``PLUS_INF``)
and in positive scalar multiplication, nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence, Union

#: Absolute slack used by default when classifying dominance.  Downstream
#: checkers compare quantities assembled from many float operations; the
#: slack keeps round-off from flipping Lt/Equal.  Pass ``slack=0.0`` for
#: exact algebraic work.
DEFAULT_SLACK = 1e-9

_INF = math.inf  # a module global reads faster than math.inf


class _InfMarker:
    """Marker for one of the two infinite extended intervals."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name


PLUS_INF = _InfMarker("PLUS_INF")
MINUS_INF = _InfMarker("MINUS_INF")

ExtInterval = Union["Interval", _InfMarker]


def is_finite(value: ExtInterval) -> bool:
    return isinstance(value, Interval)


@dataclass(frozen=True, init=False)
class Interval:
    """Closed bounded interval [lo, hi].

    The constructor rejects ``lo > hi`` instead of swapping: every formula
    in this package already emits ordered endpoints, so a reversed pair is
    an arithmetic bug we want surfaced, not hidden.  It sets each field
    once, after the checks.
    """

    lo: float
    hi: float

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        # one test passes exactly the finite ordered pairs (NaN fails it)
        if not -_INF < lo <= hi < _INF:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"interval endpoints must be finite, got [{lo}, {hi}]")
            raise ValueError(f"interval endpoints out of order: lo={lo} > hi={hi}")
        fields = self.__dict__  # the frozen class's __setattr__ raises
        fields["lo"] = lo
        fields["hi"] = hi

    @classmethod
    def degenerate(cls, value: float) -> "Interval":
        """The interval [p, p] representing the real number p."""
        return cls(value, value)

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def __repr__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


class Dominance(IntEnum):
    """Classification of an ordered interval pair under the endpoint order.

    Exactly one of the four values describes any pair (a, b).  Each is
    numbered by two bits: bit 1 means a dominates b (a "<=" b) and bit 2
    means b dominates a, so ``EQUAL`` and ``LT`` both entail a "<=" b; the
    ``leq`` / ``geq`` properties test one bit each.
    """

    INCOMPARABLE = 0
    LT = 1
    GT = 2
    EQUAL = 3

    @property
    def leq(self) -> bool:
        """True when the first interval dominates the second (a "<=" b)."""
        return bool(self & Dominance.LT)

    @property
    def geq(self) -> bool:
        return bool(self & Dominance.GT)


#: The classes by code (indexing this is faster than ``Dominance(code)``).
_DOMINANCE = tuple(Dominance)


def add(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo + b.lo, a.hi + b.hi)


def scalar_mul(k: float, a: ExtInterval) -> ExtInterval:
    """k * interval.  Infinite markers admit only positive scalars."""
    if isinstance(a, _InfMarker):
        if k > 0:
            return a
        raise ValueError(f"scalar_mul on {a!r} requires a positive scalar, got {k}")
    k = float(k)
    if k >= 0:
        return Interval(k * a.lo, k * a.hi)
    return Interval(k * a.hi, k * a.lo)


def minkowski_sub(a: Interval, b: Interval) -> Interval:
    # Internal: used only by the oracle for the gH defining property.
    return Interval(a.lo - b.hi, a.hi - b.lo)


def gh_difference(a: Interval, b: Interval) -> Interval:
    """Generalized Hukuhara difference of two intervals.

    C = a gh- b is the interval with endpoints
    [min(a.lo - b.lo, a.hi - b.hi), max(a.lo - b.lo, a.hi - b.hi)];
    it satisfies a == b + C or b == a (-) C, where (-) is the endpoint
    (Minkowski) subtraction.
    """
    d_lo = a.lo - b.lo
    d_hi = a.hi - b.hi
    return Interval(min(d_lo, d_hi), max(d_lo, d_hi))


def dominance(a: Interval, b: Interval, slack: float = DEFAULT_SLACK) -> Dominance:
    """Classify the ordered pair (a, b) under the endpoint partial order.

    a dominates b when a.lo <= b.lo and a.hi <= b.hi (within ``slack``).
    With slack > 0, EQUAL means indistinguishable at that resolution.
    """
    return _DOMINANCE[leq(a, b, slack) + 2 * leq(b, a, slack)]


def leq(a: Interval, b: Interval, slack: float = DEFAULT_SLACK) -> bool:
    """True when a dominates b, i.e. a "<=" b under the endpoint order."""
    return a.lo <= b.lo + slack and a.hi <= b.hi + slack


def ext_leq(a: ExtInterval, b: ExtInterval) -> bool:
    """Dominance a "<=" b extended to the infinite markers.

    Everything is below PLUS_INF and above MINUS_INF; the markers compare
    reflexively with themselves, and finite intervals by :func:`leq`.
    """
    if b is PLUS_INF or a is MINUS_INF:
        return True
    if a is PLUS_INF:
        return b is PLUS_INF
    if b is MINUS_INF:
        return a is MINUS_INF
    return leq(a, b)


def interval_norm(a: Interval) -> float:
    """max(|lo|, |hi|); zero exactly for the zero interval."""
    return max(abs(a.lo), abs(a.hi))


def sup_family(family: Sequence[Interval]) -> Interval:
    """Least upper bound of a nonempty family: [max of lows, max of highs]."""
    if len(family) == 0:
        raise ValueError("sup_family of an empty family")
    return Interval(max(a.lo for a in family), max(a.hi for a in family))


def inf_family(family: Sequence[Interval]) -> Interval:
    """Greatest lower bound of a nonempty family: [min of lows, min of highs]."""
    if len(family) == 0:
        raise ValueError("inf_family of an empty family")
    return Interval(min(a.lo for a in family), min(a.hi for a in family))
