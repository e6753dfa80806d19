"""Points and elementary predicates for the three supported spaces.

Space conventions:

* Sorgenfrey line: the rationals (as stand-ins for the reals), topologized by
  half-open intervals [a, b).  Exact mode only.
* Double arrow: [0, 1] x {0, 1} with the lexicographic order topology.
  Exact mode only.
* Niemytzki plane: the closed upper half plane.  Interior points get ordinary
  open discs; a boundary point (a, 0) gets tangent-disc neighborhoods
  {(a, 0)} union B((a, r), r).  Coordinates may be exact or binary64.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .numerics import Scalar, as_scalar, check_same_mode, is_zero, le


class Space(Enum):
    SORGENFREY = "sorgenfrey"
    DOUBLE_ARROW = "double_arrow"
    NIEMYTZKI = "niemytzki"


class SpaceMismatchError(ValueError):
    """Raised when an operation receives objects tagged with different spaces."""


def check_space(expected: Space, *objs) -> None:
    for obj in objs:
        if obj.space is not expected:
            raise SpaceMismatchError(f"expected {expected}, got {obj.space}")


@dataclass(frozen=True)
class SorgenfreyPoint:
    x: Scalar

    space = Space.SORGENFREY

    def __post_init__(self):
        x = self.x
        if type(x) is not Fraction:
            x = as_scalar(x)
            if not isinstance(x, Fraction):
                raise ValueError("Sorgenfrey coordinates must be exact rationals")
            object.__setattr__(self, "x", x)


def check_side(side) -> None:
    """Raise unless ``side`` is the int 0 or 1; a bool or a float is not one."""
    if type(side) is not int or side not in (0, 1):
        raise ValueError(f"side must be the integer 0 or 1, got {side!r}")


@dataclass(frozen=True)
class DoubleArrowPoint:
    t: Scalar
    side: int

    space = Space.DOUBLE_ARROW

    def __post_init__(self):
        t = self.t
        if type(t) is not Fraction:
            t = as_scalar(t)
            if not isinstance(t, Fraction):
                raise ValueError("double arrow coordinates must be exact rationals")
            object.__setattr__(self, "t", t)
        n, d = t.as_integer_ratio()
        if not 0 <= n <= d:
            raise ValueError(f"double arrow coordinate {t} outside [0, 1]")
        check_side(self.side)

    @property
    def extreme(self) -> bool:
        """True at the isolated minimum (0, 0) and maximum (1, 1): t = side."""
        n, d = self.t.as_integer_ratio()
        return n == self.side * d


@dataclass(frozen=True)
class NiemytzkiPoint:
    x: Scalar
    y: Scalar

    space = Space.NIEMYTZKI

    def __post_init__(self):
        x, y = self.x, self.y
        if type(x) is not type(y) or type(x) not in (Fraction, float):
            x, y = as_scalar(x), as_scalar(y)
            check_same_mode(x, y)
            object.__setattr__(self, "x", x)
            object.__setattr__(self, "y", y)
        if not (y.numerator >= 0 if type(y) is Fraction else le(0, y)):
            raise ValueError(f"Niemytzki point must satisfy y >= 0, got y={y}")

    @property
    def on_axis(self) -> bool:
        return is_zero(self.y)


Point = SorgenfreyPoint | DoubleArrowPoint | NiemytzkiPoint


def lex_less(a: DoubleArrowPoint, b: DoubleArrowPoint) -> bool:
    """Strict lexicographic order on double arrow points."""
    check_space(Space.DOUBLE_ARROW, a, b)
    return a.t < b.t or (a.t == b.t and a.side < b.side)


def sq_dist_of(
    pxn: int, pxd: int, pyn: int, pyd: int, qxn: int, qxd: int, qyn: int, qyd: int
) -> tuple[int, int]:
    """The squared distance between the exact points (pxn/pxd, pyn/pyd) and
    (qxn/qxd, qyn/qyd), positive denominators, as an unreduced pair
    (numerator, denominator) of integers, the denominator positive and a
    perfect square (docs/derivations.md, "Exact kernel")."""
    bx, by = pxd * qxd, pyd * qyd
    dx = (pxn * qxd - qxn * pxd) * by
    dy = (pyn * qyd - qyn * pyd) * bx
    den = bx * by
    return dx * dx + dy * dy, den * den


def sq_dist_terms(p: NiemytzkiPoint, q: NiemytzkiPoint) -> tuple[int, int]:
    """``sq_dist_of`` two exact points."""
    return sq_dist_of(
        *p.x.as_integer_ratio(),
        *p.y.as_integer_ratio(),
        *q.x.as_integer_ratio(),
        *q.y.as_integer_ratio(),
    )


def sq_dist(p: NiemytzkiPoint, q: NiemytzkiPoint) -> Scalar:
    """Squared Euclidean distance; exact whenever both points are exact, and
    then normalised once, from integer numerators and denominators."""
    if type(p.x) is Fraction and type(q.x) is Fraction:
        return Fraction(*sq_dist_terms(p, q))
    dx, dy = p.x - q.x, p.y - q.y
    return dx * dx + dy * dy
