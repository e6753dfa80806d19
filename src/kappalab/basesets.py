"""Parametric basic open sets and their exact membership/closure predicates.

Each space has a fixed repertoire of base elements:

* Sorgenfrey: ``HalfOpen(a, b)`` = [a, b), and ``OpenInterval(a, b)`` = (a, b)
  with rational endpoints.  Open intervals exist only so that candidate
  function families over them can be expressed (and refuted); they are not
  regular open and the union validator rejects them.
* Double arrow: ``ClopenInterval(a, b)`` = the order interval [(a,1), (b,0)],
  optionally extended by the isolated extreme points (0,0)/(1,1), plus
  ``ExtremeSingleton`` for those isolated points alone.
* Niemytzki: ``InteriorDisc(cx, cy, r)`` = the open Euclidean disc
  B((cx,cy), r) with 0 < r <= cy and r <= 1, and ``TangentDisc(a, r)`` =
  {(a,0)} union B((a,r), r) with 0 < r <= 1.

Closure membership is decided by closed-form case analysis in each space's
own topology:

* Sorgenfrey: cl [a,b) = [a,b) (clopen); cl (a,b) = [a,b) (the left endpoint
  is a limit of right-approaching points, the right endpoint is not).
* Double arrow: clopen intervals are their own closure.
* Niemytzki: the closure of a base disc is its closed Euclidean disc; for a
  disc tangent to the axis (r = cy, or any tangent disc) the tangency point
  lies in that closed disc already.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numerics import Scalar, as_float, as_scalar, check_same_mode, eq, is_zero, le, lt, sq
from .spaces import (
    DoubleArrowPoint,
    NiemytzkiPoint,
    Point,
    SorgenfreyPoint,
    Space,
    SpaceMismatchError,
    check_side,
    sq_dist_of,
)


class cached_property:
    """``functools.cached_property`` without its lock, as in Python 3.12: the
    first read stores the value in the instance's ``__dict__``, where every
    later read finds it before this (non-data) descriptor.  Python 3.8-3.11
    take an RLock on every first read; no instance here is shared between
    threads, and ``cli._run_cases`` forks only while no other thread runs."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.attrname = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class _Interval:
    """What the interval base sets share: exact endpoints a < b, decided on
    their ``terms``, which are built once per set."""

    def __post_init__(self):
        a, b = as_scalar(self.a), as_scalar(self.b)
        if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
            raise ValueError(f"{type(self).__name__} endpoints must be exact rationals")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        an, ad, bn, bd = self.terms
        if not an * bd < bn * ad:
            raise ValueError(f"need a < b, got a={a}, b={b}")

    @cached_property
    def terms(self) -> tuple[int, int, int, int]:
        """(an, ad, bn, bd): the lowest terms of a = an/ad and b = bn/bd; the
        constructor decides the endpoints' order on them."""
        return (*self.a.as_integer_ratio(), *self.b.as_integer_ratio())


@dataclass(frozen=True)
class HalfOpen(_Interval):
    """Sorgenfrey base interval [a, b)."""

    a: Scalar
    b: Scalar

    space = Space.SORGENFREY
    kind = "half_open"


@dataclass(frozen=True)
class OpenInterval(_Interval):
    """Sorgenfrey open interval (a, b) with rational endpoints.

    Not regular open in the Sorgenfrey topology: cl (a,b) = [a,b), whose
    interior [a,b) strictly contains (a,b).
    """

    a: Scalar
    b: Scalar

    space = Space.SORGENFREY
    kind = "open_interval"


@dataclass(frozen=True)
class ClopenInterval(_Interval):
    """Double arrow clopen order interval [(a,1), (b,0)].

    With ``include_left_extreme`` (only when a = 0) the isolated minimum
    (0,0) joins the set; with ``include_right_extreme`` (only when b = 1) the
    isolated maximum (1,1) does.
    """

    a: Scalar
    b: Scalar
    include_left_extreme: bool = False
    include_right_extreme: bool = False

    space = Space.DOUBLE_ARROW
    kind = "clopen_interval"

    def __post_init__(self):
        super().__post_init__()
        an, _, bn, bd = self.terms
        if an < 0 or bn > bd:
            raise ValueError(f"need 0 <= a < b <= 1, got a={self.a}, b={self.b}")
        if self.include_left_extreme and an != 0:
            raise ValueError("include_left_extreme requires a = 0")
        if self.include_right_extreme and bn != bd:
            raise ValueError("include_right_extreme requires b = 1")

    @cached_property
    def length(self) -> Fraction:
        """b - a, the double arrow value on the interval."""
        return self.b - self.a


@dataclass(frozen=True)
class ExtremeSingleton:
    """One of the isolated double arrow extremes: {(0,0)} (side 0) or {(1,1)}."""

    side: int

    space = Space.DOUBLE_ARROW
    kind = "extreme_singleton"

    def __post_init__(self):
        check_side(self.side)  # 0 for the minimum, 1 for the maximum

    @property
    def point(self) -> DoubleArrowPoint:
        return DoubleArrowPoint(Fraction(self.side), self.side)


class _Disc:
    """What the two Niemytzki discs share, built once per set."""

    @cached_property
    def r2(self) -> Scalar:
        """The squared radius."""
        return sq(self.r)

    @cached_property
    def terms(self) -> tuple[int, int, int, int, int, int, int, int]:
        """(cxn, cxd, cyn, cyd, rn, rd, r2n, r2d): the lowest terms of an exact
        disc's centre, r and r2, the operands of its exact kernel, read from
        the fields; r2 = rn^2/rd^2 is in lowest terms as r is
        (docs/derivations.md, "Exact kernel")."""
        rn, rd = self.r.as_integer_ratio()
        if isinstance(self, TangentDisc):  # the centre is (a, r)
            centre = (*self.a.as_integer_ratio(), rn, rd)
        else:
            centre = (*self.cx.as_integer_ratio(), *self.cy.as_integer_ratio())
        return (*centre, rn, rd, rn * rn, rd * rd)

    @cached_property
    def binary64(self) -> tuple[float, float, float]:
        """The centre and r2 in binary64: the operands that mixed Fraction/float
        arithmetic converts to on every operation (docs/derivations.md,
        "Exact kernel")."""
        c = self.center
        return as_float(c.x), as_float(c.y), as_float(self.r2)

    @cached_property
    def binary64_r(self) -> float:
        """The radius in binary64, the operand of the values' binary64 path."""
        return as_float(self.r)

    def binary64_terms(self, x: Scalar, y: Scalar) -> tuple[float, float]:
        """The squared distance from (x, y) to the centre, and r2, in binary64."""
        cx, cy, r2 = self.binary64
        dx, dy = float(x) - cx, float(y) - cy
        return dx * dx + dy * dy, r2

    def exact_d2(self, xn: int, xd: int, yn: int, yd: int) -> tuple[int, int] | None:
        """``disc_terms`` of an exact disc at the exact point (xn/xd, yn/yd),
        xd, yd > 0, from the disc's ``terms``."""
        cxn, cxd, cyn, cyd, _, _, r2n, r2d = self.terms
        if not yn:  # on the axis only a tangent disc's tangency point, where d2 = r2
            tangency = isinstance(self, TangentDisc) and xn * cxd == cxn * xd
            return (r2n, r2d) if tangency else None
        # d2 < r2 cross-multiplied over positive denominators; no quotient
        num, den = sq_dist_of(xn, xd, yn, yd, cxn, cxd, cyn, cyd)
        return (num, den) if num * r2d < r2n * den else None

    def binary64_d2(self, x: Scalar, y: Scalar) -> float | None:
        """``disc_terms`` at the point (x, y) in binary64: the disc's
        ``binary64`` view, EPS in the comparisons."""
        tangency = is_zero(y)
        if tangency and not (isinstance(self, TangentDisc) and eq(x, self.a)):
            return None
        d2, r2 = self.binary64_terms(x, y)
        return d2 if tangency or lt(d2, r2) else None

    def terms_at(self, x: Scalar, y: Scalar) -> tuple[int, int] | float | None:
        """``disc_terms`` at the point (x, y), both coordinates in one mode."""
        if type(self.r) is Fraction and type(x) is Fraction:
            return self.exact_d2(*x.as_integer_ratio(), *y.as_integer_ratio())
        return self.binary64_d2(x, y)


@dataclass(frozen=True)
class InteriorDisc(_Disc):
    """Open Euclidean disc B((cx, cy), r), disjoint from the axis: r <= cy."""

    cx: Scalar
    cy: Scalar
    r: Scalar

    space = Space.NIEMYTZKI
    kind = "interior_disc"

    def __post_init__(self):
        cx, cy, r = as_scalar(self.cx), as_scalar(self.cy), as_scalar(self.r)
        check_same_mode(cx, cy, r)
        if not lt(0, r) or not le(r, cy) or not le(r, 1):
            raise ValueError(f"need 0 < r <= cy and r <= 1, got cy={cy}, r={r}")
        object.__setattr__(self, "cx", cx)
        object.__setattr__(self, "cy", cy)
        object.__setattr__(self, "r", r)

    @cached_property
    def center(self) -> NiemytzkiPoint:
        return NiemytzkiPoint(self.cx, self.cy)

    @property
    def axis_tangent(self) -> bool:
        """True when the open disc touches the axis (r = cy)."""
        return eq(self.r, self.cy)


@dataclass(frozen=True)
class TangentDisc(_Disc):
    """Axis neighborhood {(a, 0)} union B((a, r), r)."""

    a: Scalar
    r: Scalar

    space = Space.NIEMYTZKI
    kind = "tangent_disc"

    def __post_init__(self):
        a, r = as_scalar(self.a), as_scalar(self.r)
        check_same_mode(a, r)
        if not lt(0, r) or not le(r, 1):
            raise ValueError(f"need 0 < r <= 1, got r={r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "r", r)

    @cached_property
    def center(self) -> NiemytzkiPoint:
        return NiemytzkiPoint(self.a, self.r)

    @property
    def axis_point(self) -> NiemytzkiPoint:
        return NiemytzkiPoint(self.a, self.a * 0)


BasicOpenSet = (
    HalfOpen | OpenInterval | ClopenInterval | ExtremeSingleton | InteriorDisc | TangentDisc
)


def _check_point(s: BasicOpenSet, p: Point) -> None:
    if s.space is not p.space:
        raise SpaceMismatchError(f"set in {s.space}, point in {p.space}")


def disc_terms(
    s: InteriorDisc | TangentDisc, p: NiemytzkiPoint
) -> tuple[int, int] | float | None:
    """The squared distance from p to the centre of disc s when p lies in s,
    else None: an unreduced pair (numerator, denominator) of integers when s
    and p are exact (``spaces.sq_dist_of``), else binary64.

    The one membership rule for discs: an open disc never meets the axis, a
    tangent disc adds its tangency point, and any other point is inside when
    it is strictly closer to the centre than r.
    """
    _check_point(s, p)
    return s.terms_at(p.x, p.y)


def basic_member(s: BasicOpenSet, p: Point) -> bool:
    """Exact membership of a point in a base element."""
    if isinstance(s, (InteriorDisc, TangentDisc)):
        return disc_terms(s, p) is not None
    _check_point(s, p)
    if isinstance(s, HalfOpen):
        xn, xd = p.x.as_integer_ratio()
        an, ad, bn, bd = s.terms
        return an * xd <= xn * ad and xn * bd < bn * xd
    if isinstance(s, OpenInterval):
        return lt(s.a, p.x) and lt(p.x, s.b)
    if isinstance(s, ClopenInterval):
        # (a, 1) <= (t, side) <= (b, 0) lexicographically, on the signs of
        # t - a and b - t cross-multiplied (docs/derivations.md, "Double arrow space")
        tn, td = p.t.as_integer_ratio()
        an, ad, bn, bd = s.terms
        left, right = tn * ad - an * td, bn * td - tn * bd
        if (left > 0 or left == 0 and p.side == 1) and (right > 0 or right == 0 and p.side == 0):
            return True
        # a < b keeps (0, 0) and (1, 1) out of the order interval
        if p.side == 0:
            return s.include_left_extreme and tn == 0
        return s.include_right_extreme and tn == td
    if isinstance(s, ExtremeSingleton):
        return p.side == s.side and p.extreme
    raise TypeError(f"unknown base set {s!r}")


def basic_closure_member(s: BasicOpenSet, p: Point) -> bool:
    """Membership in the closure of a base element, in its own topology."""
    _check_point(s, p)
    if isinstance(s, (HalfOpen, OpenInterval)):
        # cl [a, b) = cl (a, b) = [a, b): every [a, a+d) meets (a, b), so the
        # left endpoint is adherent; no [b, b+d) does, so the right one is not.
        return le(s.a, p.x) and lt(p.x, s.b)
    if isinstance(s, (ClopenInterval, ExtremeSingleton)):
        return basic_member(s, p)
    if isinstance(s, (InteriorDisc, TangentDisc)):
        if type(s.r) is Fraction and type(p.x) is Fraction:
            cxn, cxd, cyn, cyd, _, _, r2n, r2d = s.terms
            xn, xd = p.x.as_integer_ratio()
            yn, yd = p.y.as_integer_ratio()
            num, den = sq_dist_of(xn, xd, yn, yd, cxn, cxd, cyn, cyd)
            return num * r2d <= r2n * den
        return le(*s.binary64_terms(p.x, p.y))
    raise TypeError(f"unknown base set {s!r}")


def basic_neighborhood(p: Point, k: int) -> BasicOpenSet:
    """The k-th canonical shrinking basic neighborhood of a point (k >= 1)."""
    if isinstance(p, SorgenfreyPoint):
        return HalfOpen(p.x, p.x + Fraction(1, 2**k))
    if isinstance(p, DoubleArrowPoint):
        zero, one = Fraction(0), Fraction(1)
        if p.t == 0 and p.side == 0:
            return ExtremeSingleton(0)
        if p.t == 1 and p.side == 1:
            return ExtremeSingleton(1)
        step = Fraction(1, 2**k)
        if p.side == 0:
            return ClopenInterval(max(zero, p.t - min(step, p.t / 2)), p.t)
        return ClopenInterval(p.t, min(one, p.t + min(step, (1 - p.t) / 2)))
    if isinstance(p, NiemytzkiPoint):
        if p.on_axis:
            return TangentDisc(p.x, _shrink(p, k, None))
        return InteriorDisc(p.x, p.y, _shrink(p, k, p.y))
    raise TypeError(f"unknown point {p!r}")


def _shrink(p: NiemytzkiPoint, k: int, cap: Scalar | None) -> Scalar:
    step: Scalar
    if isinstance(p.x, Fraction):
        step = Fraction(1, 2**k)
    else:
        step = 2.0**-k
    if cap is not None and not le(step, cap):
        return cap / 2**k if isinstance(cap, Fraction) else cap * 2.0**-k
    return step

