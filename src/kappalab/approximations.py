"""Dyadic q-indexed open families and the two transforms.

An approximation assigns to each index set U a family q -> U_q of open sets
over the dyadic grid {k/2^m : 0 < k < 2^m}, the finite stand-in for the
rationals of (0, 1).  The two directions:

* from a function family: U_q = {p : f_U(p) > q}.  For the named families on
  base sets these superlevel sets have closed forms -- Sorgenfrey components
  shrink on the right to [a, b-q), double arrow components survive whole or
  drop out, interior discs shrink concentrically to radius r-q, and tangent
  discs shrink to an exactly decidable lens (rational inequality
  r^2 (x-a)^2 < (r-q)^2 (2yr - y^2) below the diameter).
* back to a function family: the reconstructed value at p is the smallest
  grid q with p outside U_q (1 when no such q, 0 when p is in no U_q).  On a
  dense index set both readings of the supremum agree; on the finite grid
  this one is exact at grid values and at 0/1, and within one grid step
  everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple, Optional

from .basesets import ClopenInterval, ExtremeSingleton, HalfOpen, InteriorDisc, basic_closure_member, basic_member
from .families import CLOSED_FORM, Stratification, user_supplied
from .numerics import Scalar, eq, le, lt, sq
from .rosets import _FLAG_NAMES, RegularOpenSet
from .spaces import NiemytzkiPoint, Point, Space, sq_dist


@dataclass(frozen=True)
class QGrid:
    """All dyadic rationals k/2^depth strictly inside (0, 1)."""

    depth: int = 10

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("grid depth must be positive")

    @property
    def step(self) -> Fraction:
        return Fraction(1, 2**self.depth)

    def value(self, k: int) -> Fraction:
        """The k-th grid value in increasing order, (k + 1)/2^depth for
        0 <= k < 2^depth - 1."""
        return Fraction(k + 1, 2**self.depth)


@dataclass(frozen=True)
class TangentLens:
    """Superlevel set {f > q} of a tangent-disc value function, q < r.

    Membership and closure membership are exact rational predicates: below
    the horizontal diameter the defining inequality clears to
    r^2 (x-a)^2 <> (r-q)^2 (2yr - y^2).
    """

    a: Scalar
    r: Scalar
    q: Scalar

    space = Space.NIEMYTZKI

    def __post_init__(self):
        if not lt(self.q, self.r):
            raise ValueError("lens requires q < r")

    def _inside(self, p: NiemytzkiPoint, cmp) -> bool:
        """The lens inequality at p, strict (``lt``) or closed (``le``)."""
        if p.on_axis:
            return eq(p.x, self.a)
        gap = self.r - self.q
        if le(self.r, p.y):
            return cmp(sq_dist(p, NiemytzkiPoint(self.a, self.r)), sq(gap))
        return cmp(
            sq(self.r) * sq(p.x - self.a), sq(gap) * (2 * p.y * self.r - sq(p.y))
        )

    def member(self, p: NiemytzkiPoint) -> bool:
        return self._inside(p, lt)

    def closure_member(self, p: NiemytzkiPoint) -> bool:
        return self._inside(p, le)


class RealizedSet(NamedTuple):
    """A superlevel set with decidable membership and closure membership."""

    member: Callable[[Point], bool]
    closure_member: Callable[[Point], bool]


def _base_piece(s) -> RealizedSet:
    return RealizedSet(partial(basic_member, s), partial(basic_closure_member, s))


def _component_sublevel(c, q: Fraction) -> list[RealizedSet]:
    """{f > q} on one component c of a set, for a family whose value on c
    reads c alone, as the pieces whose union it is."""
    if isinstance(c, HalfOpen):
        return [_base_piece(HalfOpen(c.a, c.b - q))] if lt(c.a, c.b - q) else []
    if isinstance(c, ExtremeSingleton) or isinstance(c, ClopenInterval) and lt(q, c.length):
        return [_base_piece(c)]
    if isinstance(c, ClopenInterval):  # too short: only its isolated extremes, which score 1
        return [_base_piece(ExtremeSingleton(side)) for side, name in enumerate(_FLAG_NAMES) if getattr(c, name)]
    if not lt(q, c.r):
        return []
    if isinstance(c, InteriorDisc):
        return [_base_piece(InteriorDisc(c.cx, c.cy, c.r - q))]
    lens = TangentLens(c.a, c.r, q)
    return [RealizedSet(lens.member, lens.closure_member)]


def realize_sublevel(family_label: str, U: RegularOpenSet, q: Fraction) -> Optional[RealizedSet]:
    """Closed-form superlevel set {f_U > q}, 0 < q < 1, for a named family.

    Where the value at a point of U is that of the component holding it
    (docs/derivations.md, "Superlevel sets"), {f_U > q} is the union of the
    components' superlevel sets, and its closure the union of their closures.
    Returns None when no closed form is available (overlapping Niemytzki
    unions, the g family, user-supplied families); callers fall back to
    sampled closures.
    """
    if family_label not in CLOSED_FORM or U.space is Space.NIEMYTZKI and not U.separated:
        return None
    pieces = [piece for c in U.components for piece in _component_sublevel(c, q)]
    return RealizedSet(lambda p: any(s.member(p) for s in pieces), lambda p: any(s.closure_member(p) for s in pieces))


@dataclass(frozen=True)
class Approximation:
    """A q-indexed open family per index set.

    ``contains(U, q, p)`` is the membership predicate of U_q;
    ``realize(U, q)`` returns the closed-form superlevel set when one exists.
    """

    space: Space
    grid: QGrid
    contains: Callable[[RegularOpenSet, Fraction, Point], bool]
    realize: Callable[[RegularOpenSet, Fraction], Optional[RealizedSet]]


def stratification_to_approximation(S: Stratification, grid: QGrid) -> Approximation:
    """U_q = {p : f_U(p) > q}: always an approximation when f is a family.

    The checks ask about one set at many grid values and points in a row, so
    ``contains`` keeps the last set's f_U bound (a one-slot memo on the set's
    identity) and binds again only when the set changes."""
    last = [None, None]  # the last set and its f_U

    def contains(U: RegularOpenSet, q: Fraction, p: Point) -> bool:
        if U is not last[0]:
            last[:] = U, S.at(U)
        return lt(q, last[1](p))

    def realize(U: RegularOpenSet, q: Fraction) -> Optional[RealizedSet]:
        return realize_sublevel(S.label, U, q)

    return Approximation(S.space, grid, contains, realize)


def approximation_to_stratification(A: Approximation, grid: QGrid) -> Stratification:
    """Reconstruct a function family from a q-indexed one.

    The value at p is the smallest grid q outside whose U_q the point falls
    (equivalently one grid step above the largest q still containing p): 0
    when no U_q contains p, 1 when all do.  Exact whenever the underlying
    value is a grid value or 0/1; within one grid step otherwise.  Condition
    (c) makes U_q decrease in q, so a binary search finds that q.
    """
    size = 2**grid.depth - 1  # grid values, read by index: O(depth) per point

    def evaluate(U: RegularOpenSet, p: Point) -> Fraction:
        lo, hi = 0, size  # values 0..lo-1 contain p, values hi.. do not
        while lo < hi:
            mid = (lo + hi) // 2
            if A.contains(U, grid.value(mid), p):
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return Fraction(0)
        return grid.value(lo) if lo < size else Fraction(1)

    return user_supplied(A.space, evaluate)
