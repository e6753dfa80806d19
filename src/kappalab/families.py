"""The explicit function families keyed by regular open sets.

Values always live in [0, 1] and vanish exactly off the indexing set:

* Sorgenfrey: on a component [a, b) of U the value at x is the largest
  one-capped right gap min(b, x+1) - x, i.e. sup{q - x : [x, q) inside
  U intersected with [x, x+1)}.
* Double arrow: the length b - a of the maximal clopen component
  [(a,1), (b,0)] through the point; the isolated extremes score 1.
* Niemytzki interior disc B((a,b), r): the distance r - d((x,y), (a,b)) to
  the complement of the disc.
* Niemytzki tangent disc B*(a, r): r at the tangency point; the disc formula
  above the horizontal diameter (y >= r); below it (0 < y < r) the chordal
  ratio r - r|x - a| / sqrt(2yr - y^2), which is r on the vertical axis of
  the disc and 0 on its boundary.
* The rescaled tangent-disc family g: the same chordal factor times
  ((r-1)y + r) / r^2, normalized so that every tangency point scores 1
  instead of r.

For a validated finite union V the value is the supremum of the base-set
values over base sets inscribed in V.  It has a closed form
(docs/derivations.md, "Union suprema"): the larger of D(p) = min(dist(p, F), 1),
where F is the complement of the union of V's open Euclidean discs, and the
values at p of the largest tangent discs B*(a, rho_max(a)) inscribed at V's
tangency points.  Unions with one component or pairwise separated ones keep
the exact component maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .basesets import (
    BasicOpenSet,
    ExtremeSingleton,
    InteriorDisc,
    TangentDisc,
    basic_member,
    disc_terms,
)
from .numerics import Scalar, as_float, is_zero, le, lt, sq, sqrt_scalar, sqrt_terms
from .rosets import RegularOpenSet, _norm, basic_subset, member, tangent_radius
from .spaces import (
    DoubleArrowPoint,
    NiemytzkiPoint,
    Point,
    SorgenfreyPoint,
    Space,
    SpaceMismatchError,
    sq_dist,
)

class UnindexedSetError(TypeError, ValueError):
    """A family was given a set it is not keyed by."""


_ZERO, _ONE = Fraction(0), Fraction(1)


# ---------------------------------------------------------------------------
# Sorgenfrey


def sorgenfrey_f(U: RegularOpenSet, x: SorgenfreyPoint) -> Fraction:
    """Largest right gap of x inside U, capped at 1; exact rational."""
    if U.space is not Space.SORGENFREY:
        raise SpaceMismatchError("sorgenfrey_f needs a Sorgenfrey set")
    xn, xd = x.x.as_integer_ratio()
    for c in U.components:
        an, ad = c.a.as_integer_ratio()
        bn, bd = c.b.as_integer_ratio()
        # a <= x < b cross-multiplied; then min(b, x + 1) - x = min(b - x, 1)
        if an * xd <= xn * ad and xn * bd < bn * xd:
            num, den = bn * xd - xn * bd, bd * xd
            return _ONE if num >= den else Fraction(num, den)
    return _ZERO


# ---------------------------------------------------------------------------
# double arrow


def doublearrow_f(U: RegularOpenSet, p: DoubleArrowPoint) -> Fraction:
    """Length of the maximal clopen component through p; 1 at kept extremes."""
    if U.space is not Space.DOUBLE_ARROW:
        raise SpaceMismatchError("doublearrow_f needs a double arrow set")
    for c in U.components:
        if not basic_member(c, p):
            continue
        if p.extreme or isinstance(c, ExtremeSingleton):
            return _ONE
        return c.length
    return _ZERO


# ---------------------------------------------------------------------------
# Niemytzki base formulas


def _chord_factor(a: Fraction, r: Fraction, x: Fraction, y: Fraction) -> Scalar:
    """r - r|x - a| / sqrt(2yr - y^2), the below-diameter tangent-disc value,
    from the integer terms of exact a, r, x and y; r itself on the vertical
    axis x = a (docs/derivations.md, "Exact kernel")."""
    an, ad = a.as_integer_ratio()
    rn, rd = r.as_integer_ratio()
    xn, xd = x.as_integer_ratio()
    yn, yd = y.as_integer_ratio()
    dxn, dxd = abs(xn * ad - an * xd), xd * ad
    if not dxn:
        return r
    # 2yr - y^2 = yn (2 rn yd - yn rd) / (yd^2 rd)
    root = sqrt_terms(yn * (2 * rn * yd - yn * rd), yd * yd * rd)
    if type(root) is float:
        # float(r) - float(r dx) / root, each conversion an int true division
        return rn / rd - rn * dxn / (rd * dxd) / root
    return r - r * Fraction(dxn, dxd) / root


def _zero(like: Scalar) -> Scalar:
    """0 in the numeric mode of ``like``."""
    return _ZERO if isinstance(like, Fraction) else 0.0


def _disc_value(
    U: InteriorDisc | TangentDisc, p: NiemytzkiPoint, d2: tuple[int, int] | float
) -> Scalar:
    """The base-set value at a point p of U, given ``d2 = disc_terms(U, p)``:
    from integer terms when U and p are exact, else from U's binary64 view.
    The exact U.r is returned at the tangency point and, below the diameter,
    on the vertical axis."""
    tangent = isinstance(U, TangentDisc)
    if tangent and p.on_axis:
        return U.r
    if type(d2) is tuple:
        if tangent and lt(p.y, U.r):
            return _chord_factor(U.a, U.r, p.x, p.y)
        root = sqrt_terms(*d2)
        return U.binary64_r - root if type(root) is float else U.r - root
    r = U.binary64_r
    if tangent and not le(r, p.y):
        dx = abs(p.x - U.binary64[0])  # a tangent disc's centre is (a, r)
        return U.r if is_zero(dx) else r - r * dx / sqrt_scalar(2 * p.y * r - sq(p.y))
    return r - sqrt_scalar(d2)


def niemytzki_basic_f(U: BasicOpenSet, p: NiemytzkiPoint) -> Scalar:
    """The base-set family value at p; exact whenever no square root appears."""
    if U.space is not Space.NIEMYTZKI:
        raise SpaceMismatchError("niemytzki_basic_f needs a Niemytzki base set")
    if not isinstance(U, (InteriorDisc, TangentDisc)):
        raise TypeError(f"{U!r} is not a Niemytzki base set")
    d2 = disc_terms(U, p)
    return _zero(U.r) if d2 is None else _disc_value(U, p, d2)


def g_family(U: TangentDisc, p: NiemytzkiPoint) -> Scalar:
    """Axis-normalized tangent-disc family: scores 1 at the tangency point."""
    if not isinstance(U, TangentDisc):
        raise TypeError("the g family is indexed by tangent discs only")
    d2 = disc_terms(U, p)
    if d2 is None:
        return _zero(U.r)
    if p.on_axis:
        return _ONE if isinstance(U.r, Fraction) else 1.0
    value = _disc_value(U, p, d2)
    if le(U.r, p.y):
        return value
    return value * (((U.r - 1) * p.y + U.r) / U.r2)


# ---------------------------------------------------------------------------
# the complement of a finite union of discs, in binary64


def _complement_distance(V: RegularOpenSet, x: float, y: float) -> float:
    """Euclidean distance from (x, y) to F, the complement of the union of V's
    open discs; 0 off the discs.

    Closed form (docs/derivations.md, "Union suprema"): the minimum of (i) the
    height above the axis, which lies in F, (ii) the distances |R_i - d_i| to
    the circles whose nearest point to (x, y) no other disc covers, and (iii)
    the distances to the uncovered crossing vertices.
    """
    circles = V.circles
    dists = [_norm(x - cx, y - cy) for cx, cy, _ in circles]
    if not any(d < r for d, (_, _, r) in zip(dists, circles)):
        return 0.0
    best = y
    for i, ((cx, cy, r), d) in enumerate(zip(circles, dists)):
        ux, uy = ((x - cx) / d, (y - cy) / d) if d else (0.0, 1.0)
        nx, ny = cx + r * ux, cy + r * uy
        if not any(
            j != i and _norm(nx - ox, ny - oy) < orad
            for j, (ox, oy, orad) in enumerate(circles)
        ):
            best = min(best, abs(r - d))
    for vx, vy in V.corners:
        best = min(best, _norm(x - vx, y - vy))
    return best


def pairwise_separated(V: RegularOpenSet) -> bool:
    """True when the closed hulls of V's components are pairwise disjoint.

    Any base set is connected, so a base set inscribed in a union of
    separated components lies inside one component and the union supremum is
    the exact component maximum.
    """
    return V.separated


def disc_in_union(candidate: BasicOpenSet, V: RegularOpenSet) -> bool:
    """Whether the base disc ``candidate`` lies inside the union V.

    A candidate inside one component is decided by the exact disc-in-disc
    inequality, and so is every candidate when V has one component or
    separated ones, since a base set is connected.  Otherwise an interior disc
    B(c, r) fits when c lies in V and r <= dist(c, F), the closed-form
    complement distance in binary64; a tangent disc B*(a, rho) fits when
    (a, 0) lies in V and rho <= rho_max(a), exactly on rational input
    (docs/derivations.md, "Union suprema").
    """
    if candidate.space is not Space.NIEMYTZKI or V.space is not Space.NIEMYTZKI:
        raise SpaceMismatchError("disc containment is a Niemytzki operation")
    if not isinstance(candidate, (InteriorDisc, TangentDisc)):
        raise TypeError(f"{candidate!r} is not a Niemytzki base set")
    if any(basic_subset(candidate, c) for c in V.components):
        return True
    if pairwise_separated(V):  # also true for one component
        return False
    if isinstance(candidate, TangentDisc):
        return member(V, candidate.axis_point) and le(candidate.r, tangent_radius(V, candidate.a))
    c = candidate.center
    return member(V, c) and le(candidate.r, _complement_distance(V, float(c.x), float(c.y)))


# ---------------------------------------------------------------------------
# supremum over inscribed base sets


def niemytzki_union_f(V: RegularOpenSet, p: NiemytzkiPoint) -> Scalar:
    """Supremum of the base-set values over base sets inscribed in V.

    Exact (the component formula) when V has one component or its components
    are pairwise separated.  Otherwise the closed form of docs/derivations.md,
    "Union suprema", in binary64: the larger of D(p) = min(dist(p, F), 1), the
    value of the largest interior disc centred at p, and the values at p of the
    largest inscribed tangent discs B*(a, rho_max(a)) at V's tangency points a.
    """
    if V.space is not Space.NIEMYTZKI:
        raise SpaceMismatchError("niemytzki_union_f needs a Niemytzki set")
    d2s = [disc_terms(c, p) for c in V.components]
    if all(d2 is None for d2 in d2s):  # p lies outside V
        return _zero(p.x)
    if len(V.components) == 1 or pairwise_separated(V):
        values = [
            _zero(c.r) if d2 is None else _disc_value(c, p, d2)
            for c, d2 in zip(V.components, d2s)
        ]
        return max(values, key=as_float)
    best = min(_complement_distance(V, float(p.x), float(p.y)), 1.0)
    for tangent in V.inscribed_tangent_discs:
        best = max(best, float(niemytzki_basic_f(tangent, p)))
    return best


# ---------------------------------------------------------------------------
# stratifications as first-class values


LABEL_SORGENFREY = "sorgenfrey_kappa"
LABEL_DOUBLE_ARROW = "double_arrow_ro"
LABEL_NIEMYTZKI = "niemytzki_kappa"
LABEL_G = "g_family"
LABEL_USER = "user_supplied"
#: the families whose superlevel sets and chain limits have closed forms
CLOSED_FORM = (LABEL_SORGENFREY, LABEL_DOUBLE_ARROW, LABEL_NIEMYTZKI)


@dataclass(frozen=True)
class Stratification:
    """A function family keyed by regular open sets: a label and its evaluator."""

    space: Space
    label: str
    evaluator: Callable[[RegularOpenSet, Point], Scalar]

    def __post_init__(self):
        if self.label not in FAMILIES and self.label != LABEL_USER:
            raise ValueError(f"unknown family label {self.label!r}")

    def value(self, U: RegularOpenSet, p: Point) -> Scalar:
        if U.space is not self.space or p.space is not self.space:
            raise SpaceMismatchError("family, set and point must share a space")
        return self.evaluator(U, p)


def _niemytzki_value(U: RegularOpenSet, p: NiemytzkiPoint) -> Scalar:
    """The kappa value: the base-set formula on one component, else the
    union supremum."""
    if len(U.components) == 1:
        return niemytzki_basic_f(U.components[0], p)
    return niemytzki_union_f(U, p)


def _g_value(U: RegularOpenSet, p: NiemytzkiPoint) -> Scalar:
    """The g family on the sets it is keyed by, single tangent discs."""
    if len(U.components) != 1 or not isinstance(U.components[0], TangentDisc):
        raise UnindexedSetError("the g family is indexed by single tangent discs")
    return g_family(U.components[0], p)


def sorgenfrey_kappa() -> Stratification:
    return Stratification(Space.SORGENFREY, LABEL_SORGENFREY, sorgenfrey_f)


def double_arrow_ro() -> Stratification:
    return Stratification(Space.DOUBLE_ARROW, LABEL_DOUBLE_ARROW, doublearrow_f)


def niemytzki_kappa() -> Stratification:
    return Stratification(Space.NIEMYTZKI, LABEL_NIEMYTZKI, _niemytzki_value)


def g_stratification() -> Stratification:
    return Stratification(Space.NIEMYTZKI, LABEL_G, _g_value)


#: The named families by label.  Each space's first entry is its kappa
#: family; user-supplied families bring their own evaluator.
FAMILIES: dict[str, Callable[[], Stratification]] = {
    LABEL_SORGENFREY: sorgenfrey_kappa,
    LABEL_DOUBLE_ARROW: double_arrow_ro,
    LABEL_NIEMYTZKI: niemytzki_kappa,
    LABEL_G: g_stratification,
}


def user_supplied(space: Space, evaluator) -> Stratification:
    return Stratification(space, LABEL_USER, evaluator)


def tabulated_evaluator(table: dict) -> Callable[[RegularOpenSet, Point], Scalar]:
    """Nearest-sample evaluator for a tabulated family.

    ``table`` maps a set key (the set object itself) to a list of
    (point, value) pairs; evaluation returns the value at the nearest
    tabulated point (ties resolved by table order).
    """

    def nearest(U: RegularOpenSet, p: Point) -> Scalar:
        samples = table.get(U)
        if not samples:
            raise KeyError(f"no tabulated samples for {U!r}")
        best_d, best_v = None, None
        for q, v in samples:
            d = _point_gap(p, q)
            if best_d is None or d < best_d:
                best_d, best_v = d, v
        return best_v

    return nearest


def _point_gap(p: Point, q: Point):
    if isinstance(p, SorgenfreyPoint):
        return abs(p.x - q.x)
    if isinstance(p, DoubleArrowPoint):
        return (abs(p.t - q.t), abs(p.side - q.side))
    return sq_dist(p, q)
