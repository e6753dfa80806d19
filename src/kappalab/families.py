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
tangency points.  A union of separated components takes the value of the
one component holding the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, sqrt
from typing import Callable

from .basesets import (
    BasicOpenSet,
    ExtremeSingleton,
    InteriorDisc,
    TangentDisc,
    basic_member,
)
from .numerics import Scalar, is_zero, le, sqrt_scalar, sqrt_terms
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
#: the Sorgenfrey gap at its cap, min(b - x, 1) = 1
_UNIT = (1, 1)

#: f_U as a point function, every per-set invariant of U resolved.  A named
#: family's f_U carries its formula as ``f_U.kernel``, a function of the
#: point's coordinates: the integer terms (xn, xd) of a Sorgenfrey x, or the
#: Niemytzki (x, y) in one mode (docs/derivations.md, "Lattice kernel").
FamilyMember = Callable[[Point], Scalar]
#: a Niemytzki formula: the value at the coordinates (x, y), both in one mode
Kernel = Callable[[Scalar, Scalar], Scalar]
#: A named kernel's staged form (docs/derivations.md, "Separable terms") is
#: ``kernel.lattice(xs, ys, xterms, yterms)``, for a lattice's axes as
#: coordinates in one mode and as integer terms (nums, den); a Sorgenfrey
#: lattice is the one row ys = [None], yterms = None.  It does the work of
#: each column once and returns ``values(k, j, lo, hi)``: the kernel's
#: values at the columns lo..hi-1 of row j, a run inside U's k-th component,
#: doing the work of the row once and no membership test.
RunValues = Callable[[int, int, int, int], list]


def _mismatch(space: Space, p: Point) -> SpaceMismatchError:
    return SpaceMismatchError(f"a {space.value} member evaluated at a {p.space.value} point")


def _niemytzki_member(kernel: Kernel) -> FamilyMember:
    """f_U: the point's space check, then ``kernel`` at its coordinates."""
    space = Space.NIEMYTZKI

    def f_U(p: NiemytzkiPoint) -> Scalar:
        if p.space is not space:
            raise _mismatch(space, p)
        return kernel(p.x, p.y)

    f_U.kernel = kernel
    return f_U


# ---------------------------------------------------------------------------
# Sorgenfrey


def _bind_sorgenfrey(U: RegularOpenSet) -> FamilyMember:
    """f_U(x): the largest right gap of x inside U, capped at 1; exact rational."""
    space, terms = Space.SORGENFREY, [c.terms for c in U.components]

    def gap(xn: int, xd: int) -> tuple[int, int] | None:
        """min(b - x, 1) at x = xn/xd, xd > 0 in any terms, as an unreduced
        pair (numerator, denominator > 0); None off U."""
        for an, ad, bn, bd in terms:
            # a <= x < b cross-multiplied; then min(b, x + 1) - x = min(b - x, 1)
            if an * xd <= xn * ad and xn * bd < bn * xd:
                num, den = bn * xd - xn * bd, bd * xd
                return (num, den) if num < den else _UNIT
        return None

    def lattice(xs: list, ys: list, xterms: tuple, yterms: None) -> RunValues:
        """The gaps in binary64 at the points nums[i] / den of ``xterms``, on
        a run inside U's k-th component [a, b): the int true division of
        b - x's pair, 1.0 at the cap."""
        nums, den = xterms

        def values(k: int, j: int, lo: int, hi: int) -> list:
            _, _, bn, bd = terms[k]
            top, under = bn * den, bd * den
            return [1.0 if g >= under else g / under for g in [top - num * bd for num in nums[lo:hi]]]

        return values

    def f_U(x: SorgenfreyPoint) -> Fraction:
        if x.space is not space:
            raise _mismatch(space, x)
        value = gap(*x.x.as_integer_ratio())
        if value is None:
            return _ZERO
        return _ONE if value is _UNIT else Fraction(*value)

    gap.lattice = lattice
    f_U.kernel = gap
    return f_U


def sorgenfrey_f(U: RegularOpenSet, x: SorgenfreyPoint) -> Fraction:
    """Largest right gap of x inside U, capped at 1; exact rational."""
    if U.space is not Space.SORGENFREY:
        raise SpaceMismatchError("sorgenfrey_f needs a Sorgenfrey set")
    return _bind_sorgenfrey(U)(x)


# ---------------------------------------------------------------------------
# double arrow


def _bind_double_arrow(U: RegularOpenSet) -> FamilyMember:
    """f_U(p): the length of the maximal clopen component through p; 1 at kept
    extremes."""
    space, components = Space.DOUBLE_ARROW, U.components

    def f_U(p: DoubleArrowPoint) -> Fraction:
        if p.space is not space:
            raise _mismatch(space, p)
        for c in components:
            if not basic_member(c, p):
                continue
            if p.extreme or isinstance(c, ExtremeSingleton):
                return _ONE
            return c.length
        return _ZERO

    return f_U


def doublearrow_f(U: RegularOpenSet, p: DoubleArrowPoint) -> Fraction:
    """Length of the maximal clopen component through p; 1 at kept extremes."""
    if U.space is not Space.DOUBLE_ARROW:
        raise SpaceMismatchError("doublearrow_f needs a double arrow set")
    return _bind_double_arrow(U)(p)


# ---------------------------------------------------------------------------
# Niemytzki base formulas


def _chord_root(rn: int, rd: int, yn: int, yd: int) -> Scalar:
    """sqrt(2yr - y^2) for r = rn/rd and y = yn/yd, in any terms."""
    # 2yr - y^2 = yn (2 rn yd - yn rd) / (yd^2 rd)
    return sqrt_terms(yn * (2 * rn * yd - yn * rd), yd * yd * rd)


def _chord_value(r: Fraction, rn: int, rd: int, dxn: int, dxd: int, yn: int, yd: int) -> Scalar:
    """r - r|x - a| / sqrt(2yr - y^2), the below-diameter tangent-disc value,
    for r = rn/rd, y = yn/yd and |x - a| = dxn/dxd > 0 (docs/derivations.md,
    "Exact kernel")."""
    root = _chord_root(rn, rd, yn, yd)
    if type(root) is float:
        # float(r) - float(r dx) / root, each conversion an int true division
        return rn / rd - rn * dxn / (rd * dxd) / root
    return r - r * Fraction(dxn, dxd) / root


def _zero(like: Scalar) -> Scalar:
    """0 in the numeric mode of ``like``."""
    return _ZERO if isinstance(like, Fraction) else 0.0


def _disc_kernel(U: InteriorDisc | TangentDisc, outside: Scalar | None) -> Kernel:
    """The base-set value at (x, y), and ``outside`` off U: from integer terms
    when U and the point are exact, else from U's binary64 view.  The exact
    U.r is returned at the tangency point and, below the diameter, on the
    vertical axis.  ``value.lattice`` is the same formula staged by column
    and row; the point form stays the reference it is tested against, since
    the harness evaluates one point at a time."""
    r = U.r
    tangent = isinstance(U, TangentDisc)
    exact = type(r) is Fraction
    if exact:
        cxn, cxd, cyn, cyd, rn, rd, _, _ = U.terms  # a tangent disc's centre is (a, r)
    exact_d2, binary64_d2 = U.exact_d2, U.binary64_d2

    def binary64_chord_root(y: Scalar) -> float:
        """sqrt(2yr - y^2) through U's binary64 view, y in its own mode."""
        r64 = U.binary64_r
        return sqrt_scalar(2 * y * r64 - y * y)

    def value(x: Scalar, y: Scalar) -> Scalar:
        if exact and type(x) is Fraction:
            xn, xd = x.as_integer_ratio()
            yn, yd = y.as_integer_ratio()
            d2 = exact_d2(xn, xd, yn, yd)
            if d2 is None:
                return outside
            if tangent and not yn:
                return r
            if tangent and yn * rd < rn * yd:  # below the diameter: 0 < y < r
                dxn = abs(xn * cxd - cxn * xd)
                return _chord_value(r, rn, rd, dxn, xd * cxd, yn, yd) if dxn else r
            root = sqrt_terms(*d2)
            return U.binary64_r - root if type(root) is float else r - root
        d2 = binary64_d2(x, y)
        if d2 is None:
            return outside
        r64 = U.binary64_r
        if tangent and is_zero(y):
            return r
        if tangent and not le(r64, y):  # a tangent disc's centre is (a, r)
            dx = abs(float(x) - U.binary64[0])
            return r if is_zero(dx) else r64 - r64 * dx / binary64_chord_root(y)
        return r64 - sqrt_scalar(d2)

    def exact_lattice(xterms: tuple, yterms: tuple) -> RunValues:
        """``value`` on exact coordinates, over the lattice's common
        denominators: d2 = (A_i + B_j) / (bx by)^2 with A_i = (ex_i by)^2 and
        B_j = (ey_j bx)^2, ex and ey the offsets from the centre."""
        (xnums, xden), (ynums, yden) = xterms, yterms
        bx, by = xden * cxd, yden * cyd
        bb = bx * by
        square = bb * bb
        ex = [xn * cxd - cxn * xden for xn in xnums]  # x - cx = ex / bx
        sq_ex = [(e * by) ** 2 for e in ex]
        # float(r |x - a|) per column, for the chord rows of a tangent disc
        r_dx = [rn * abs(e) / (rd * bx) for e in ex] if tangent else None
        r64 = U.binary64_r

        def values(k: int, j: int, lo: int, hi: int) -> list:
            yn = ynums[j]
            if tangent and not yn:
                return [r] * (hi - lo)
            if tangent and yn * rd < rn * yden:  # below the diameter: 0 < y < r
                root = _chord_root(rn, rd, yn, yden)
                if type(root) is float:
                    return [r64 - r_dx[i] / root if ex[i] else r for i in range(lo, hi)]
                return [r - r * Fraction(abs(ex[i]), bx) / root if ex[i] else r for i in range(lo, hi)]
            ey2 = ((yn * cyd - cyn * yden) * bx) ** 2
            out = []
            for a2 in sq_ex[lo:hi]:
                num = a2 + ey2
                q = isqrt(num)  # the denominator is a square: rational iff num is
                out.append(r - Fraction(q, bb) if q * q == num else r64 - sqrt(num / square))
            return out

        return values

    def binary64_lattice(xs: list, ys: list) -> RunValues:
        """``value`` through U's binary64 view, one float(x) - cx per column."""
        cx, cy, _ = U.binary64
        r64 = U.binary64_r
        dxs = [float(x) - cx for x in xs]
        sq_dx = [dx * dx for dx in dxs]
        if tangent:
            on_axis = [is_zero(dx) for dx in dxs]
            r_dx = [r64 * abs(dx) for dx in dxs]

        def values(k: int, j: int, lo: int, hi: int) -> list:
            y = ys[j]
            if tangent and is_zero(y):
                return [r] * (hi - lo)
            if tangent and not le(r64, y):
                root = binary64_chord_root(y)
                return [r if on_axis[i] else r64 - r_dx[i] / root for i in range(lo, hi)]
            dy = float(y) - cy
            dy2 = dy * dy
            return [r64 - sqrt(dx2 + dy2) for dx2 in sq_dx[lo:hi]]

        return values

    def lattice(xs: list, ys: list, xterms: tuple, yterms: tuple) -> RunValues:
        if exact and xs and type(xs[0]) is Fraction:
            return exact_lattice(xterms, yterms)
        return binary64_lattice(xs, ys)

    value.lattice = lattice
    return value


def niemytzki_basic_f(U: BasicOpenSet, p: NiemytzkiPoint) -> Scalar:
    """The base-set family value at p; exact whenever no square root appears."""
    if U.space is not Space.NIEMYTZKI:
        raise SpaceMismatchError("niemytzki_basic_f needs a Niemytzki base set")
    if not isinstance(U, (InteriorDisc, TangentDisc)):
        raise TypeError(f"{U!r} is not a Niemytzki base set")
    return _niemytzki_member(_disc_kernel(U, _zero(U.r)))(p)


def _g_kernel(U: TangentDisc) -> Kernel:
    """The chordal value of U at (x, y) times ((r-1)y + r) / r^2 below the
    diameter, and 1 at the tangency point.  The scale is built from r's
    integer terms for an exact point, else in binary64 from float(r - 1),
    float(r) and float(r^2), the operands mixed Fraction/float arithmetic
    converts to."""
    disc = _disc_kernel(U, None)
    r = U.r
    exact = type(r) is Fraction
    if exact:
        _, _, _, _, rn, rd, _, _ = U.terms
        rm1 = (rn - rd) / rd  # float(r - 1), not float(r) - 1
        zero, one = _ZERO, _ONE
    else:
        rm1, zero, one = r - 1, 0.0, 1.0

    def scaling(y: Scalar) -> Callable[[Scalar], Scalar] | None:
        """The product of a value at height y > 0 with the scale, in the
        value's arithmetic; None at or above the diameter (r <= y), where
        the value is unscaled."""
        if exact and type(y) is Fraction:
            yn, yd = y.as_integer_ratio()
            if rn * yd <= yn * rd:
                return None
            # ((r - 1) y + r) / r^2 = ((rn - rd) yn + rn yd) rd / (yd rn^2); a
            # binary64 value meets it as its int true division, float(scale)
            num, den = ((rn - rd) * yn + rn * yd) * rd, yd * rn * rn
            scale64 = num / den
            return lambda v: v * scale64 if type(v) is float else v * Fraction(num, den)
        if le(U.binary64_r, y):
            return None
        scale64 = (rm1 * y + U.binary64_r) / U.binary64[2]
        return lambda v: v * scale64

    def g(x: Scalar, y: Scalar) -> Scalar:
        value = disc(x, y)
        if value is None:
            return zero
        if is_zero(y):
            return one
        scale = scaling(y)
        return value if scale is None else scale(value)

    def lattice(xs: list, ys: list, xterms: tuple, yterms: tuple) -> RunValues:
        disc_values = disc.lattice(xs, ys, xterms, yterms)

        def values(k: int, j: int, lo: int, hi: int) -> list:
            y = ys[j]
            if is_zero(y):
                return [one] * (hi - lo)
            chord, scale = disc_values(k, j, lo, hi), scaling(y)
            return chord if scale is None else [scale(v) for v in chord]

        return values

    g.lattice = lattice
    return g


def g_family(U: TangentDisc, p: NiemytzkiPoint) -> Scalar:
    """Axis-normalized tangent-disc family: scores 1 at the tangency point."""
    if not isinstance(U, TangentDisc):
        raise TypeError("the g family is indexed by tangent discs only")
    return _niemytzki_member(_g_kernel(U))(p)


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


def _union_kernel(V: RegularOpenSet) -> Kernel:
    """f_V at (x, y): the supremum of the base-set values over base sets
    inscribed in V.

    When V has one component or pairwise separated ones, the value of the
    one component holding the point, 0 off V.  Otherwise the closed form of
    docs/derivations.md, "Union suprema", in binary64: the larger of D(p) =
    min(dist(p, F), 1), the value of the largest interior disc centred at p,
    and the values at p of the largest inscribed tangent discs
    B*(a, rho_max(a)) at V's tangency points a.
    """
    if len(V.components) == 1:
        (c,) = V.components
        return _disc_kernel(c, _zero(c.r))
    if pairwise_separated(V):
        kernels = [_disc_kernel(c, None) for c in V.components]

        def component_value(x: Scalar, y: Scalar) -> Scalar:
            for f in kernels:
                value = f(x, y)
                if value is not None:
                    return value
            return _zero(x)

        def lattice(xs: list, ys: list, xterms: tuple, yterms: tuple) -> RunValues:
            # a run of component k lies in no other component
            forms = [f.lattice(xs, ys, xterms, yterms) for f in kernels]
            return lambda k, j, lo, hi: forms[k](0, j, lo, hi)

        component_value.lattice = lattice
        return component_value
    component_d2 = [c.terms_at for c in V.components]
    tangents = [_disc_kernel(t, _zero(t.r)) for t in V.inscribed_tangent_discs]

    def closed_form(x: Scalar, y: Scalar) -> Scalar:
        if all(d2(x, y) is None for d2 in component_d2):  # (x, y) lies outside V
            return _zero(x)
        best = min(_complement_distance(V, float(x), float(y)), 1.0)
        for f in tangents:
            best = max(best, float(f(x, y)))
        return best

    def lattice(xs: list, ys: list, xterms: tuple, yterms: tuple) -> RunValues:
        # the closed form is no one component's value: the kernel at each point
        return lambda k, j, lo, hi: [closed_form(x, ys[j]) for x in xs[lo:hi]]

    closed_form.lattice = lattice
    return closed_form


def niemytzki_union_f(V: RegularOpenSet, p: NiemytzkiPoint) -> Scalar:
    """Supremum of the base-set values over base sets inscribed in V."""
    if V.space is not Space.NIEMYTZKI:
        raise SpaceMismatchError("niemytzki_union_f needs a Niemytzki set")
    return _niemytzki_member(_union_kernel(V))(p)


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
    """A function family keyed by regular open sets: a label and its binder,
    which maps each set U to the point function f_U."""

    space: Space
    label: str
    bind: Callable[[RegularOpenSet], FamilyMember]

    def __post_init__(self):
        if self.label not in FAMILIES and self.label != LABEL_USER:
            raise ValueError(f"unknown family label {self.label!r}")

    def at(self, U: RegularOpenSet) -> FamilyMember:
        """f_U, bound once: evaluating it at many points redoes none of U's
        per-set work (docs/derivations.md, "Exact kernel")."""
        if U.space is not self.space:
            raise SpaceMismatchError("family, set and point must share a space")
        return self.bind(U)

    def value(self, U: RegularOpenSet, p: Point) -> Scalar:
        if p.space is not self.space:
            raise SpaceMismatchError("family, set and point must share a space")
        return self.at(U)(p)


def _bind_niemytzki(U: RegularOpenSet) -> FamilyMember:
    """The kappa value: the union supremum, a base-set formula on one component."""
    return _niemytzki_member(_union_kernel(U))


def _bind_g_set(U: RegularOpenSet) -> FamilyMember:
    """The g family on the sets it is keyed by, single tangent discs."""
    if len(U.components) != 1 or not isinstance(U.components[0], TangentDisc):
        raise UnindexedSetError("the g family is indexed by single tangent discs")
    return _niemytzki_member(_g_kernel(U.components[0]))


def sorgenfrey_kappa() -> Stratification:
    return Stratification(Space.SORGENFREY, LABEL_SORGENFREY, _bind_sorgenfrey)


def double_arrow_ro() -> Stratification:
    return Stratification(Space.DOUBLE_ARROW, LABEL_DOUBLE_ARROW, _bind_double_arrow)


def niemytzki_kappa() -> Stratification:
    return Stratification(Space.NIEMYTZKI, LABEL_NIEMYTZKI, _bind_niemytzki)


def g_stratification() -> Stratification:
    return Stratification(Space.NIEMYTZKI, LABEL_G, _bind_g_set)


#: The named families by label.  Each space's first entry is its kappa
#: family; user-supplied families bring their own evaluator.
FAMILIES: dict[str, Callable[[], Stratification]] = {
    LABEL_SORGENFREY: sorgenfrey_kappa,
    LABEL_DOUBLE_ARROW: double_arrow_ro,
    LABEL_NIEMYTZKI: niemytzki_kappa,
    LABEL_G: g_stratification,
}


def user_supplied(space: Space, evaluator: Callable[[RegularOpenSet, Point], Scalar]) -> Stratification:
    """A family given by its evaluator (U, p) -> f_U(p); f_U checks p's space,
    as every bound member does, then calls ``evaluator(U, p)``."""

    def bind(U: RegularOpenSet) -> FamilyMember:
        def f_U(p: Point) -> Scalar:
            if p.space is not space:
                raise _mismatch(space, p)
            return evaluator(U, p)

        return f_U

    return Stratification(space, LABEL_USER, bind)


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
