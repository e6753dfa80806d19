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

#: f_U as a point function, every per-set invariant of U resolved.  A named
#: family's f_U carries its formula as ``f_U.kernel``, a function of the
#: point's coordinates: the integer terms (xn, xd) of a Sorgenfrey x, or the
#: Niemytzki (x, y) in one mode (docs/derivations.md, "Lattice kernel").
FamilyMember = Callable[[Point], Scalar]
#: a Niemytzki formula: the value at the coordinates (x, y), both in one mode;
#: a named one decides membership, then calls its mode's ``Pieces``
Kernel = Callable[[Scalar, Scalar], Scalar]
#: A named kernel's staged form (docs/derivations.md, "Separable terms") is
#: ``kernel.lattice(xs, ys, xterms, yterms)``, for a lattice's axes as
#: coordinates in one mode and as integer terms (nums, den); a Sorgenfrey
#: lattice is the one row ys = [None], yterms = None.  It returns
#: ``values(k, j, lo, hi)``: the kernel's values at the columns lo..hi-1 of
#: row j, a run inside U's k-th component, by the point form's own formulas
#: with no membership test, column terms built once per column.
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


def _capped_gaps(bn: int, bd: int, xns: list, xd: int) -> tuple[list[int], int]:
    """min(b - x, 1) for b = bn/bd at each x = xn/xd < b, xd > 0 in any terms:
    the numerators bn xd - xn bd, each capped at the one denominator bd xd."""
    top, under = bn * xd, bd * xd
    gaps = []
    for xn in xns:
        g = top - xn * bd
        gaps.append(g if g < under else under)
    return gaps, under


def _bind_sorgenfrey(U: RegularOpenSet) -> FamilyMember:
    """f_U(x): the largest right gap of x inside U, capped at 1; exact rational."""
    space, terms = Space.SORGENFREY, [c.terms for c in U.components]

    def gap(xn: int, xd: int) -> tuple[int, int] | None:
        """``_capped_gaps`` at x = xn/xd on the component of U that holds it,
        as an unreduced pair; None off U."""
        for an, ad, bn, bd in terms:
            if an * xd <= xn * ad and xn * bd < bn * xd:  # a <= x < b cross-multiplied
                (num,), den = _capped_gaps(bn, bd, [xn], xd)
                return num, den
        return None

    def lattice(xs: list, ys: list, xterms: tuple, yterms: None) -> RunValues:
        """The gaps at the points nums[i] / den of ``xterms`` on a run of U's
        k-th component, each the int true division of its pair."""
        nums, den = xterms

        def values(k: int, j: int, lo: int, hi: int) -> list:
            gaps, under = _capped_gaps(*terms[k][2:], nums[lo:hi], den)
            return [g / under for g in gaps]

        return values

    def f_U(x: SorgenfreyPoint) -> Fraction:
        if x.space is not space:
            raise _mismatch(space, x)
        value = gap(*x.x.as_integer_ratio())
        if value is None:
            return _ZERO
        num, den = value
        return _ONE if num == den else Fraction(num, den)

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


#: the row case y = 0 of a tangent disc, whose one point is the tangency point
_TANGENCY = "tangency"

#: A disc kernel's formulas in one numeric mode, the pieces that its point
#: form and its staged form both call (docs/derivations.md, "Separable
#: terms"): ``row(y)``, the row case at the height y (``_TANGENCY``, the pair
#: (chord root, g's scale or None) below the diameter, else None);
#: ``col(x)``, the column terms that a chord row reads; ``chord(cols, case)``,
#: the values at a run of columns on a chord row; and ``interior(run, row)``,
#: r - sqrt(d2) at a run of columns on a disc row, with d2 = a + b for each
#: square term a of the run and the row's b (a pair over a square den, exact).
Pieces = tuple[Callable, Callable, Callable, Callable]


def _exact_pieces(U: InteriorDisc | TangentDisc, g: bool) -> Pieces:
    """The pieces of an exact disc on integer terms: x = xn/X and y = yn/Y as
    the pairs (xn, X) and (yn, Y), in any terms with X, Y > 0, and d2 as an
    unreduced pair (N, D) whose denominator is a perfect square, as
    ``spaces.sq_dist_of`` gives it.  With ``g`` a chord row carries g's scale."""
    cxn, cxd, _, _, rn, rd, _, _ = U.terms  # a tangent disc's centre is (a, r)
    r, tangent = U.r, isinstance(U, TangentDisc)

    def row(y: tuple[int, int]):
        yn, Y = y
        if not tangent:
            return None
        if not yn:
            return _TANGENCY
        if rn * Y <= yn * rd:  # at or above the diameter: r <= y
            return None
        # 2yr - y^2 = yn (2 rn Y - yn rd) / (Y^2 rd)
        root = sqrt_terms(yn * (2 * rn * Y - yn * rd), Y * Y * rd)
        if not g:
            return root, None
        # ((r - 1) y + r) / r^2 = ((rn - rd) yn + rn Y) rd / (Y rn^2); a
        # binary64 value meets it as its int true division, float(scale)
        num, den = ((rn - rd) * yn + rn * Y) * rd, Y * rn * rn
        scale64 = num / den
        return root, lambda v: v * scale64 if type(v) is float else v * Fraction(num, den)

    def col(x: tuple[int, int]) -> tuple[int, int, float | None]:
        """|x - cx| = dxn/dxd, and for a tangent disc float(r |x - a|)."""
        xn, X = x
        dxn, dxd = abs(xn * cxd - cxn * X), X * cxd
        return dxn, dxd, rn * dxn / (rd * dxd) if tangent else None

    def chord(cols: list, case: tuple) -> list:
        (root, scale), r64 = case, U.binary64_r  # the vertical axis (dxn = 0) keeps the exact r
        if type(root) is float:
            values = [r64 - r_dx / root if dxn else r for dxn, _, r_dx in cols]
        else:
            values = [r - r * Fraction(dxn, dxd) / root if dxn else r for dxn, dxd, _ in cols]
        return values if scale is None else [scale(v) for v in values]

    def interior(run: list, row: tuple[int, int]) -> list:
        (b, den), r64 = row, U.binary64_r
        out = []
        for a in run:
            num = a + b
            q = isqrt(num)  # den is a square: the root is rational iff num is one
            out.append(r - Fraction(q, isqrt(den)) if q * q == num else r64 - sqrt(num / den))
        return out

    return row, col, chord, interior


def _binary64_pieces(U: InteriorDisc | TangentDisc, g: bool) -> Pieces:
    """The pieces through U's binary64 view: x and y in their own mode, d2 in
    binary64, EPS in the tests; with ``g`` a chord row carries g's scale."""
    r, tangent = U.r, isinstance(U, TangentDisc)  # the view is read when used

    def row(y: Scalar):
        if not tangent:
            return None
        if is_zero(y):
            return _TANGENCY
        r64 = U.binary64_r
        if le(r64, y):
            return None
        # an exact y converts y^2 once; a binary64 y squares itself
        root = sqrt_scalar(2 * y * r64 - y * y)
        if not g:
            return root, None
        # float(r - 1) by int true division for an exact r, not float(r) - 1
        rm1 = r - 1 if type(r) is float else (r.numerator - r.denominator) / r.denominator
        scale64 = (rm1 * y + r64) / U.binary64[2]
        return root, lambda v: v * scale64

    def col(x: Scalar) -> tuple[float, bool, float]:
        """fl(float(x) - cx), whether it is zero under EPS, and fl(r64 |dx|)."""
        dx = float(x) - U.binary64[0]
        return dx, is_zero(dx), U.binary64_r * abs(dx)

    def chord(cols: list, case: tuple) -> list:
        (root, scale), r64 = case, U.binary64_r
        values = [r if on_axis else r64 - r_dx / root for _, on_axis, r_dx in cols]
        return values if scale is None else [scale(v) for v in values]

    def interior(run: list, row: float) -> list:
        r64 = U.binary64_r
        return [r64 - sqrt(a + row) for a in run]

    return row, col, chord, interior


def _zero(like: Scalar) -> Scalar:
    """0 in the numeric mode of ``like``."""
    return _ZERO if isinstance(like, Fraction) else 0.0


def _disc_kernel(U: InteriorDisc | TangentDisc, outside: Scalar | None, g: bool = False) -> Kernel:
    """The base-set value at (x, y), and ``outside`` off U: from integer terms
    when U and the point are exact, else from U's binary64 view.  The exact
    U.r is returned at the tangency point and, below the diameter, on the
    vertical axis.  With ``g``, the g family's value: 1 (in U's mode) at the
    tangency point, the chord value times ((r-1)y + r) / r^2 below the
    diameter.  The point form decides membership, then calls its mode's
    pieces; ``value.lattice`` calls the same ones (``RunValues``).  The
    binary64 pieces are built when a binary64 point or lattice first needs
    them: an exact set's points are almost all exact."""
    r = U.r
    exact = type(r) is Fraction
    tangency = (_ONE if exact else 1.0) if g else r
    exact_pieces = _exact_pieces(U, g) if exact else None
    binary64_pieces = None
    exact_d2, binary64_d2 = U.exact_d2, U.binary64_d2

    def binary64() -> Pieces:
        nonlocal binary64_pieces
        if binary64_pieces is None:
            binary64_pieces = _binary64_pieces(U, g)
        return binary64_pieces

    def value(x: Scalar, y: Scalar) -> Scalar:
        if exact and type(x) is Fraction:
            (xn, xd), (yn, yd) = x, y = x.as_integer_ratio(), y.as_integer_ratio()
            d2, (row, col, chord, interior) = exact_d2(xn, xd, yn, yd), exact_pieces
        else:
            d2, (row, col, chord, interior) = binary64_d2(x, y), binary64_pieces or binary64()
        if d2 is None:
            return outside
        case = row(y)
        if case is None:  # d2 itself is the row term of a column term 0
            return interior([0], d2)[0]
        return tangency if case is _TANGENCY else chord([col(x)], case)[0]

    def lattice(xs: list, ys: list, xterms: tuple, yterms: tuple) -> RunValues:
        if exact and xs and type(xs[0]) is Fraction:
            (xnums, X), (ynums, Y) = xterms, yterms
            xs, ys = [(xn, X) for xn in xnums], [(yn, Y) for yn in ynums]
            row, col, chord, interior = exact_pieces
            cols = [col(x) for x in xs]
            # d2 = (A_i + B_j) / (bx by)^2 over the lattice's denominators:
            # A_i = (|x_i - cx| bx by)^2 per column, B_j likewise per row
            _, cxd, cyn, cyd = U.terms[:4]
            bx, by = X * cxd, Y * cyd
            square = (bx * by) ** 2
            squares = [(dxn * by) ** 2 for dxn, _, _ in cols]

            def row_term(j: int) -> tuple[int, int]:
                return ((ynums[j] * cyd - cyn * Y) * bx) ** 2, square

        else:
            row, col, chord, interior = binary64()
            cols = [col(x) for x in xs]
            squares = [dx * dx for dx, _, _ in cols]
            cy = U.binary64[1]

            def row_term(j: int) -> float:
                dy = float(ys[j]) - cy
                return dy * dy

        def values(k: int, j: int, lo: int, hi: int) -> list:
            case = row(ys[j])
            if case is None:
                return interior(squares[lo:hi], row_term(j))
            if case is _TANGENCY:
                return [tangency] * (hi - lo)
            return chord(cols[lo:hi], case)

        return values

    value.lattice = lattice
    return value


def niemytzki_basic_f(U: BasicOpenSet, p: NiemytzkiPoint) -> Scalar:
    """The base-set family value at p; exact whenever no square root appears."""
    if U.space is not Space.NIEMYTZKI:
        raise SpaceMismatchError("niemytzki_basic_f needs a Niemytzki base set")
    if not isinstance(U, (InteriorDisc, TangentDisc)):
        raise TypeError(f"{U!r} is not a Niemytzki base set")
    return _niemytzki_member(_disc_kernel(U, _zero(U.r)))(p)


def g_family(U: TangentDisc, p: NiemytzkiPoint) -> Scalar:
    """Axis-normalized tangent-disc family: scores 1 at the tangency point."""
    if not isinstance(U, TangentDisc):
        raise TypeError("the g family is indexed by tangent discs only")
    return _niemytzki_member(_disc_kernel(U, _zero(U.r), g=True))(p)


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
    (c,) = U.components
    return _niemytzki_member(_disc_kernel(c, _zero(c.r), g=True))


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
