"""The explicit function families keyed by (regular) open sets.

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
values over base sets inscribed in V; the supremum is attained by a base set,
so a parametric search over inscribed discs (seeded with the components and
polished by coordinate refinement, each centre's largest inscribed radius
decided by the closed-form Euclidean distance to the union's complement)
converges to it from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .basesets import (
    BasicOpenSet,
    ExtremeSingleton,
    InteriorDisc,
    OpenInterval,
    TangentDisc,
    basic_member,
    disc_sq_dist,
)
from .numerics import Scalar, eq, is_zero, le, lt, sq, sqrt_scalar
from .rosets import RegularOpenSet, basic_subset, member
from .spaces import (
    DoubleArrowPoint,
    NiemytzkiPoint,
    Point,
    SorgenfreyPoint,
    Space,
    SpaceMismatchError,
    sq_dist,
)

SetLike = Union[BasicOpenSet, RegularOpenSet]

#: Boundary discretization for the sampled multi-component containment test.
CONTAINMENT_ANGLES = 720
#: Default number of coordinate-refinement rounds in the union supremum search.
DEFAULT_BUDGET = 6


class UnindexedSetError(TypeError, ValueError):
    """A family was given a set it is not keyed by."""


def set_member(s: SetLike, p: Point) -> bool:
    if isinstance(s, RegularOpenSet):
        return member(s, p)
    return basic_member(s, p)


# ---------------------------------------------------------------------------
# Sorgenfrey


def sorgenfrey_f(U: RegularOpenSet, x: SorgenfreyPoint) -> Fraction:
    """Largest right gap of x inside U, capped at 1; exact rational."""
    if U.space is not Space.SORGENFREY:
        raise SpaceMismatchError("sorgenfrey_f needs a Sorgenfrey set")
    for c in U.components:
        if isinstance(c, OpenInterval):
            raise UnindexedSetError("open intervals are not regular open index sets")
        if le(c.a, x.x) and lt(x.x, c.b):
            return min(c.b, x.x + 1) - x.x
    return Fraction(0)


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
            return Fraction(1)
        return c.b - c.a
    return Fraction(0)


# ---------------------------------------------------------------------------
# Niemytzki base formulas


def _chord_factor(a: Scalar, r: Scalar, x: Scalar, y: Scalar) -> Scalar:
    """r - r|x - a| / sqrt(2yr - y^2), the below-diameter tangent-disc value."""
    dx = abs(x - a)
    if is_zero(dx):
        return r
    radicand = 2 * y * r - sq(y)
    root = sqrt_scalar(radicand)
    return r - r * dx / root


def _zero(like: Scalar) -> Scalar:
    """0 in the numeric mode of ``like``."""
    return Fraction(0) if isinstance(like, Fraction) else 0.0


def _disc_value(U: InteriorDisc | TangentDisc, p: NiemytzkiPoint, d2: Scalar) -> Scalar:
    """The base-set value at a point p of U, given ``d2 = disc_sq_dist(U, p)``."""
    if isinstance(U, TangentDisc):
        if p.on_axis:
            return U.r
        if not le(U.r, p.y):
            return _chord_factor(U.a, U.r, p.x, p.y)
    return U.r - sqrt_scalar(d2)


def niemytzki_basic_f(U: BasicOpenSet, p: NiemytzkiPoint) -> Scalar:
    """The base-set family value at p; exact whenever no square root appears."""
    if U.space is not Space.NIEMYTZKI:
        raise SpaceMismatchError("niemytzki_basic_f needs a Niemytzki base set")
    if not isinstance(U, (InteriorDisc, TangentDisc)):
        raise TypeError(f"{U!r} is not a Niemytzki base set")
    d2 = disc_sq_dist(U, p)
    return _zero(U.r) if d2 is None else _disc_value(U, p, d2)


def g_family(U: TangentDisc, p: NiemytzkiPoint) -> Scalar:
    """Axis-normalized tangent-disc family: scores 1 at the tangency point."""
    if not isinstance(U, TangentDisc):
        raise TypeError("the g family is indexed by tangent discs only")
    d2 = disc_sq_dist(U, p)
    if d2 is None:
        return _zero(U.r)
    if p.on_axis:
        return Fraction(1) if isinstance(U.r, Fraction) else 1.0
    if le(U.r, p.y):
        return U.r - sqrt_scalar(d2)
    scale = ((U.r - 1) * p.y + U.r) / U.r2
    return _chord_factor(U.a, U.r, p.x, p.y) * scale


# ---------------------------------------------------------------------------
# containment of a base disc in a finite union


def _component_arrays(V: RegularOpenSet):
    """(centers, radii) of the open-disc parts of V's components, as float arrays."""
    centers = np.array(
        [[float(c.center.x), float(c.center.y)] for c in V.components], dtype=float
    )
    radii = np.array([float(c.r) for c in V.components], dtype=float)
    return centers, radii


def _points_covered(points: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """For an (m, 2) point array: which points lie in some open component disc."""
    diff = points[:, None, :] - centers[None, :, :]
    d2 = np.einsum("mkc,mkc->mk", diff, diff)
    return (d2 < radii[None, :] ** 2).any(axis=1)


def _disc_sample_points(cx: float, cy: float, r: float) -> np.ndarray:
    """The shared sample template scaled onto a concrete disc."""
    return np.array([[cx, cy]]) + r * _TEMPLATE


def _uncovered_vertices(V: RegularOpenSet) -> np.ndarray:
    """Crossing points of component boundary circles not inside the union.

    These are the complement's sharp corners: a candidate disc strictly
    containing one cannot be inscribed.  They are the vertex term of the
    closed-form complement distance, and sampling them closes the blind spot
    a pure angular discretization has at narrow wedges.
    """
    centers, radii = _component_arrays(V)
    out = []
    k = centers.shape[0]
    for i in range(k):
        for j in range(i + 1, k):
            for v in _circle_intersections(centers[i], radii[i], centers[j], radii[j]):
                if v[1] < -1e-12:
                    continue  # below the axis: not in the space
                y = max(0.0, float(v[1]))
                if not member(V, NiemytzkiPoint(float(v[0]), y)):
                    out.append([float(v[0]), y])
    if not out:
        return np.zeros((0, 2))
    return np.array(out)


def disc_in_union(candidate: BasicOpenSet, V: RegularOpenSet) -> bool:
    ok, _method = disc_in_union_ex(candidate, V)
    return ok


def disc_in_union_ex(candidate: BasicOpenSet, V: RegularOpenSet) -> tuple[bool, str]:
    """Containment of a base disc in a union; ('exact'|'sampled') method tag.

    A single-component target, or a candidate inside one component, is
    decided by the algebraic disc-in-disc inequality (with the tangency rules
    for axis neighborhoods).  Other unions get a sampled decision: the
    candidate's boundary at 720 angles plus an interior grid, every sample
    required to land in some component.
    """
    if candidate.space is not Space.NIEMYTZKI or V.space is not Space.NIEMYTZKI:
        raise SpaceMismatchError("disc containment is a Niemytzki operation")
    if not isinstance(candidate, (InteriorDisc, TangentDisc)):
        raise TypeError(f"{candidate!r} is not a Niemytzki base set")
    if V.is_empty:
        return False, "exact"
    if len(V.components) == 1:
        return basic_subset(candidate, V.components[0]), "exact"
    if any(basic_subset(candidate, c) for c in V.components):
        return True, "exact"
    if isinstance(candidate, TangentDisc):
        if not member(V, candidate.axis_point):
            return False, "sampled"
        cx, cy, r = float(candidate.a), float(candidate.r), float(candidate.r)
    else:
        cx, cy, r = float(candidate.cx), float(candidate.cy), float(candidate.r)
    centers, radii = _component_arrays(V)
    verts = _uncovered_vertices(V)
    if len(verts):
        d = np.linalg.norm(verts - np.array([[cx, cy]]), axis=1)
        if (d < r * (1 - 1e-12)).any():
            return False, "sampled"
    points = _disc_sample_points(cx, cy, r)
    covered = _points_covered(points, centers, radii)
    return bool(covered.all()), "sampled"


# ---------------------------------------------------------------------------
# supremum over inscribed base sets


def _euclid_complement_distance(
    cs: np.ndarray, centers: np.ndarray, radii: np.ndarray, verts: np.ndarray
) -> np.ndarray:
    """Euclidean distance from each query center to the complement of the open union.

    Closed form for unions of discs (docs/derivations.md, "Union suprema"):
    the minimum of (i) the query's height above the axis, (ii) per-circle
    distances |R_i - d_i| where the nearest circle point is not covered by
    another disc, and (iii) distances to the uncovered arrangement vertices
    ``verts`` from ``_uncovered_vertices``.  Queries outside every disc get 0.
    """
    m = cs.shape[0]
    k = centers.shape[0]
    diff = cs[:, None, :] - centers[None, :, :]
    d = np.sqrt(np.einsum("mkc,mkc->mk", diff, diff))
    best = cs[:, 1].copy()  # the axis is (essentially) complement
    inside_any = (d < radii[None, :]).any(axis=1)
    for i in range(k):
        with np.errstate(invalid="ignore", divide="ignore"):
            unit = diff[:, i, :] / d[:, i, None]
        unit = np.where(np.isfinite(unit), unit, np.array([[0.0, 1.0]]))
        nearest = centers[i] + radii[i] * unit
        covered = np.zeros(m, dtype=bool)
        for j in range(k):
            if j == i:
                continue
            dj = np.linalg.norm(nearest - centers[j], axis=1)
            covered |= dj < radii[j]
        cand = np.abs(radii[i] - d[:, i])
        best = np.where(~covered, np.minimum(best, cand), best)
    if len(verts):
        dv = np.linalg.norm(cs[:, None, :] - verts[None, :, :], axis=2)
        best = np.minimum(best, dv.min(axis=1))
    return np.where(inside_any, best, 0.0)


def _circle_intersections(c1, r1, c2, r2):
    d = float(np.linalg.norm(c2 - c1))
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
    h2 = r1 * r1 - a * a
    if h2 < 0:
        return []
    h = math.sqrt(h2)
    mid = c1 + a * (c2 - c1) / d
    perp = np.array([-(c2 - c1)[1], (c2 - c1)[0]]) / d
    return [mid + h * perp, mid - h * perp]


def _sample_template() -> np.ndarray:
    """Unit-disc sample pattern of the sampled ``disc_in_union`` test:
    near-boundary ring at 720 angles, interior rings, center."""
    th = np.linspace(0.0, 2 * math.pi, CONTAINMENT_ANGLES, endpoint=False)
    parts = [np.stack([np.cos(th), np.sin(th)], axis=1) * (1 - 1e-9)]
    th_i = np.linspace(0.0, 2 * math.pi, 72, endpoint=False)
    for frac in (0.25, 0.5, 0.75, 0.9):
        parts.append(np.stack([np.cos(th_i), np.sin(th_i)], axis=1) * frac)
    parts.append(np.zeros((1, 2)))
    return np.concatenate(parts, axis=0)


_TEMPLATE = _sample_template()


def _tangent_max_radius(x0: Scalar, V: RegularOpenSet) -> float:
    """Largest rho <= 1 with B*(x0, rho) inscribed in V (binary search)."""
    x0f = float(x0)
    if disc_in_union(TangentDisc(x0f, 1.0), V):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if mid <= 1e-12:
            break
        if disc_in_union(TangentDisc(x0f, mid), V):
            lo = mid
        else:
            hi = mid
    return lo


def pairwise_separated(V: RegularOpenSet) -> bool:
    """True when the closed hulls of V's components are pairwise disjoint.

    Any base set is connected, so a base set inscribed in a union of
    separated components lies inside one component and the union supremum is
    the exact component maximum.
    """
    return V.separated


def niemytzki_union_f(
    V: RegularOpenSet, p: NiemytzkiPoint, budget: int = DEFAULT_BUDGET
) -> Scalar:
    """Supremum of the base-set values over base sets inscribed in V.

    Exact (the component formula) when V has one component or its components
    are pairwise separated.  Overlapping unions get a lower-bounded
    approximation: the component maximum, improved by a multi-seed
    coordinate-refinement search over inscribed discs through p and over
    tangent discs grown at the union's tangency points.  The largest
    inscribed disc at a candidate centre is decided by the closed-form
    complement distance; tangent candidates go through ``disc_in_union``.
    The result never decreases when the budget grows.
    """
    if V.space is not Space.NIEMYTZKI:
        raise SpaceMismatchError("niemytzki_union_f needs a Niemytzki set")
    d2s = [disc_sq_dist(c, p) for c in V.components]
    if all(d2 is None for d2 in d2s):  # p lies outside V
        return _zero(p.x)
    values = [
        _zero(c.r) if d2 is None else _disc_value(c, p, d2) for c, d2 in zip(V.components, d2s)
    ]
    if len(V.components) == 1 or pairwise_separated(V):
        return max(values, key=float)

    best = max(0.0, *map(float, values))

    # tangent-disc candidates can only hang at existing tangency points
    tangencies = [c.a for c in V.components if isinstance(c, TangentDisc)]
    if p.on_axis:
        for a in tangencies:
            if eq(a, p.x):
                rho = _tangent_max_radius(a, V)
                best = max(best, rho)
        return best
    for a in tangencies:
        rho = _tangent_max_radius(a, V)
        if rho > 0:
            pf = NiemytzkiPoint(float(p.x), float(p.y))
            best = max(best, float(niemytzki_basic_f(TangentDisc(float(a), rho), pf)))

    centers, radii = _component_arrays(V)
    verts = _uncovered_vertices(V)
    px, py = float(p.x), float(p.y)
    pref = np.array([px, py])

    seeds = [pref] + [c for c in centers]
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            seeds.append(0.5 * (centers[i] + centers[j]))
    for v in verts:
        # kink optima hang off complement corners; aim between corner and p
        for t in (0.35, 0.7):
            seeds.append(v + (pref - v) * t)
    span = max(1.0, float(radii.max()) * 2)

    def disc_value(cs: np.ndarray) -> np.ndarray:
        """Value at p of the largest inscribed disc centred at each of cs."""
        radius = np.minimum(_euclid_complement_distance(cs, centers, radii, verts), cs[:, 1])
        return np.minimum(radius, 1.0) - np.linalg.norm(cs - pref[None, :], axis=1)

    gx = np.linspace(px - span, px + span, 21)
    gy = np.linspace(max(1e-6, py - span), py + span, 21)
    grid = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
    grid = grid[grid[:, 1] > 0]
    order = np.argsort(disc_value(grid))[::-1][:2]
    seeds.extend(grid[k] for k in order)

    def polish(seed: np.ndarray, rounds: int) -> float:
        cur = seed.copy()
        step = 0.4 * span
        cur_val = -np.inf
        for _ in range(rounds):
            offs = np.linspace(-step, step, 7)
            cand = np.stack(
                np.meshgrid(cur[0] + offs, cur[1] + offs), axis=-1
            ).reshape(-1, 2)
            cand = cand[cand[:, 1] > 1e-9]
            v = disc_value(cand)
            k = int(np.argmax(v))
            if v[k] > cur_val:
                cur_val = float(v[k])
                cur = cand[k]
            step /= 5.0
        return cur_val

    # each polish keeps a running max over its rounds, so the result is
    # monotone in the budget: a larger budget only extends the rounds run
    for seed in seeds:
        if seed[1] <= 0:
            continue
        best = max(best, polish(np.asarray(seed, dtype=float), budget))
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
    """A function family keyed by sets: label-dispatched or user-supplied."""

    space: Space
    label: str
    evaluator: Callable[[SetLike, Point], Scalar] | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.label not in FAMILIES and self.label != LABEL_USER:
            raise ValueError(f"unknown family label {self.label!r}")
        if self.label == LABEL_USER and self.evaluator is None:
            raise ValueError("user-supplied families need an evaluator")

    def value(self, U: SetLike, p: Point) -> Scalar:
        if U.space is not self.space or p.space is not self.space:
            raise SpaceMismatchError("family, set and point must share a space")
        if self.label == LABEL_USER:
            return self.evaluator(U, p)
        if self.label == LABEL_SORGENFREY:
            return sorgenfrey_f(_as_roset(U), p)
        if self.label == LABEL_DOUBLE_ARROW:
            return doublearrow_f(_as_roset(U), p)
        if self.label == LABEL_G:
            return g_family(_as_basic(U, TangentDisc), p)
        if isinstance(U, RegularOpenSet):
            if len(U.components) == 1:
                return niemytzki_basic_f(U.components[0], p)
            return niemytzki_union_f(U, p, self.budget)
        return niemytzki_basic_f(U, p)


def _as_roset(U: SetLike) -> RegularOpenSet:
    if isinstance(U, RegularOpenSet):
        return U
    return RegularOpenSet(U.space, (U,))


def _as_basic(U: SetLike, cls) -> BasicOpenSet:
    if isinstance(U, RegularOpenSet):
        if len(U.components) != 1 or not isinstance(U.components[0], cls):
            raise UnindexedSetError(f"this family is indexed by single {cls.__name__} sets")
        return U.components[0]
    if not isinstance(U, cls):
        raise UnindexedSetError(f"this family is indexed by {cls.__name__} sets")
    return U


def sorgenfrey_kappa() -> Stratification:
    return Stratification(Space.SORGENFREY, LABEL_SORGENFREY)


def double_arrow_ro() -> Stratification:
    return Stratification(Space.DOUBLE_ARROW, LABEL_DOUBLE_ARROW)


def niemytzki_kappa(budget: int = DEFAULT_BUDGET) -> Stratification:
    return Stratification(Space.NIEMYTZKI, LABEL_NIEMYTZKI, budget=budget)


def g_stratification() -> Stratification:
    return Stratification(Space.NIEMYTZKI, LABEL_G)


#: The named families by label.  Each space's first entry is its kappa
#: family; user-supplied families bring their own evaluator instead.
FAMILIES: dict[str, Callable[[], Stratification]] = {
    LABEL_SORGENFREY: sorgenfrey_kappa,
    LABEL_DOUBLE_ARROW: double_arrow_ro,
    LABEL_NIEMYTZKI: niemytzki_kappa,
    LABEL_G: g_stratification,
}


def user_supplied(space: Space, evaluator) -> Stratification:
    return Stratification(space, LABEL_USER, evaluator)


def tabulated_evaluator(table: dict) -> Callable[[SetLike, Point], Scalar]:
    """Nearest-sample evaluator for a tabulated family.

    ``table`` maps a set key (the set object itself) to a list of
    (point, value) pairs; evaluation returns the value at the nearest
    tabulated point (ties resolved by table order).
    """

    def nearest(U: SetLike, p: Point) -> Scalar:
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
