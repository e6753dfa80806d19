"""Canonical finite unions of base sets, regular-openness validation, chains.

A ``RegularOpenSet`` is a finite union of base elements in canonical order
whose regular openness (the set equals the interior of its own closure) was
decided exactly when it was built:

* Sorgenfrey: after merging overlapping/adjacent intervals every canonical
  component must be left-closed.  A left-open canonical component (a, b)
  witnesses failure at a: the closure contains [a, b), so a is interior to
  the closure but outside the set.
* Double arrow: any finite union of clopen intervals merges into pairwise
  disjoint clopen intervals with nonempty gaps; clopen sets are always
  regular open.
* Niemytzki: finite unions of base discs are regular open unless some
  interior disc touches the axis (r = cy) at a tangency point the union does
  not contain; that tangency point is then interior to the closure (every
  tangent-disc neighborhood of it sits inside the closed disc) but outside
  the union.  Boundary-circle crossing points never become interior (the two
  closed discs leave an uncovered wedge), so no other failures exist.
  See docs/derivations.md.

Chains are parametric families n -> set whose parameters are
c0 + c1/(n+s) + c2/(n+s)^2, with the constant term as limit.  Nesting, the
sign of an offset and the size of every element are decided for every n at
once from the coefficients (docs/derivations.md, "Chain limits").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Optional, Sequence

from .basesets import (
    BasicOpenSet,
    ClopenInterval,
    ExtremeSingleton,
    HalfOpen,
    InteriorDisc,
    OpenInterval,
    TangentDisc,
    basic_closure_member,
    basic_member,
)
from .numerics import Scalar, as_scalar, eq, is_zero, le, lt, sq
from .spaces import NiemytzkiPoint, Point, SorgenfreyPoint, Space, SpaceMismatchError, sq_dist


class NotRegularOpenError(ValueError):
    """Rejection of a candidate union, carrying an explicit witness point.

    The witness lies in the interior of the closure of the union but not in
    the union itself.
    """

    def __init__(self, message: str, witness: Point):
        super().__init__(message)
        self.witness = witness

    def __reduce__(self):
        # both fields, so that it unpickles whole: a forked check process sends it back pickled
        return type(self), (*self.args, self.witness)


class NonMonotoneChainError(ValueError):
    """A chain lane whose element n+1 does not lie in element n for some n."""


class MalformedChainError(ValueError):
    """A chain whose lanes are no decreasing chain of base sets for another
    reason than nesting: an open-interval lane, a disc lane with two shifts,
    a size that falls below 0, or Niemytzki lanes whose hulls meet."""


@dataclass(frozen=True)
class RegularOpenSet:
    space: Space
    components: tuple[BasicOpenSet, ...]

    @property
    def is_empty(self) -> bool:
        return not self.components

    @cached_property
    def separated(self) -> bool:
        """True when the closed hulls of the (disc) components are pairwise
        disjoint; decided once per set."""
        return separated_hulls(self.components)

    @cached_property
    def circles(self) -> tuple[tuple[float, float, float], ...]:
        """(cx, cy, r) of the open Euclidean disc of each (disc) component, in
        binary64; built once per set."""
        return tuple((float(c.center.x), float(c.center.y), float(c.r)) for c in self.components)

    @cached_property
    def corners(self) -> tuple[tuple[float, float], ...]:
        """Crossing points of component boundary circles not inside the union,
        the sharp corners of its complement, in binary64; built once per set."""
        out = []
        for i, ci in enumerate(self.circles):
            for cj in self.circles[i + 1 :]:
                for x, y in _circle_intersections(ci, cj):
                    if y < -1e-12:
                        continue  # below the axis: not in the space
                    y = max(0.0, y)
                    if not member(self, NiemytzkiPoint(x, y)):
                        out.append((x, y))
        return tuple(out)

    @cached_property
    def inscribed_tangent_discs(self) -> tuple[TangentDisc, ...]:
        """B*(a, rho_max(a)) at the tangency point a of each tangent-disc
        component, the largest tangent discs inscribed there; built once per set."""
        return tuple(
            TangentDisc(c.a, tangent_radius(self, c.a))
            for c in self.components
            if isinstance(c, TangentDisc)
        )


def tangent_radius(V: RegularOpenSet, a: Scalar) -> Scalar:
    """rho_max(a): the largest radius of a component of V tangent to the axis
    at (a, 0), a tangent disc or an interior disc with r = cy; 0 if none."""
    radii = [
        c.r
        for c in V.components
        if (isinstance(c, TangentDisc) and eq(c.a, a))
        or (isinstance(c, InteriorDisc) and c.axis_tangent and eq(c.cx, a))
    ]
    return max(radii, default=Fraction(0) if isinstance(a, Fraction) else 0.0)


def _norm(dx: float, dy: float) -> float:
    """sqrt(dx*dx + dy*dy), spelled out: ``math.hypot`` rounds differently,
    and the last bit of a union value reaches reports and CSVs."""
    return math.sqrt(dx * dx + dy * dy)


def _circle_intersections(c1, c2) -> list[tuple[float, float]]:
    (x1, y1, r1), (x2, y2, r2) = c1, c2
    dx, dy = x2 - x1, y2 - y1
    d = _norm(dx, dy)
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
    h2 = r1 * r1 - a * a
    if h2 < 0:
        return []
    h = math.sqrt(h2)
    mx, my = x1 + a * dx / d, y1 + a * dy / d
    ux, uy = -dy / d, dx / d
    return [(mx + h * ux, my + h * uy), (mx - h * ux, my - h * uy)]


def member(s: RegularOpenSet, p: Point) -> bool:
    """Membership: the union of the component predicates."""
    if s.space is not p.space:
        raise SpaceMismatchError(f"set in {s.space}, point in {p.space}")
    return any(basic_member(c, p) for c in s.components)


def closure_member(s: RegularOpenSet, p: Point) -> bool:
    """Membership in the closure: closures of finite unions are unions of closures."""
    if s.space is not p.space:
        raise SpaceMismatchError(f"set in {s.space}, point in {p.space}")
    return any(basic_closure_member(c, p) for c in s.components)


# ---------------------------------------------------------------------------
# exact containment between base elements


def basic_subset(inner: BasicOpenSet, outer: BasicOpenSet) -> bool:
    """Exact decision of inner <= outer for same-space base elements."""
    if inner.space is not outer.space:
        raise SpaceMismatchError("containment across spaces")
    if isinstance(inner, (HalfOpen, OpenInterval)):
        if isinstance(outer, HalfOpen):
            return le(outer.a, inner.a) and le(inner.b, outer.b)
        if isinstance(outer, OpenInterval):
            left_ok = lt(outer.a, inner.a) if isinstance(inner, HalfOpen) else le(outer.a, inner.a)
            return left_ok and le(inner.b, outer.b)
        return False
    if isinstance(inner, ClopenInterval):
        if not isinstance(outer, ClopenInterval):
            return False
        if inner.include_left_extreme and not outer.include_left_extreme:
            return False
        if inner.include_right_extreme and not outer.include_right_extreme:
            return False
        return le(outer.a, inner.a) and le(inner.b, outer.b)
    if isinstance(inner, ExtremeSingleton):
        if isinstance(outer, ExtremeSingleton):
            return inner.side == outer.side
        if isinstance(outer, ClopenInterval):
            if inner.side == 0:
                return outer.include_left_extreme
            return outer.include_right_extreme
        return False
    if isinstance(inner, InteriorDisc):
        if isinstance(outer, (InteriorDisc, TangentDisc)):
            gap = outer.r - inner.r
            return le(0, gap) and le(sq_dist(inner.center, outer.center), sq(gap))
        return False
    if isinstance(inner, TangentDisc):
        if isinstance(outer, TangentDisc):
            return eq(inner.a, outer.a) and le(inner.r, outer.r)
        return False  # a tangent disc owns an axis point no interior disc has
    raise TypeError(f"unknown base set {inner!r}")


# ---------------------------------------------------------------------------
# canonicalization and validation


def _sort_key(c: BasicOpenSet):
    if isinstance(c, (HalfOpen, OpenInterval)):
        return (0, c.a, isinstance(c, OpenInterval), c.b)
    if isinstance(c, ExtremeSingleton):
        return (c.side * 2, Fraction(c.side), False, Fraction(c.side))
    if isinstance(c, ClopenInterval):
        return (1, c.a, False, c.b)
    if isinstance(c, TangentDisc):
        return (0, c.a, c.r, c.r)
    if isinstance(c, InteriorDisc):
        return (1, c.cx, c.cy, c.r)
    raise TypeError(f"unknown base set {c!r}")


def _canonical_sorgenfrey(components: Sequence[BasicOpenSet]) -> list[BasicOpenSet]:
    """The merged components in order; a component that nothing merged into
    is the input object itself, not built again."""
    items = []  # (left, left_closed, right, the input component it starts from)
    for c in components:
        if isinstance(c, HalfOpen):
            items.append([c.a, True, c.b, c])
        elif isinstance(c, OpenInterval):
            items.append([c.a, False, c.b, c])
        else:
            raise TypeError(f"{c!r} is not a Sorgenfrey base set")
    items.sort(key=lambda it: (it[0], not it[1]))
    merged: list[list] = []
    for it in items:
        if merged:
            cur = merged[-1]
            touches = it[0] < cur[2] or (it[0] == cur[2] and it[1])
            if touches:
                cur[2] = max(cur[2], it[2])
                continue
        merged.append(list(it))
    out: list[BasicOpenSet] = []
    for left, closed, right, first in merged:
        if closed:
            out.append(first if right == first.b else HalfOpen(left, right))
        else:
            raise NotRegularOpenError(
                f"canonical component ({left}, {right}) is left-open: "
                f"{left} lies in the interior of the closure but not in the set",
                SorgenfreyPoint(left),
            )
    return out


def _canonical_double_arrow(components: Sequence[BasicOpenSet]) -> list[BasicOpenSet]:
    """The merged components in order; a component that nothing merged into
    is the input object itself, not built again."""
    intervals = []  # (a, b, left flag, right flag, the input component it starts from)
    left_single = right_single = None
    for c in components:
        if isinstance(c, ClopenInterval):
            intervals.append([c.a, c.b, c.include_left_extreme, c.include_right_extreme, c])
        elif isinstance(c, ExtremeSingleton):
            if c.side == 0:
                left_single = c
            else:
                right_single = c
        else:
            raise TypeError(f"{c!r} is not a double arrow base set")
    intervals.sort(key=lambda it: (it[0], it[1]))
    merged: list[list] = []
    for it in intervals:
        if merged and it[0] <= merged[-1][1]:
            cur = merged[-1]
            cur[1] = max(cur[1], it[1])
            cur[2] = cur[2] or it[2]
            cur[3] = cur[3] or it[3]
        else:
            merged.append(list(it))
    if left_single:
        if merged and merged[0][0] == 0:
            merged[0][2] = True
            left_single = None
    if right_single:
        if merged and merged[-1][1] == 1:
            merged[-1][3] = True
            right_single = None
    out: list[BasicOpenSet] = []
    if left_single:
        out.append(left_single)
    for a, b, fl, fr, first in merged:
        unchanged = (b, fl, fr) == (first.b, first.include_left_extreme, first.include_right_extreme)
        out.append(first if unchanged else ClopenInterval(a, b, fl, fr))
    if right_single:
        out.append(right_single)
    return out


def _canonical_niemytzki(components: Sequence[BasicOpenSet]) -> list[BasicOpenSet]:
    for c in components:
        if not isinstance(c, (InteriorDisc, TangentDisc)):
            raise TypeError(f"{c!r} is not a Niemytzki base set")
    kept: list[BasicOpenSet] = []
    for c in sorted(components, key=_sort_key):
        if any(basic_subset(c, k) for k in kept):
            continue
        kept = [k for k in kept if not basic_subset(k, c)]
        kept.append(c)
    kept.sort(key=_sort_key)
    # An axis-tangent interior disc adds its tangency point to the interior
    # of the closure; the union must already own that point.
    for c in kept:
        if isinstance(c, InteriorDisc) and c.axis_tangent:
            tangency = NiemytzkiPoint(c.cx, c.cy * 0)
            if not any(
                isinstance(k, TangentDisc) and eq(k.a, c.cx) for k in kept
            ):
                raise NotRegularOpenError(
                    f"tangency point ({c.cx}, 0) of {c!r} is interior to the "
                    "closure but not in the union",
                    tangency,
                )
    return kept


def validate_regular_open(
    space: Space, components: Sequence[BasicOpenSet]
) -> RegularOpenSet:
    """Canonicalize a finite union and certify its regular openness.

    Raises ``NotRegularOpenError`` (with a witness point in int cl S minus S)
    when the union is provably not regular open.
    """
    for c in components:
        if c.space is not space:
            raise SpaceMismatchError(f"component {c!r} not in {space}")
    if space is Space.SORGENFREY:
        canon = _canonical_sorgenfrey(components)
    elif space is Space.DOUBLE_ARROW:
        canon = _canonical_double_arrow(components)
    elif space is Space.NIEMYTZKI:
        canon = _canonical_niemytzki(components)
    else:
        raise ValueError(f"unknown space {space}")
    return RegularOpenSet(space, tuple(canon))


# ---------------------------------------------------------------------------
# parametric chains


@dataclass(frozen=True)
class ParamValue:
    """Parameter trajectory c0 + c1/(n+shift) + c2/(n+shift)^2 with limit c0."""

    const: Scalar
    over_n: Scalar = Fraction(0)
    over_n2: Scalar = Fraction(0)
    shift: int = 0

    def __post_init__(self):
        object.__setattr__(self, "const", as_scalar(self.const))
        object.__setattr__(self, "over_n", as_scalar(self.over_n))
        object.__setattr__(self, "over_n2", as_scalar(self.over_n2))

    def at(self, n: int) -> Scalar:
        d = n + self.shift
        if d <= 0:
            raise ValueError(f"parameter index {n} with shift {self.shift} not positive")
        c0, c1, c2 = self.const, self.over_n, self.over_n2
        if type(c0) is Fraction and type(c1) is Fraction and type(c2) is Fraction:
            # one Fraction over the common denominator c0d c1d c2d d^2
            an, ad = c0.as_integer_ratio()
            bn, bd = c1.as_integer_ratio()
            cn, cd = c2.as_integer_ratio()
            return Fraction((an * bd * d + bn * ad) * cd * d + cn * ad * bd, ad * bd * cd * d * d)
        value = c0
        for coeff, den in ((c1, d), (c2, d * d)):
            if coeff or isinstance(coeff, float):  # an exact zero term adds nothing
                value = value + coeff / den
        return value

    def limit(self) -> Scalar:
        return self.const

    def end_rates(self) -> tuple[Scalar, Scalar]:
        """The rate c1 + c2 u at u = t_1 + t_2 and at u = 0, t_n = 1/(n + shift):
        v(n+1) - v(n) = -(t_n - t_{n+1}) (c1 + c2 (t_n + t_{n+1})), so a convex
        condition on the rates holds at every step exactly when it holds at
        these two ends (docs/derivations.md, "Nesting for every n")."""
        if 1 + self.shift <= 0:
            raise ValueError(f"shift {self.shift} leaves no index n >= 1")
        u1 = Fraction(1, 1 + self.shift) + Fraction(1, 2 + self.shift)
        return self.over_n + self.over_n2 * u1, self.over_n

    def strict_side(self) -> int:
        """+1 when every element n >= 1 lies strictly above the limit, -1 when
        every one lies strictly below, 0 otherwise (exact).

        The offset c1 t + c2 t^2 with t = 1/(n + shift) has the sign of
        c1 + c2 t, which ``tail_positive`` decides for every n at once.
        """
        c1, c2 = self.over_n, self.over_n2
        if tail_positive((c1, c2), self.shift):
            return 1
        return -1 if tail_positive((-c1, -c2), self.shift) else 0


def tail_positive(coeffs: Sequence[Scalar], shift: int, strict: bool = True) -> bool:
    """Whether q(t) = c0 + c1 t + c2 t^2 is > 0 (``strict``) or >= 0 at every
    t in (0, 1/(1 + shift)], hence at every t = 1/(n + shift) with n >= 1.

    A zero constant term divides out one t, which keeps the sign on t > 0.
    Once q(0) is nonzero, q keeps its sign on (0, T] exactly when q(0), q(T)
    and, for a convex q whose vertex lies in [0, T], the vertex value all
    have it: a quadratic attains its extremes on [0, T] at those points
    (docs/derivations.md, "Convergence certificates").  Rationals are
    decided exactly, binary64 coefficients through ``lt``/``le``.
    """
    if 1 + shift <= 0:
        raise ValueError(f"shift {shift} leaves no index n >= 1")
    coeffs = list(coeffs)
    while coeffs and is_zero(coeffs[0]):
        coeffs.pop(0)
    if not coeffs:
        return not strict  # q vanishes identically
    if not lt(0, coeffs[0]):
        return False  # q takes the sign of q(0) near t = 0
    if not any(coeffs[1:]):
        return True  # a positive constant
    q0, q1, q2 = (coeffs + [0, 0])[:3]
    T = Fraction(1, 1 + shift)
    values = [q0 + q1 * T + q2 * T * T]
    if q2 > 0 and 0 <= -q1 <= 2 * q2 * T:  # the vertex -q1/(2 q2) lies in [0, T]
        values.append(q0 - q1 * q1 / (4 * q2))
    holds = lt if strict else le
    return all(holds(0, v) for v in values)


_PARAM_FIELDS = {
    "half_open": ("a", "b"),
    "open_interval": ("a", "b"),
    "clopen_interval": ("a", "b"),
    "interior_disc": ("cx", "cy", "r"),
    "tangent_disc": ("a", "r"),
}

#: a clopen lane's flags for its extreme points, by side
_FLAG_NAMES = ("include_left_extreme", "include_right_extreme")

_KIND_TO_CLS = {
    "half_open": HalfOpen,
    "open_interval": OpenInterval,
    "clopen_interval": ClopenInterval,
    "interior_disc": InteriorDisc,
    "tangent_disc": TangentDisc,
}


@dataclass(frozen=True)
class ParametricBasicSet:
    """A base element whose parameters are functions of the chain index."""

    kind: str
    params: dict
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _PARAM_FIELDS:
            raise ValueError(f"unknown parametric kind {self.kind!r}")
        expected = _PARAM_FIELDS[self.kind]
        if set(self.params) != set(expected):
            raise ValueError(f"{self.kind} needs params {expected}, got {set(self.params)}")

    def at(self, n: int) -> BasicOpenSet:
        values = {name: pv.at(n) for name, pv in self.params.items()}
        return _KIND_TO_CLS[self.kind](**values, **self.flags)

    def limit_values(self) -> dict:
        return {name: pv.limit() for name, pv in self.params.items()}

    def limit_size(self) -> Scalar:
        """The width b - a or the radius r at the limit parameters."""
        lim = self.limit_values()
        return lim["r"] if "r" in lim else lim["b"] - lim["a"]

    def limit_element(self) -> Optional[BasicOpenSet]:
        """The base element at the limit parameters, or None when the limit
        degenerates: the interval endpoints meet or the radius reaches 0.

        Every other constraint of a base element is closed (r <= cy, r <= 1,
        0 <= a, b <= 1, extreme flags only at a fixed endpoint), so the limit
        of a valid lane keeps it.
        """
        if lt(0, self.limit_size()):
            return _KIND_TO_CLS[self.kind](**self.limit_values(), **self.flags)
        return None

    def check_decreasing(self) -> None:
        """Raise unless element n+1 lies in element n and has a positive size
        for every n >= 1, given a valid element 1 (docs/derivations.md,
        "Nesting for every n")."""
        moving = {pv.shift for pv in self.params.values() if pv.over_n or pv.over_n2}
        if self.kind in ("interior_disc", "tangent_disc") and len(moving) > 1:
            raise MalformedChainError(
                f"the moving parameters of a {self.kind} lane need one shift, got {sorted(moving)}"
            )
        rates = {name: pv.end_rates() for name, pv in self.params.items()}
        for end, where in enumerate(("from n=1 to n=2", "for large n")):
            if not _steps_nest(self.kind, self.flags, {name: r[end] for name, r in rates.items()}):
                raise NonMonotoneChainError(f"{self.kind} lane not decreasing {where}")
        if lt(self.limit_size(), 0):
            raise MalformedChainError(f"{self.kind} lane shrinks below size 0")


def _steps_nest(kind: str, flags: dict, rates: dict) -> bool:
    """Whether element n+1 lies in element n when each parameter steps by
    -delta * rates[name], delta > 0 (one delta per disc lane)."""
    if kind in ("half_open", "clopen_interval"):
        fixed = [rates[end] for end, name in zip("ab", _FLAG_NAMES) if flags.get(name)]
        return le(rates["a"], 0) and le(0, rates["b"]) and all(is_zero(r) for r in fixed)
    if kind == "tangent_disc":
        return is_zero(rates["a"]) and le(0, rates["r"])
    return le(0, rates["r"]) and le(sq(rates["cx"]) + sq(rates["cy"]), sq(rates["r"]))


def lane_keeps(comp: ParametricBasicSet, p: Point) -> bool:
    """Whether p lies in every element of a decreasing lane: in the limit
    interval, with an endpoint only when its parameter approaches strictly
    from outside, or a flagged extreme; in the open limit disc, or a tangent
    lane's tangency point.  A point of the limit circle is answered False,
    also where a strict approach keeps it."""
    if comp.kind == "half_open":
        a, b = comp.params["a"], comp.params["b"]
        return p.x >= a.limit() and (p.x < b.limit() or (p.x == b.limit() and b.strict_side() > 0))
    if comp.kind == "clopen_interval":
        if p.extreme:
            return bool(comp.flags.get(_FLAG_NAMES[p.side]))
        a, b = comp.params["a"], comp.params["b"]
        left = p.t > a.limit() or (p.t == a.limit() and (p.side == 1 or a.strict_side() < 0))
        right = p.t < b.limit() or (p.t == b.limit() and (p.side == 0 or b.strict_side() > 0))
        return left and right
    if comp.kind == "tangent_disc" and is_zero(p.y):
        return basic_member(comp.at(1), p)  # every element has the one tangency point
    el = comp.limit_element()
    return el is not None and basic_member(el, p)


@dataclass(frozen=True)
class DecreasingChain:
    """A decreasing parametric family of regular open sets, valid once built.

    Construction builds element 1 and decides that each lane nests for every
    n (``ParametricBasicSet.check_decreasing``).  Open intervals are no
    chain lanes (they are not regular open).  The first components of a
    Niemytzki chain have pairwise disjoint closed hulls, so that the
    intersection distributes over the lanes.
    """

    space: Space
    components: tuple[ParametricBasicSet, ...]

    def __post_init__(self):
        firsts = []
        for comp in self.components:
            if comp.kind == "open_interval":
                raise MalformedChainError("open intervals are not regular open chain elements")
            firsts.append(comp.at(1))
            if firsts[-1].space is not self.space:
                raise SpaceMismatchError(f"{comp.kind} lane in a {self.space.value} chain")
            comp.check_decreasing()
        validate_regular_open(self.space, firsts)  # nesting keeps the later elements regular open
        if self.space is Space.NIEMYTZKI and not separated_hulls(firsts):
            raise MalformedChainError(
                "multi-component Niemytzki chains need pairwise disjoint component lanes"
            )

    def at(self, n: int) -> RegularOpenSet:
        return validate_regular_open(self.space, [c.at(n) for c in self.components])

    @cached_property
    def interior(self) -> RegularOpenSet:
        """``decreasing_chain_interior(self)``, computed once per chain."""
        return decreasing_chain_interior(self)


def separated_hulls(discs: Sequence[BasicOpenSet]) -> bool:
    """True when the closed hulls of the discs are pairwise disjoint."""
    return all(
        lt(sq(a.r + b.r), sq_dist(a.center, b.center))
        for i, a in enumerate(discs)
        for b in discs[i + 1 :]
    )


def decreasing_chain_interior(chain: DecreasingChain) -> RegularOpenSet:
    """Interior of the intersection of a decreasing chain, in closed form.

    Each lane contributes its limit element (docs/derivations.md, "Chain
    limits").  A lane whose limit degenerates contributes nothing, except
    that a pinched double arrow lane keeps the extreme points it flags: the
    flags hold only at a fixed endpoint, so every element keeps them.  The
    result may be the empty set.
    """
    out: list[BasicOpenSet] = []
    for comp in chain.components:
        el = comp.limit_element()
        if el is None:
            if comp.kind == "clopen_interval":  # pinched: only flagged extremes remain
                flags = [comp.flags.get(name) for name in _FLAG_NAMES]
                out += [ExtremeSingleton(side) for side, flag in enumerate(flags) if flag]
        else:
            out.append(el)
    return validate_regular_open(chain.space, out)
