"""Certified convergence: a parametric sequence inside shrinking neighborhoods.

A certificate is a limit, a sequence given as one ``ParamValue`` per
coordinate (the double arrow side stays fixed) and a witness size s given as
one ``ParamValue``.  All of them share one shift, so the n-th point x_n and
the n-th witness W_n are functions of t = 1/(n + shift).  Convergence is
never inferred from sampled points: ``verify_convergence`` decides exactly,
for every n >= 1 at once, that x_n lies in W_n.

Witness shapes are pinned per position of the limit, with size s_n:

* Sorgenfrey x: the half-open interval [x, x + s_n).
* Double arrow (t, 0): the left interval [(t - s_n, 1), (t, 0)]; (t, 1): the
  right interval [(t, 1), (t + s_n, 0)]; the isolated extremes: their
  singleton.
* Niemytzki (a, 0): the tangent disc B*(a, s_n).
* Niemytzki (x, y), y > 0: the disc B((x, y), s_n).

The size has constant term 0 and shrinks strictly, so the witnesses nest
and shrink to the limit: x_n in W_n for every n puts each tail inside its
witness, and the sequence converges (docs/derivations.md, "Convergence
certificates").
"""

from __future__ import annotations

from dataclasses import dataclass

from .basesets import (
    BasicOpenSet,
    ClopenInterval,
    ExtremeSingleton,
    HalfOpen,
    InteriorDisc,
    TangentDisc,
)
from .rosets import ParamValue, tail_positive
from .spaces import DoubleArrowPoint, NiemytzkiPoint, Point, SorgenfreyPoint, Space, check_side

#: the limit coordinates a sequence coordinate converges to, in order
_COORDS = {
    Space.SORGENFREY: ("x",),
    Space.DOUBLE_ARROW: ("t",),
    Space.NIEMYTZKI: ("x", "y"),
}


class MalformedWitnessError(ValueError):
    """Witness sizes that do not shrink strictly to 0, or that build no base set."""


@dataclass(frozen=True)
class ConvergenceCertificate:
    limit: Point
    sequence: tuple[ParamValue, ...]
    size: ParamValue
    side: int = 0  # the side of every double arrow sequence point

    def __post_init__(self):
        coords = len(_COORDS[self.space])
        if len(self.sequence) != coords:
            raise ValueError(f"a {self.space.value} sequence has {coords} coordinates")
        if {pv.shift for pv in self.sequence} != {self.size.shift}:
            raise ValueError("the sequence and the size need one shift")
        if self.size.shift < 0:
            raise ValueError(f"shift {self.size.shift} leaves no index n >= 1")
        check_side(self.side)

    @property
    def space(self) -> Space:
        return self.limit.space

    def point(self, n: int) -> Point:
        """The n-th sequence point, n >= 1."""
        values = [pv.at(n) for pv in self.sequence]
        if self.space is Space.DOUBLE_ARROW:
            return DoubleArrowPoint(values[0], self.side)
        return (SorgenfreyPoint if self.space is Space.SORGENFREY else NiemytzkiPoint)(*values)

    def witness(self, n: int) -> BasicOpenSet:
        """The n-th witness: the pinned shape at the limit with size s_n."""
        lim, s = self.limit, self.size.at(n)
        if isinstance(lim, SorgenfreyPoint):
            return HalfOpen(lim.x, lim.x + s)
        if isinstance(lim, DoubleArrowPoint):
            if lim.extreme:
                return ExtremeSingleton(lim.side)
            if lim.side:
                return ClopenInterval(lim.t, lim.t + s)
            return ClopenInterval(lim.t - s, lim.t)
        if lim.on_axis:
            return TangentDisc(lim.x, s)
        return InteriorDisc(lim.x, lim.y, s)


def _mul(p, q) -> list:
    """Product of two linear polynomials, coefficients from t^0 up."""
    return [p[0] * q[0], p[0] * q[1] + p[1] * q[0], p[1] * q[1]]


def _combine(*terms) -> list:
    """Sum of weighted polynomials given as (weight, coefficients) pairs."""
    out = [0, 0, 0]
    for weight, poly in terms:
        for i, c in enumerate(poly):
            if c:
                out[i] += weight * c
    return out


def _containment(cert: ConvergenceCertificate) -> list[tuple[list, bool]]:
    """x_n in W_n as conditions (q, strict): q(t) > 0 (or >= 0) on the tail.

    Each offset x_n - limit is t (c1 + c2 t), and the size is t (s1 + s2 t),
    so every inequality of the membership test is t^k q(t) with q of degree
    at most 2; dividing out t^k > 0 leaves the sign of q.
    """
    e = [(pv.over_n, pv.over_n2) for pv in cert.sequence]
    s = (cert.size.over_n, cert.size.over_n2)
    lim = cert.limit
    if isinstance(lim, SorgenfreyPoint):  # 0 <= e < s
        return [(list(e[0]), False), (_combine((1, s), (-1, e[0])), True)]
    if isinstance(lim, DoubleArrowPoint):
        if lim.extreme:  # W_n is the isolated point alone: e vanishes
            return [(list(e[0]), False), (_combine((-1, e[0])), False)]
        # lo <= e <= hi in the order, each end closed on its own side
        lo, hi = ((0, 0), s) if lim.side else (_combine((-1, s)), (0, 0))
        return [
            (_combine((1, e[0]), (-1, lo)), cert.side == 0),
            (_combine((1, hi), (-1, e[0])), cert.side == 1),
        ]
    u, v = e
    if lim.on_axis:  # u^2 + v^2 < 2 v s, or the point is the limit itself
        q = _combine((-1, _mul(u, u)), (-1, _mul(v, v)), (2, _mul(v, s)))
        at_limit = not any((*u, *v))  # then q vanishes too
        return [(q, not at_limit)]
    # u^2 + v^2 < s^2
    return [(_combine((1, _mul(s, s)), (-1, _mul(u, u)), (-1, _mul(v, v))), True)]


def verify_convergence(cert: ConvergenceCertificate) -> bool:
    """Decide the certificate exactly for every n >= 1.

    Raises ``MalformedWitnessError`` unless the size has constant term 0,
    increases strictly in t (so s_n shrinks strictly in n and stays
    positive) and builds a base set at n = 1, the largest witness.  Returns
    False when a coordinate's constant term is not the limit's or some x_n
    leaves W_n.  Floats are compared through ``numerics.lt``/``le``.
    """
    size = cert.size
    if size.const != 0 or not tail_positive((size.over_n, 2 * size.over_n2), size.shift):
        raise MalformedWitnessError(f"witness sizes must shrink strictly to 0, got {size!r}")
    try:
        cert.witness(1)
    except ValueError as exc:
        raise MalformedWitnessError(f"the first witness is no base set: {exc}") from exc
    lim = cert.limit
    if any(pv.const != getattr(lim, c) for pv, c in zip(cert.sequence, _COORDS[cert.space])):
        return False
    if isinstance(lim, DoubleArrowPoint) and lim.extreme and cert.side != lim.side:
        return False  # the twin of an isolated extreme is not in its singleton
    return all(tail_positive(q, size.shift, strict) for q, strict in _containment(cert))
