"""Certified convergence: a sequence plus shrinking basic neighborhoods.

Convergence of a sequence in one of the three topologies is never inferred
from the points alone; callers attach witnesses -- strictly shrinking basic
neighborhoods of the declared limit -- and ``verify_convergence`` checks that
the n-th tail of the sequence sits inside the n-th witness.  This keeps every
sequential continuity test auditable: the witness family is the exact finite
evidence the test ran on.

Witness shapes are pinned per position of the limit:

* Sorgenfrey x: half-open intervals [x, x + d_n) with d_n strictly down.
* Double arrow (t, 0): left intervals [(s_n, 1), (t, 0)] with s_n strictly up
  (right intervals for (t, 1), singletons for the isolated extremes).
* Niemytzki (a, 0): tangent discs B*(a, r_n) with r_n strictly down.
* Niemytzki (x, y), y > 0: discs centered at the limit with radii strictly
  down.
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
    basic_member,
)
from .numerics import eq, lt
from .spaces import (
    DoubleArrowPoint,
    NiemytzkiPoint,
    Point,
    SorgenfreyPoint,
    Space,
    SpaceMismatchError,
)


class MalformedWitnessError(ValueError):
    """Witness family has the wrong shape for the limit's position."""


@dataclass(frozen=True)
class ConvergenceCertificate:
    space: Space
    sequence: tuple[Point, ...]
    limit: Point
    witnesses: tuple[BasicOpenSet, ...]

    def __post_init__(self):
        if not self.sequence:
            raise ValueError("certificate needs a non-empty sequence")
        for p in self.sequence:
            if p.space is not self.space:
                raise SpaceMismatchError("sequence member in wrong space")
        if self.limit.space is not self.space:
            raise SpaceMismatchError("limit in wrong space")
        for w in self.witnesses:
            if w.space is not self.space:
                raise SpaceMismatchError("witness in wrong space")


def _check_witness_shapes(cert: ConvergenceCertificate) -> None:
    limit = cert.limit
    ws = cert.witnesses
    if isinstance(limit, SorgenfreyPoint):
        for w in ws:
            if not isinstance(w, HalfOpen) or not eq(w.a, limit.x):
                raise MalformedWitnessError(
                    f"Sorgenfrey witnesses must be [x, x+d) at the limit, got {w!r}"
                )
        widths = [w.b - w.a for w in ws]
        _require_strictly_down(widths)
        return
    if isinstance(limit, DoubleArrowPoint):
        if limit.extreme:
            for w in ws:
                if not (isinstance(w, ExtremeSingleton) and w.side == limit.side):
                    raise MalformedWitnessError(
                        "the isolated extreme takes singleton witnesses"
                    )
            return
        if limit.side == 0:
            for w in ws:
                if not isinstance(w, ClopenInterval) or not eq(w.b, limit.t):
                    raise MalformedWitnessError(
                        f"witnesses of (t,0) must end at (t,0), got {w!r}"
                    )
            _require_strictly_down([limit.t - w.a for w in ws])
        else:
            for w in ws:
                if not isinstance(w, ClopenInterval) or not eq(w.a, limit.t):
                    raise MalformedWitnessError(
                        f"witnesses of (t,1) must start at (t,1), got {w!r}"
                    )
            _require_strictly_down([w.b - limit.t for w in ws])
        return
    if isinstance(limit, NiemytzkiPoint):
        if limit.on_axis:
            for w in ws:
                if not isinstance(w, TangentDisc) or not eq(w.a, limit.x):
                    raise MalformedWitnessError(
                        f"axis limits take tangent-disc witnesses at the limit, got {w!r}"
                    )
        else:
            for w in ws:
                if not isinstance(w, InteriorDisc) or not (
                    eq(w.cx, limit.x) and eq(w.cy, limit.y)
                ):
                    raise MalformedWitnessError(
                        f"interior limits take discs centered at the limit, got {w!r}"
                    )
        _require_strictly_down([w.r for w in ws])
        return
    raise TypeError(f"unknown limit {limit!r}")


def _require_strictly_down(values) -> None:
    for prev, cur in zip(values, values[1:]):
        if not lt(cur, prev):
            raise MalformedWitnessError("witnesses must shrink strictly")


def verify_convergence(cert: ConvergenceCertificate) -> bool:
    """Check the certificate: containment of the limit, tails, and shrinking.

    Returns False when some tail escapes its witness; raises
    ``MalformedWitnessError`` when the witnesses have the wrong shape for the
    limit's position.  The canonical witness shapes anchor at the limit and
    shrink strictly, so they decrease under inclusion and the n-th tail
    condition reduces to one membership test per index.
    """
    _check_witness_shapes(cert)
    for w in cert.witnesses:
        if not basic_member(w, cert.limit):
            return False
    for n, w in enumerate(cert.witnesses):
        if n >= len(cert.sequence):
            break  # empty tails hold vacuously
        if not basic_member(w, cert.sequence[n]):
            return False
    if len(cert.sequence) > len(cert.witnesses) and cert.witnesses:
        last = cert.witnesses[-1]
        for p in cert.sequence[len(cert.witnesses) :]:
            if not basic_member(last, p):
                return False
    return True
