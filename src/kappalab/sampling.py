"""Deterministic seeded generators for points, sets, pairs and certificates.

Every generator takes an explicit ``random.Random`` so that a seed pins the
whole sample stream.  Generated configurations keep safety margins away from
case boundaries of the piecewise formulas (1/16 separation, 1/128 interval
margins) so that exactness and tail tolerances hold by construction rather
than by luck.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .basesets import (
    BasicOpenSet,
    ClopenInterval,
    ExtremeSingleton,
    HalfOpen,
    InteriorDisc,
    TangentDisc,
)
from .convergence import ConvergenceCertificate
from .rosets import (
    DecreasingChain,
    ParametricBasicSet,
    ParamValue,
    RegularOpenSet,
    validate_regular_open,
)
from .spaces import DoubleArrowPoint, NiemytzkiPoint, Point, SorgenfreyPoint, Space

#: condition 3 evaluates a certificate's points n = TAIL_START..SEQUENCE_LENGTH
TAIL_START = 100
SEQUENCE_LENGTH = 128


def rand_dyadic(rng: random.Random, lo: Fraction, hi: Fraction, depth: int = 8) -> Fraction:
    """lo + k/2^depth for a uniform k with the result in [lo, hi]; lo itself,
    with no draw, when hi - lo < 2^-depth.  Computed on the integer terms of
    lo and hi (docs/derivations.md, "Double arrow space")."""
    ln, ld = lo.as_integer_ratio()
    hn, hd = hi.as_integer_ratio()
    # floor((hi - lo) 2^depth)
    steps = ((hn * ld - ln * hd) << depth) // (hd * ld)
    if steps <= 0:
        return Fraction(ln, ld)
    return Fraction((ln << depth) + rng.randrange(steps + 1) * ld, ld << depth)


# ---------------------------------------------------------------------------
# sets


def sample_sorgenfrey_set(rng: random.Random, max_components: int = 3) -> RegularOpenSet:
    k = rng.randint(1, max_components)
    cuts = sorted(
        {rand_dyadic(rng, Fraction(-4), Fraction(4)) for _ in range(2 * k + 2)}
    )
    comps = []
    i = 0
    while i + 1 < len(cuts) and len(comps) < k:
        if cuts[i] < cuts[i + 1]:
            comps.append(HalfOpen(cuts[i], cuts[i + 1]))
        i += 2
    if not comps:
        comps = [HalfOpen(Fraction(0), Fraction(1))]
    return validate_regular_open(Space.SORGENFREY, comps)


def sample_double_arrow_set(rng: random.Random, max_components: int = 3) -> RegularOpenSet:
    k = rng.randint(1, max_components)
    cuts = sorted(
        {rand_dyadic(rng, Fraction(1, 32), Fraction(31, 32)) for _ in range(2 * k + 2)}
    )
    comps: list[BasicOpenSet] = []
    i = 0
    while i + 1 < len(cuts) and len(comps) < k:
        if cuts[i] < cuts[i + 1]:
            comps.append(ClopenInterval(cuts[i], cuts[i + 1]))
        i += 2
    if not comps:
        comps = [ClopenInterval(Fraction(1, 4), Fraction(3, 4))]
    roll = rng.random()
    if roll < 0.15:
        comps.append(ClopenInterval(Fraction(0), Fraction(1, 64), include_left_extreme=True))
    elif roll < 0.25:
        comps.append(ExtremeSingleton(rng.randint(0, 1)))
    return validate_regular_open(Space.DOUBLE_ARROW, comps)


def sample_niemytzki_component(rng: random.Random) -> BasicOpenSet:
    if rng.random() < 0.5:
        a = rand_dyadic(rng, Fraction(-3), Fraction(3))
        r = rand_dyadic(rng, Fraction(1, 16), Fraction(1))
        return TangentDisc(a, r)
    cx = rand_dyadic(rng, Fraction(-3), Fraction(3))
    cy = rand_dyadic(rng, Fraction(1, 4), Fraction(2))
    # keep r strictly below cy: an uncovered axis-tangent disc is not regular open
    r_hi = min(Fraction(1), cy * Fraction(3, 4))
    r = rand_dyadic(rng, Fraction(1, 16), r_hi)
    return InteriorDisc(cx, cy, r)


def sample_niemytzki_set(rng: random.Random, max_components: int = 3) -> RegularOpenSet:
    k = rng.randint(1, max_components)
    comps = [sample_niemytzki_component(rng) for _ in range(k)]
    return validate_regular_open(Space.NIEMYTZKI, comps)


def sample_niemytzki_set_separated(
    rng: random.Random, max_components: int = 3
) -> RegularOpenSet:
    """A union whose components live in disjoint x-bands (exact value path)."""
    k = rng.randint(1, max_components)
    comps = []
    for i in range(k):
        band = Fraction(8 * i)
        if rng.random() < 0.5:
            a = band + rand_dyadic(rng, Fraction(-1), Fraction(1))
            r = rand_dyadic(rng, Fraction(1, 16), Fraction(1))
            comps.append(TangentDisc(a, r))
        else:
            cx = band + rand_dyadic(rng, Fraction(-1), Fraction(1))
            cy = rand_dyadic(rng, Fraction(1, 4), Fraction(2))
            r_hi = min(Fraction(1), cy * Fraction(3, 4))
            comps.append(InteriorDisc(cx, cy, rand_dyadic(rng, Fraction(1, 16), r_hi)))
    return validate_regular_open(Space.NIEMYTZKI, comps)


def sample_set(space: Space, rng: random.Random, max_components: int = 3) -> RegularOpenSet:
    if space is Space.SORGENFREY:
        return sample_sorgenfrey_set(rng, max_components)
    if space is Space.DOUBLE_ARROW:
        return sample_double_arrow_set(rng, max_components)
    return sample_niemytzki_set(rng, max_components)


# ---------------------------------------------------------------------------
# points


def sample_point(space: Space, rng: random.Random) -> Point:
    if space is Space.SORGENFREY:
        return SorgenfreyPoint(rand_dyadic(rng, Fraction(-5), Fraction(5), depth=10))
    if space is Space.DOUBLE_ARROW:
        roll = rng.random()
        if roll < 0.05:
            side = rng.randint(0, 1)
            return DoubleArrowPoint(Fraction(side), side)
        return DoubleArrowPoint(
            rand_dyadic(rng, Fraction(0), Fraction(1), depth=10), rng.randint(0, 1)
        )
    roll = rng.random()
    x = rand_dyadic(rng, Fraction(-4), Fraction(4), depth=10)
    if roll < 0.2:
        return NiemytzkiPoint(x, Fraction(0))
    return NiemytzkiPoint(x, rand_dyadic(rng, Fraction(1, 1024), Fraction(3), depth=10))


def sample_point_near_set(U: RegularOpenSet, rng: random.Random) -> Point:
    """Points biased toward the set: interior, near-boundary and outside."""
    if U.is_empty:
        return sample_point(U.space, rng)
    c = rng.choice(U.components)
    roll = rng.random()
    if U.space is Space.SORGENFREY:
        if roll < 0.5:
            return SorgenfreyPoint(rand_dyadic(rng, c.a, c.b - Fraction(1, 256)))
        if roll < 0.7:
            return SorgenfreyPoint(c.a)
        if roll < 0.85:
            return SorgenfreyPoint(c.b)
        return sample_point(U.space, rng)
    if U.space is Space.DOUBLE_ARROW:
        if isinstance(c, ExtremeSingleton):
            return c.point
        if roll < 0.4:
            return DoubleArrowPoint(
                rand_dyadic(rng, c.a, c.b, depth=10), rng.randint(0, 1)
            )
        if roll < 0.55:
            return DoubleArrowPoint(c.a, 1)
        if roll < 0.7:
            return DoubleArrowPoint(c.b, 0)
        if roll < 0.8:
            return DoubleArrowPoint(c.a, 0)
        return sample_point(U.space, rng)
    if isinstance(c, TangentDisc):
        if roll < 0.25:
            return NiemytzkiPoint(c.a, Fraction(0))
        if roll < 0.6:
            t = rand_dyadic(rng, Fraction(1, 64), Fraction(15, 8))
            return NiemytzkiPoint(c.a, c.r * t)  # on the vertical axis of the disc
        if roll < 0.85:
            dx = rand_dyadic(rng, -c.r / 2, c.r / 2)
            return NiemytzkiPoint(c.a + dx, c.r)
        return sample_point(U.space, rng)
    if roll < 0.4:
        return NiemytzkiPoint(c.cx, c.cy)
    if roll < 0.7:
        dx = rand_dyadic(rng, -c.r, c.r)
        dy = rand_dyadic(rng, -c.r / 2, c.r / 2)
        return NiemytzkiPoint(c.cx + dx, max(Fraction(0), c.cy + dy))
    return sample_point(U.space, rng)


# ---------------------------------------------------------------------------
# nested pairs (for the monotonicity condition)


def _shrink_component(c: BasicOpenSet, rng: random.Random) -> BasicOpenSet | None:
    if isinstance(c, HalfOpen):
        width = c.b - c.a
        da = width * Fraction(rng.randrange(0, 4), 16)
        db = width * Fraction(rng.randrange(1, 4), 16)
        if c.a + da < c.b - db:
            return HalfOpen(c.a + da, c.b - db)
        return None
    if isinstance(c, ClopenInterval):
        width = c.b - c.a
        da = width * Fraction(rng.randrange(0, 4), 16)
        db = width * Fraction(rng.randrange(0, 4), 16)
        if c.a + da < c.b - db:
            keep_left = c.include_left_extreme and da == 0
            keep_right = c.include_right_extreme and db == 0
            return ClopenInterval(c.a + da, c.b - db, keep_left, keep_right)
        return None
    if isinstance(c, ExtremeSingleton):
        return c
    if isinstance(c, TangentDisc):
        r = c.r * Fraction(rng.randrange(8, 16), 16)
        return TangentDisc(c.a, r)
    if isinstance(c, InteriorDisc):
        r = c.r * Fraction(rng.randrange(8, 16), 16)
        shift = (c.r - r) * Fraction(rng.randrange(0, 16), 16)
        return InteriorDisc(c.cx + shift, c.cy, r)
    return None


def sample_nested_pair(
    space: Space, rng: random.Random
) -> tuple[RegularOpenSet, RegularOpenSet]:
    """U <= V with the inclusion exact by construction."""
    if space is Space.NIEMYTZKI:
        V = sample_niemytzki_set_separated(rng)  # keeps both values on the exact path
    else:
        V = sample_set(space, rng)
    keep = [c for c in V.components if rng.random() < 0.8] or [V.components[0]]
    shrunk = [s for s in (_shrink_component(c, rng) for c in keep) if s is not None]
    if not shrunk:
        shrunk = [V.components[0]]
    U = validate_regular_open(space, shrunk)
    return U, V


# ---------------------------------------------------------------------------
# convergence certificates with controlled continuity rates


def sorgenfrey_certificate(x: Fraction, c: Fraction) -> ConvergenceCertificate:
    """Right approach x + c/n^2 -> x inside [x, x + 2c/n^2)."""
    return ConvergenceCertificate(
        SorgenfreyPoint(x), (ParamValue(x, 0, c),), ParamValue(0, 0, 2 * c)
    )


def double_arrow_certificate(t: Fraction, side: int, c: Fraction) -> ConvergenceCertificate:
    """Approach (t -+ c/n^2, 1 - side) -> (t, side) inside intervals of length 2c/n^2."""
    step = -c if side == 0 else c
    return ConvergenceCertificate(
        DoubleArrowPoint(t, side), (ParamValue(t, 0, step),), ParamValue(0, 0, 2 * c), 1 - side
    )


def niemytzki_axis_certificate(a: Fraction, slope: Fraction, y0: Fraction) -> ConvergenceCertificate:
    """Approach (a + slope*y_n, y_n) -> (a, 0) with y_n = y0 / n^2.

    Members sit inside the shrinking tangent discs B*(a, (1 + slope^2) y_n):
    the membership inequality clears to y (1 + slope^2) < 2 rho exactly.
    """
    rho0 = (1 + slope * slope) * y0
    if rho0 > 1:
        raise ValueError("first witness radius exceeds 1; shrink y0")
    return ConvergenceCertificate(
        NiemytzkiPoint(a, Fraction(0)),
        (ParamValue(a, 0, slope * y0), ParamValue(0, 0, y0)),
        ParamValue(0, 0, rho0),
    )


def niemytzki_interior_certificate(x: Fraction, y: Fraction, d: Fraction) -> ConvergenceCertificate:
    """Horizontal approach (x + d/n^2, y) -> (x, y), y > 0, d <= y/4."""
    if d > y / 4:
        raise ValueError("horizontal step too large for disc witnesses")
    return ConvergenceCertificate(
        NiemytzkiPoint(x, y), (ParamValue(x, 0, d), ParamValue(y)), ParamValue(0, 0, 2 * d)
    )


def sample_certificates(
    space: Space, rng: random.Random, n: int
) -> list[ConvergenceCertificate]:
    out = []
    for _ in range(n):
        if space is Space.SORGENFREY:
            x = rand_dyadic(rng, Fraction(-3), Fraction(3))
            c = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 2))
            out.append(sorgenfrey_certificate(x, c))
        elif space is Space.DOUBLE_ARROW:
            side = rng.randint(0, 1)
            if side == 0:
                t = rand_dyadic(rng, Fraction(1, 4), Fraction(1))
            else:
                t = rand_dyadic(rng, Fraction(0), Fraction(3, 4))
            c = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 16))
            out.append(double_arrow_certificate(t, side, c))
        else:
            if rng.random() < 0.6:
                a = rand_dyadic(rng, Fraction(-2), Fraction(2))
                slope = Fraction(rng.randrange(0, 21), 400)  # 0 .. 1/20
                y0 = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 4))
                out.append(niemytzki_axis_certificate(a, slope, y0))
            else:
                x = rand_dyadic(rng, Fraction(-2), Fraction(2))
                y = rand_dyadic(rng, Fraction(1, 4), Fraction(2))
                d = rand_dyadic(rng, Fraction(1, 256), y / 4)
                out.append(niemytzki_interior_certificate(x, y, d))
    return out


# ---------------------------------------------------------------------------
# sets paired with certificates, margins enforced


def _sorgenfrey_margin_ok(U: RegularOpenSet, x: Fraction, margin: Fraction) -> bool:
    for c in U.components:
        if c.a <= x < c.b:
            return c.b - x > margin  # room on the right inside the component
        if x < c.a <= x + margin:
            return False  # a component opens just right of the limit
    return True


def _double_arrow_margin_ok(U: RegularOpenSet, t: Fraction, margin: Fraction) -> bool:
    for c in U.components:
        if isinstance(c, ExtremeSingleton):
            continue
        for endpoint in (c.a, c.b):
            if endpoint != t and abs(endpoint - t) <= margin:
                return False
    return True


def _niemytzki_margin_ok(U: RegularOpenSet, limit: NiemytzkiPoint, margin: Fraction) -> bool:
    from .numerics import sq
    from .spaces import sq_dist

    for c in U.components:
        if limit.on_axis:
            if isinstance(c, TangentDisc):
                if limit.x == c.a:
                    continue  # the tangency point: value converges to r exactly
                if abs(limit.x - c.a) <= margin:
                    return False
            # sampled interior discs stay at least cy/4 above the axis
            continue
        d2 = sq_dist(limit, c.center)
        lo = c.r - margin
        lo2 = sq(lo) if lo > 0 else Fraction(0)
        # keep the limit clearly inside or clearly outside the closed disc
        if lo2 < d2 < sq(c.r + margin):
            return False
        if isinstance(c, TangentDisc):
            # stay clear of the formula junction y = r unless on the disc axis
            if limit.x != c.a and abs(limit.y - c.r) <= margin and d2 < sq(c.r):
                return False
    return True


def sample_condition3_pairs(
    space: Space, rng: random.Random, n: int
) -> list[tuple[RegularOpenSet, ConvergenceCertificate]]:
    """(set, certificate) pairs whose tail deviations obey the 1e-3 budget.

    The limit is kept clear of every formula case boundary (margin 1/16), so
    along the tail the family value either converges at the damped rate of
    the certificate or is exactly 0/constant.
    """
    margin = Fraction(1, 16)
    out = []
    guard = 0
    while len(out) < n and guard < 50 * n:
        guard += 1
        cert = sample_certificates(space, rng, 1)[0]
        if space is Space.NIEMYTZKI:
            U = sample_niemytzki_set_separated(rng)  # exact value path on tails
        else:
            U = sample_set(space, rng)
        limit = cert.limit
        if space is Space.SORGENFREY:
            if not _sorgenfrey_margin_ok(U, limit.x, margin):
                continue
        elif space is Space.DOUBLE_ARROW:
            if not _double_arrow_margin_ok(U, limit.t, margin):
                continue
        else:
            if not _niemytzki_margin_ok(U, limit, margin):
                continue
        out.append((U, cert))
    if len(out) < n:
        raise RuntimeError("could not build enough margin-respecting pairs")
    return out


def sample_condition3_pairs_g(
    rng: random.Random, n: int
) -> list[tuple[RegularOpenSet, ConvergenceCertificate]]:
    """(single tangent disc, certificate) pairs for the axis-normalized family.

    The limit is either the disc's own tangency point (value converges to 1)
    or an axis point at least 1/16 away (tail values are exactly 0).
    """
    out = []
    while len(out) < n:
        # r bounded below and y0 above: the normalization multiplies the tail
        # deviation by 1/r, so the budget needs y0/r and slope/sqrt(r) small
        r = rand_dyadic(rng, Fraction(1, 8), Fraction(1))
        a = rand_dyadic(rng, Fraction(-2), Fraction(2))
        U = validate_regular_open(Space.NIEMYTZKI, [TangentDisc(a, r)])
        if rng.random() < 0.6:
            limit_x = a
        else:
            offset = rand_dyadic(rng, Fraction(1, 16), Fraction(1, 2))
            limit_x = a + offset if rng.random() < 0.5 else a - offset
        slope = Fraction(rng.randrange(0, 21), 400)
        y0 = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 8))
        out.append((U, niemytzki_axis_certificate(limit_x, slope, y0)))
    return out


# ---------------------------------------------------------------------------
# decreasing chains with declared limits


def sample_chain(space: Space, rng: random.Random, depth: int = 64) -> DecreasingChain:
    if space is Space.SORGENFREY:
        a0 = rand_dyadic(rng, Fraction(-2), Fraction(2))
        width = rand_dyadic(rng, Fraction(1, 8), Fraction(2))
        ca = rand_dyadic(rng, Fraction(0), Fraction(1, 4))
        cb = rand_dyadic(rng, Fraction(0), Fraction(1, 4))
        comp = ParametricBasicSet(
            "half_open",
            {"a": ParamValue(a0, -ca), "b": ParamValue(a0 + width, cb)},
        )
        return DecreasingChain(space, (comp,), depth)
    if space is Space.DOUBLE_ARROW:
        a0 = rand_dyadic(rng, Fraction(1, 8), Fraction(3, 8))
        b0 = rand_dyadic(rng, Fraction(1, 2), Fraction(7, 8))
        ca = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 16))
        cb = rand_dyadic(rng, Fraction(0), Fraction(1, 16))
        comp = ParametricBasicSet(
            "clopen_interval",
            {"a": ParamValue(a0, -ca), "b": ParamValue(b0, cb)},
        )
        return DecreasingChain(space, (comp,), depth)
    if rng.random() < 0.5:
        a = rand_dyadic(rng, Fraction(-2), Fraction(2))
        r0 = rand_dyadic(rng, Fraction(1, 8), Fraction(3, 4))
        cr = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 4))
        comp = ParametricBasicSet("tangent_disc", {"a": ParamValue(a), "r": ParamValue(r0, cr)})
        return DecreasingChain(space, (comp,), depth)
    cx = rand_dyadic(rng, Fraction(-2), Fraction(2))
    cy = rand_dyadic(rng, Fraction(1, 2), Fraction(2))
    r_hi = min(Fraction(1, 2), cy / 2)
    r0 = rand_dyadic(rng, Fraction(1, 8), r_hi)
    cr = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 8))
    dx = cr * Fraction(rng.randrange(0, 16), 16)  # center drift bounded by radius decay
    comp = ParametricBasicSet(
        "interior_disc",
        {"cx": ParamValue(cx, dx), "cy": ParamValue(cy), "r": ParamValue(r0, cr)},
    )
    return DecreasingChain(space, (comp,), depth)


def double_arrow_pinch_chain(depth: int = 64) -> DecreasingChain:
    """The clopen chain [(x_k, 1), (1/5, 0)] with x_k increasing to 1/10."""
    comp = ParametricBasicSet(
        "clopen_interval",
        {
            "a": ParamValue(Fraction(1, 10), Fraction(-1, 10), Fraction(0), 1),
            "b": ParamValue(Fraction(1, 5)),
        },
    )
    return DecreasingChain(Space.DOUBLE_ARROW, (comp,), depth)
