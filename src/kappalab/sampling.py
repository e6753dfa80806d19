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
from .numerics import Scalar
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


def randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for an int n >= 1: the same value from the same
    ``getrandbits`` draws, without randrange's argument checks
    (docs/derivations.md, "The draw primitive").  ``randint(a, b)`` is
    a + randbelow(rng, b - a + 1) and ``choice(seq)`` is
    seq[randbelow(rng, len(seq))]."""
    if n < 1:
        raise ValueError(f"empty range for randbelow: {n}")
    getrandbits = rng.getrandbits
    k = n.bit_length()  # not (n - 1).bit_length(): n may be 1
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def dyadic_terms(
    rng: random.Random, ln: int, ld: int, hn: int, hd: int, depth: int = 8
) -> tuple[int, int]:
    """``rand_dyadic`` on integer terms: the draw lo + k/2^depth as an
    unreduced (numerator, positive denominator) pair, for lo = ln/ld and
    hi = hn/hd given by any terms with ld, hd > 0 (docs/derivations.md,
    "Sampling on integer terms")."""
    # floor((hi - lo) 2^depth)
    steps = ((hn * ld - ln * hd) << depth) // (hd * ld)
    if steps <= 0:
        return ln, ld
    return (ln << depth) + randbelow(rng, steps + 1) * ld, ld << depth


def rand_dyadic(rng: random.Random, lo: Scalar | int, hi: Scalar | int, depth: int = 8) -> Fraction:
    """lo + k/2^depth for a uniform k with the result in [lo, hi]; lo itself,
    with no draw, when hi - lo < 2^-depth.  The bounds are Fractions, ints or
    binary64, read by their integer terms (docs/derivations.md, "Double arrow
    space")."""
    return Fraction(*dyadic_terms(rng, *lo.as_integer_ratio(), *hi.as_integer_ratio(), depth))


def _plus(x: Fraction, n: int, d: int) -> Fraction:
    """x + n/d (d > 0), one Fraction from integer terms."""
    xn, xd = x.as_integer_ratio()
    return Fraction(xn * d + n * xd, xd * d)


def _times(x: Fraction, n: int, d: int) -> Fraction:
    """x * n/d (d > 0), one Fraction from integer terms."""
    xn, xd = x.as_integer_ratio()
    return Fraction(xn * n, xd * d)


_ZERO, _ONE = Fraction(0), Fraction(1)
#: the lowest off-axis sample point and the smallest sampled disc radius
_Y_MIN, _R_MIN = Fraction(1, 1024), Fraction(1, 16)
#: the isolated double arrow extremes (0, 0) and (1, 1)
_EXTREMES = (DoubleArrowPoint(_ZERO, 0), DoubleArrowPoint(_ONE, 1))

#: Cut numerators over 2^8 as (lowest, steps): a Sorgenfrey cut is
#: rand_dyadic(-4, 4) = (-1024 + k)/2^8 with k <= 2048, a double arrow cut
#: rand_dyadic(1/32, 31/32) = (8 + k)/2^8 with k <= 240
_SORGENFREY_CUTS = (-4 << 8, 8 << 8)
_DOUBLE_ARROW_CUTS = (8, 240)
#: the optional component {(0, 0)} + [(0, 1), (1/64, 0)] at the left extreme
_LEFT_EXTREME_INTERVAL = ClopenInterval(_ZERO, Fraction(1, 64), include_left_extreme=True)


# ---------------------------------------------------------------------------
# sets


def _paired_cuts(rng: random.Random, k: int, lowest: int, steps: int) -> list[tuple[int, int]]:
    """Up to k (left, right) numerators over 2^8 from 2k + 2 dyadic cuts:
    the draws deduplicated, sorted and paired off from the left, so every
    pair is in order and apart from the next."""
    cuts = sorted({lowest + randbelow(rng, steps + 1) for _ in range(2 * k + 2)})
    return list(zip(cuts[0::2], cuts[1::2]))[:k]


def sample_sorgenfrey_set(rng: random.Random, max_components: int = 3) -> RegularOpenSet:
    k = 1 + randbelow(rng, max_components)
    comps = [
        HalfOpen(Fraction(a, 256), Fraction(b, 256))
        for a, b in _paired_cuts(rng, k, *_SORGENFREY_CUTS)
    ] or [HalfOpen(_ZERO, _ONE)]
    return validate_regular_open(Space.SORGENFREY, comps)


def sample_double_arrow_set(rng: random.Random, max_components: int = 3) -> RegularOpenSet:
    k = 1 + randbelow(rng, max_components)
    comps: list[BasicOpenSet] = [
        ClopenInterval(Fraction(a, 256), Fraction(b, 256))
        for a, b in _paired_cuts(rng, k, *_DOUBLE_ARROW_CUTS)
    ] or [ClopenInterval(Fraction(1, 4), Fraction(3, 4))]
    roll = rng.random()
    if roll < 0.15:
        comps.insert(0, _LEFT_EXTREME_INTERVAL)  # it ends before the first cut: canonical order
    elif roll < 0.25:
        comps.append(ExtremeSingleton(randbelow(rng, 2)))
    return validate_regular_open(Space.DOUBLE_ARROW, comps)


def _sample_interior_disc(rng: random.Random, lo: int, hi: int) -> InteriorDisc:
    """B((cx, cy), r) with cx = rand_dyadic(lo, hi), cy = rand_dyadic(1/4, 2)
    and r = rand_dyadic(1/16, min(1, 3cy/4)): r stays strictly below cy, as
    an uncovered axis-tangent disc is not regular open."""
    cx = Fraction(*dyadic_terms(rng, lo, 1, hi, 1))
    cyn, cyd = dyadic_terms(rng, 1, 4, 2, 1)
    r_hi = (3 * cyn, 4 * cyd) if 3 * cyn < 4 * cyd else (1, 1)
    r = Fraction(*dyadic_terms(rng, 1, 16, *r_hi))
    return InteriorDisc(cx, Fraction(cyn, cyd), r)


def sample_niemytzki_component(rng: random.Random) -> BasicOpenSet:
    if rng.random() < 0.5:
        a = rand_dyadic(rng, -3, 3)
        return TangentDisc(a, rand_dyadic(rng, _R_MIN, 1))
    return _sample_interior_disc(rng, -3, 3)


def sample_niemytzki_set(rng: random.Random, max_components: int = 3) -> RegularOpenSet:
    k = 1 + randbelow(rng, max_components)
    comps = [sample_niemytzki_component(rng) for _ in range(k)]
    return validate_regular_open(Space.NIEMYTZKI, comps)


def sample_niemytzki_set_separated(
    rng: random.Random, max_components: int = 3
) -> RegularOpenSet:
    """A union whose components live in disjoint x-bands (exact value path):
    component i is centred in [8i - 1, 8i + 1]."""
    k = 1 + randbelow(rng, max_components)
    comps = []
    for band in range(0, 8 * k, 8):
        if rng.random() < 0.5:
            a = Fraction(*dyadic_terms(rng, band - 1, 1, band + 1, 1))
            comps.append(TangentDisc(a, rand_dyadic(rng, _R_MIN, 1)))
        else:
            comps.append(_sample_interior_disc(rng, band - 1, band + 1))
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
        return SorgenfreyPoint(rand_dyadic(rng, -5, 5, depth=10))
    if space is Space.DOUBLE_ARROW:
        roll = rng.random()
        if roll < 0.05:
            return _EXTREMES[randbelow(rng, 2)]
        return DoubleArrowPoint(rand_dyadic(rng, 0, 1, depth=10), randbelow(rng, 2))
    roll = rng.random()
    x = rand_dyadic(rng, -4, 4, depth=10)
    if roll < 0.2:
        return NiemytzkiPoint(x, _ZERO)
    return NiemytzkiPoint(x, rand_dyadic(rng, _Y_MIN, 3, depth=10))


def sample_point_near_set(U: RegularOpenSet, rng: random.Random) -> Point:
    """Points biased toward the set: interior, near-boundary and outside.

    Each drawn coordinate of an exact set is one Fraction built from
    integer terms (docs/derivations.md, "Sampling on integer terms")."""
    if U.is_empty:
        return sample_point(U.space, rng)
    c = U.components[randbelow(rng, len(U.components))]
    roll = rng.random()
    if U.space is Space.SORGENFREY:
        if roll < 0.5:
            an, ad, bn, bd = c.terms  # a draw in [a, b - 1/256]
            return SorgenfreyPoint(Fraction(*dyadic_terms(rng, an, ad, (bn << 8) - bd, bd << 8)))
        if roll < 0.7:
            return SorgenfreyPoint(c.a)
        if roll < 0.85:
            return SorgenfreyPoint(c.b)
        return sample_point(U.space, rng)
    if U.space is Space.DOUBLE_ARROW:
        if isinstance(c, ExtremeSingleton):
            return c.point
        if roll < 0.4:
            t = Fraction(*dyadic_terms(rng, *c.terms, 10))
            return DoubleArrowPoint(t, randbelow(rng, 2))
        if roll < 0.55:
            return DoubleArrowPoint(c.a, 1)
        if roll < 0.7:
            return DoubleArrowPoint(c.b, 0)
        if roll < 0.8:
            return DoubleArrowPoint(c.a, 0)
        return sample_point(U.space, rng)
    if isinstance(c, TangentDisc):
        if roll < 0.25:
            return NiemytzkiPoint(c.a, _ZERO)
        if roll < 0.6:
            # on the vertical axis of the disc: (a, r t), t = rand_dyadic(1/64, 15/8)
            return NiemytzkiPoint(c.a, _times(c.r, *dyadic_terms(rng, 1, 64, 15, 8)))
        if roll < 0.85:
            # (a + dx, r), dx = rand_dyadic(-r/2, r/2)
            rn, rd = c.r.as_integer_ratio()
            return NiemytzkiPoint(_plus(c.a, *dyadic_terms(rng, -rn, 2 * rd, rn, 2 * rd)), c.r)
        return sample_point(U.space, rng)
    if roll < 0.4:
        return c.center
    if roll < 0.7:
        # (cx + dx, cy + dy), dx = rand_dyadic(-r, r), dy = rand_dyadic(-r/2, r/2);
        # r <= cy keeps cy + dy >= cy/2 > 0
        rn, rd = c.r.as_integer_ratio()
        x = _plus(c.cx, *dyadic_terms(rng, -rn, rd, rn, rd))
        return NiemytzkiPoint(x, _plus(c.cy, *dyadic_terms(rng, -rn, 2 * rd, rn, 2 * rd)))
    return sample_point(U.space, rng)


# ---------------------------------------------------------------------------
# nested pairs (for the monotonicity condition)


def _shrunk_ends(c: HalfOpen | ClopenInterval, i: int, j: int) -> tuple[Fraction, Fraction]:
    """(a + (b - a) i/16, b - (b - a) j/16) from the interval's integer terms,
    in order: for i + j < 16 the gap (b - a)(16 - i - j)/16 stays positive."""
    an, ad, bn, bd = c.terms
    left, right = an * bd, bn * ad  # a and b over ad * bd
    den = (ad * bd) << 4
    width = right - left
    return Fraction(16 * left + width * i, den), Fraction(16 * right - width * j, den)


def _shrink_component(c: BasicOpenSet, rng: random.Random) -> BasicOpenSet | None:
    """A base set inside c, drawn on c's integer terms (sampled sets are exact)."""
    if isinstance(c, HalfOpen):
        i, j = randbelow(rng, 4), 1 + randbelow(rng, 3)
        return HalfOpen(*_shrunk_ends(c, i, j))
    if isinstance(c, ClopenInterval):
        i, j = randbelow(rng, 4), randbelow(rng, 4)
        keep_left = c.include_left_extreme and i == 0
        keep_right = c.include_right_extreme and j == 0
        return ClopenInterval(*_shrunk_ends(c, i, j), keep_left, keep_right)
    if isinstance(c, ExtremeSingleton):
        return c
    if isinstance(c, TangentDisc):
        return TangentDisc(c.a, _times(c.r, 8 + randbelow(rng, 8), 16))
    if isinstance(c, InteriorDisc):
        # radius r k/16, centre moved right by (r - r k/16) m/16 = r (16 - k) m/256
        k = 8 + randbelow(rng, 8)
        r = _times(c.r, k, 16)
        rn, rd = c.r.as_integer_ratio()
        return InteriorDisc(_plus(c.cx, rn * (16 - k) * randbelow(rng, 16), rd << 8), c.cy, r)
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
            side = randbelow(rng, 2)
            if side == 0:
                t = rand_dyadic(rng, Fraction(1, 4), Fraction(1))
            else:
                t = rand_dyadic(rng, Fraction(0), Fraction(3, 4))
            c = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 16))
            out.append(double_arrow_certificate(t, side, c))
        else:
            if rng.random() < 0.6:
                a = rand_dyadic(rng, Fraction(-2), Fraction(2))
                slope = Fraction(randbelow(rng, 21), 400)  # 0 .. 1/20
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
        slope = Fraction(randbelow(rng, 21), 400)
        y0 = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 8))
        out.append((U, niemytzki_axis_certificate(limit_x, slope, y0)))
    return out


# ---------------------------------------------------------------------------
# decreasing chains with declared limits


def sample_chain(space: Space, rng: random.Random) -> DecreasingChain:
    if space is Space.SORGENFREY:
        a0 = rand_dyadic(rng, Fraction(-2), Fraction(2))
        width = rand_dyadic(rng, Fraction(1, 8), Fraction(2))
        ca = rand_dyadic(rng, Fraction(0), Fraction(1, 4))
        cb = rand_dyadic(rng, Fraction(0), Fraction(1, 4))
        comp = ParametricBasicSet(
            "half_open",
            {"a": ParamValue(a0, -ca), "b": ParamValue(a0 + width, cb)},
        )
        return DecreasingChain(space, (comp,))
    if space is Space.DOUBLE_ARROW:
        a0 = rand_dyadic(rng, Fraction(1, 8), Fraction(3, 8))
        b0 = rand_dyadic(rng, Fraction(1, 2), Fraction(7, 8))
        ca = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 16))
        cb = rand_dyadic(rng, Fraction(0), Fraction(1, 16))
        comp = ParametricBasicSet(
            "clopen_interval",
            {"a": ParamValue(a0, -ca), "b": ParamValue(b0, cb)},
        )
        return DecreasingChain(space, (comp,))
    if rng.random() < 0.5:
        a = rand_dyadic(rng, Fraction(-2), Fraction(2))
        r0 = rand_dyadic(rng, Fraction(1, 8), Fraction(3, 4))
        cr = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 4))
        comp = ParametricBasicSet("tangent_disc", {"a": ParamValue(a), "r": ParamValue(r0, cr)})
        return DecreasingChain(space, (comp,))
    cx = rand_dyadic(rng, Fraction(-2), Fraction(2))
    cy = rand_dyadic(rng, Fraction(1, 2), Fraction(2))
    r_hi = min(Fraction(1, 2), cy / 2)
    r0 = rand_dyadic(rng, Fraction(1, 8), r_hi)
    cr = rand_dyadic(rng, Fraction(1, 64), Fraction(1, 8))
    dx = cr * Fraction(randbelow(rng, 16), 16)  # center drift bounded by radius decay
    comp = ParametricBasicSet(
        "interior_disc",
        {"cx": ParamValue(cx, dx), "cy": ParamValue(cy), "r": ParamValue(r0, cr)},
    )
    return DecreasingChain(space, (comp,))


def double_arrow_pinch_chain() -> DecreasingChain:
    """The clopen chain [(x_k, 1), (1/5, 0)] with x_k increasing to 1/10."""
    comp = ParametricBasicSet(
        "clopen_interval",
        {
            "a": ParamValue(Fraction(1, 10), Fraction(-1, 10), Fraction(0), 1),
            "b": ParamValue(Fraction(1, 5)),
        },
    )
    return DecreasingChain(Space.DOUBLE_ARROW, (comp,))
