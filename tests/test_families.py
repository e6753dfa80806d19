"""Family value formulas against independent oracles."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from kappalab import (
    ClopenInterval,
    DoubleArrowPoint,
    ExtremeSingleton,
    HalfOpen,
    InteriorDisc,
    NiemytzkiPoint,
    NotRegularOpenError,
    SorgenfreyPoint,
    Space,
    SpaceMismatchError,
    TangentDisc,
    basic_member,
    disc_in_union,
    doublearrow_f,
    g_family,
    member,
    niemytzki_basic_f,
    niemytzki_union_f,
    pairwise_separated,
    sorgenfrey_f,
    validate_regular_open,
)
from kappalab import families
from kappalab.families import (
    FAMILIES,
    UnindexedSetError,
    _complement_distance,
    _disc_kernel,
    double_arrow_ro,
    g_stratification,
    niemytzki_kappa,
    sorgenfrey_kappa,
    tabulated_evaluator,
    user_supplied,
)
from kappalab.numerics import EPS, le, lt
from kappalab.sampling import (
    rand_dyadic,
    sample_double_arrow_set,
    sample_point_near_set,
    sample_sorgenfrey_set,
)
from kappalab.spaces import lex_less
from test_acceptance import _interior_point_in, _oracle_circle_cross, _overlapping_union


def _ro(space, comps):
    return validate_regular_open(space, comps)


# ---------------------------------------------------------------------------
# Sorgenfrey family


def _sorgenfrey_sup_oracle(U, x, grid_pow=12):
    """sup{q - x : [x, q) inside U and q <= x + 1} by scanning q on a grid."""
    if not member(U, SorgenfreyPoint(x)):
        return F(0)
    best = F(0)
    step = F(1, 2**grid_pow)
    q = x + step
    while q <= x + 1:
        # [x, q) inside U iff it sits in the component of x (components are separated)
        comp = next(c for c in U.components if c.a <= x < c.b)
        if q <= comp.b:
            best = q - x
        else:
            break
        q += step
    return best


def test_sorgenfrey_f_examples():
    U = _ro(Space.SORGENFREY, [HalfOpen(F(0), F(1))])
    assert sorgenfrey_f(U, SorgenfreyPoint(F(0))) == 1
    U3 = _ro(Space.SORGENFREY, [HalfOpen(F(0), F(3))])
    assert sorgenfrey_f(U3, SorgenfreyPoint(F(1, 2))) == 1  # capped by [x, x+1)
    assert sorgenfrey_f(U, SorgenfreyPoint(F(1))) == 0


def test_sorgenfrey_f_against_grid_scan():
    rng = random.Random(5)
    for _ in range(25):
        U = sample_sorgenfrey_set(rng)
        for _ in range(6):
            p = sample_point_near_set(U, rng)
            v = sorgenfrey_f(U, p)
            oracle = _sorgenfrey_sup_oracle(U, p.x)
            assert abs(v - oracle) <= F(1, 2**12), (U, p)


# ---------------------------------------------------------------------------
# double arrow family


def test_doublearrow_f_examples():
    U = _ro(Space.DOUBLE_ARROW, [ClopenInterval(F(1, 4), F(1, 2))])
    assert doublearrow_f(U, DoubleArrowPoint(F(1, 3), 0)) == F(1, 4)
    Ue = _ro(
        Space.DOUBLE_ARROW, [ClopenInterval(F(0), F(1, 2), include_left_extreme=True)]
    )
    assert doublearrow_f(Ue, DoubleArrowPoint(F(0), 0)) == 1
    assert doublearrow_f(U, DoubleArrowPoint(F(3, 4), 0)) == 0
    # singleton components score 1
    Us = _ro(Space.DOUBLE_ARROW, [ExtremeSingleton(1)])
    assert doublearrow_f(Us, DoubleArrowPoint(F(1), 1)) == 1


def test_doublearrow_f_constant_on_components():
    U = _ro(
        Space.DOUBLE_ARROW,
        [ClopenInterval(F(1, 8), F(1, 4)), ClopenInterval(F(1, 2), F(7, 8))],
    )
    for t in (F(1, 8), F(3, 16), F(1, 4)):
        side = 1 if t == F(1, 8) else 0
        assert doublearrow_f(U, DoubleArrowPoint(t, side)) == F(1, 8)
    assert doublearrow_f(U, DoubleArrowPoint(F(3, 4), 1)) == F(3, 8)


@settings(max_examples=200)
@given(st.integers(0, 2**32))
def test_doublearrow_f_is_its_docstring(seed):
    # the length b - a of the clopen component through p; 1 at a kept extreme
    # and on a singleton component; 0 off the set
    rng = random.Random(seed)
    U = sample_double_arrow_set(rng)
    for _ in range(8):
        p = sample_point_near_set(U, rng)
        expected = F(0)
        for c in U.components:
            if isinstance(c, ExtremeSingleton):
                if p == c.point:
                    expected = F(1)
            elif DoubleArrowPoint(c.a, 1) == p or DoubleArrowPoint(c.b, 0) == p or (
                lex_less(DoubleArrowPoint(c.a, 1), p) and lex_less(p, DoubleArrowPoint(c.b, 0))
            ):
                expected = c.b - c.a
            elif (c.include_left_extreme and p == DoubleArrowPoint(F(0), 0)) or (
                c.include_right_extreme and p == DoubleArrowPoint(F(1), 1)
            ):
                expected = F(1)
        value = doublearrow_f(U, p)
        assert type(value) is F and value == expected


# ---------------------------------------------------------------------------
# Niemytzki base formulas


def test_niemytzki_basic_f_examples():
    assert niemytzki_basic_f(TangentDisc(F(0), F(1)), NiemytzkiPoint(F(0), F(0))) == 1
    assert niemytzki_basic_f(
        InteriorDisc(F(0), F(2), F(1)), NiemytzkiPoint(F(0), F(3, 2))
    ) == F(1, 2)
    assert niemytzki_basic_f(TangentDisc(F(0), F(1)), NiemytzkiPoint(F(0), F(1, 2))) == 1


def test_niemytzki_basic_f_chord_formula():
    # below the diameter: r - r|x-a|/sqrt(2yr - y^2), here r=1, y=1/2, x=1/4
    v = niemytzki_basic_f(TangentDisc(F(0), F(1)), NiemytzkiPoint(F(1, 4), F(1, 2)))
    expected = 1 - (1 / 4) / math.sqrt(2 * 0.5 - 0.25)
    assert abs(float(v) - expected) < 1e-12
    # above the diameter: the plain disc distance
    v2 = niemytzki_basic_f(TangentDisc(F(0), F(1)), NiemytzkiPoint(F(0), F(3, 2)))
    assert v2 == F(1, 2)
    # continuity across the junction y = r
    lo = niemytzki_basic_f(TangentDisc(F(0), F(1)), NiemytzkiPoint(F(1, 4), F(999, 1000)))
    hi = niemytzki_basic_f(TangentDisc(F(0), F(1)), NiemytzkiPoint(F(1, 4), F(1001, 1000)))
    assert abs(float(lo) - float(hi)) < 2e-3


def test_niemytzki_f_is_distance_to_complement_for_discs():
    rng = random.Random(11)
    disc = InteriorDisc(F(0), F(2), F(1))
    for _ in range(40):
        x = rand_dyadic(rng, F(-1), F(1))
        y = rand_dyadic(rng, F(1), F(3))
        p = NiemytzkiPoint(x, y)
        v = float(niemytzki_basic_f(disc, p))
        d = math.hypot(float(x), float(y) - 2.0)
        assert abs(v - max(0.0, 1.0 - d)) < 1e-12


def test_g_family_examples():
    assert g_family(TangentDisc(F(1, 3), F(1, 3)), NiemytzkiPoint(F(1, 3), F(1, 6))) == F(2, 3)
    assert g_family(TangentDisc(F(0), F(1)), NiemytzkiPoint(F(0), F(0))) == 1
    assert g_family(TangentDisc(F(0), F(1)), NiemytzkiPoint(F(5), F(5))) == 0


def test_g_and_f_at_tangency():
    for r in (F(1, 4), F(1, 2), F(1)):
        bs = TangentDisc(F(0), r)
        p = NiemytzkiPoint(F(0), F(0))
        assert g_family(bs, p) == 1
        assert niemytzki_basic_f(bs, p) == r


def test_values_in_unit_interval():
    rng = random.Random(13)
    for _ in range(300):
        r = rand_dyadic(rng, F(1, 16), F(1))
        a = rand_dyadic(rng, F(-2), F(2))
        bs = TangentDisc(a, r)
        p = sample_point_near_set(_ro(Space.NIEMYTZKI, [bs]), rng)
        for v in (niemytzki_basic_f(bs, p), g_family(bs, p)):
            assert 0 <= float(v) <= 1 + 1e-12, (bs, p, v)


# ---------------------------------------------------------------------------
# containment


def test_disc_in_union_examples():
    assert disc_in_union(
        InteriorDisc(F(0), F(2), F(1, 2)),
        _ro(Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1))]),
    )
    assert disc_in_union(
        InteriorDisc(F(0), F(2), F(1)),
        _ro(Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1))]),
    )
    assert not disc_in_union(
        InteriorDisc(F(0), F(2), F(1)),
        _ro(Space.NIEMYTZKI, [InteriorDisc(F(0), F(3), F(1))]),
    )


def test_disc_in_union_methods():
    single = _ro(Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1))])
    assert disc_in_union(InteriorDisc(F(0), F(2), F(1, 2)), single)
    union = _ro(
        Space.NIEMYTZKI,
        [InteriorDisc(F(0), F(2), F(1)), InteriorDisc(F(0), F(3), F(1))],
    )
    assert disc_in_union(InteriorDisc(F(0), F(5, 2), F(3, 4)), union)
    # straddling the waist too widely fails
    assert not disc_in_union(InteriorDisc(F(0), F(5, 2), F(1)), union)


def test_disc_in_union_exact_inside_one_component():
    # separated components: the candidate sits inside the first disc, which
    # the algebraic disc-in-disc test decides without sampling
    union = _ro(
        Space.NIEMYTZKI,
        [InteriorDisc(F(0), F(2), F(1)), InteriorDisc(F(4), F(2), F(1))],
    )
    assert disc_in_union(InteriorDisc(F(0), F(2), F(1, 2)), union)


def _ring_inside(V, cx, cy, r, angles=720):
    """Sampled containment, independent of the closed form: the circle of
    radius r about (cx, cy) at ``angles`` points must be covered, and no
    uncovered crossing corner of the union's circles may lie inside it (a
    narrow complement wedge can hide between the samples)."""
    circles = [(float(c.center.x), float(c.center.y), float(c.r)) for c in V.components]

    def covered(x, y, margin=0.0):
        return any((x - a) ** 2 + (y - b) ** 2 < R * R - margin for a, b, R in circles)

    ring = [(cx + r * math.cos(t), cy + r * math.sin(t)) for t in (2 * math.pi * k / angles for k in range(angles))]
    corners = [
        v for i, c1 in enumerate(circles) for c2 in circles[i + 1 :] for v in _oracle_circle_cross(c1, c2)
    ]
    # a corner lies on two circles: rounding must not count it as covered by them
    return all(covered(x, y) for x, y in ring) and all(
        covered(x, y, 1e-12) or math.hypot(x - cx, y - cy) >= r for x, y in corners
    )


def test_complement_distance_agrees_with_sampled_containment():
    # the closed-form radius at interior centres of overlapping unions,
    # cross-checked against a boundary-ring sampler and against disc_in_union
    rng = random.Random(607)
    grown = 0
    for i in range(20):
        V = _overlapping_union(rng, 2 if i % 2 == 0 else 3)
        for _ in range(3):
            c = _interior_point_in(V, rng)
            cx, cy = float(c.x), float(c.y)
            d = _complement_distance(V, cx, cy)
            assert d > 0, (V, c)
            assert _ring_inside(V, cx, cy, 0.999999 * d), (V, c, d)
            assert disc_in_union(InteriorDisc(cx, cy, 0.999999 * d), V), (V, c, d)
            if d + 1e-3 <= min(cy, 1.0):
                assert not _ring_inside(V, cx, cy, d + 1e-3), (V, c, d)
                assert not disc_in_union(InteriorDisc(cx, cy, d + 1e-3), V), (V, c, d)
                grown += 1
    assert grown >= 20


def test_tangent_candidate_needs_its_axis_point():
    union = _ro(
        Space.NIEMYTZKI,
        [TangentDisc(F(0), F(1, 2)), InteriorDisc(F(0), F(1), F(1))],
    )
    # B*(0,1)'s open part is the second component; its axis point is covered
    assert disc_in_union(TangentDisc(F(0), F(1)), union)
    # at a different tangency there is no axis point to stand on
    assert not disc_in_union(TangentDisc(F(1, 2), F(1, 4)), union)


def test_tangent_containment_is_exact_at_the_boundary():
    # rho_max(0) = 1/2, from the interior disc tangent to the axis at 0
    union = _ro(
        Space.NIEMYTZKI,
        [TangentDisc(F(0), F(1, 4)), InteriorDisc(F(0), F(1, 2), F(1, 2))],
    )
    assert disc_in_union(TangentDisc(F(0), F(1, 2)), union)
    assert not disc_in_union(TangentDisc(F(0), F(1, 2) + F(1, 10**10)), union)


# ---------------------------------------------------------------------------
# union supremum


def test_union_f_single_component_exact():
    V = _ro(Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1))])
    p = NiemytzkiPoint(F(0), F(3, 2))
    assert niemytzki_union_f(V, p) == niemytzki_basic_f(V.components[0], p) == F(1, 2)


def test_union_f_zero_off_the_set():
    V = _ro(Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1))])
    assert niemytzki_union_f(V, NiemytzkiPoint(F(5), F(5))) == 0


def test_union_f_separated_is_component_max():
    V = _ro(
        Space.NIEMYTZKI,
        [TangentDisc(F(0), F(1)), TangentDisc(F(8), F(1, 2))],
    )
    assert pairwise_separated(V)
    p = NiemytzkiPoint(F(8), F(0))
    assert niemytzki_union_f(V, p) == F(1, 2)


@st.composite
def _separated_union_and_points(draw):
    """A union of two or three discs, component i in the x-band around 8i, so
    their closed hulls are disjoint; exact, or binary64 with binary64 points.
    The points lie at the tangency points, on the vertical axes and near the
    discs, inside V or not."""
    discs = [_shifted(draw(_disc()), 8 * i) for i in range(draw(st.integers(2, 3)))]
    binary64 = draw(st.booleans())
    if binary64:
        discs = [_binary64_disc(s) for s in discs]
    V = _ro(Space.NIEMYTZKI, discs)
    points = []
    for _ in range(draw(st.integers(1, 12))):
        c = draw(st.sampled_from(V.components)).center
        cx, cy = F(c.x), F(c.y)
        kind = draw(st.sampled_from(["tangency", "vertical", "near"]))
        if kind == "tangency":
            x, y = cx, F(0)
        elif kind == "vertical":
            x, y = cx, cy * draw(st.fractions(min_value=0, max_value=2, max_denominator=12))
        else:
            x, y = cx + draw(_offset), abs(cy + draw(_offset))
        points.append(NiemytzkiPoint(float(x), float(y)) if binary64 else NiemytzkiPoint(x, y))
    return V, points


def _shifted(s, dx):
    if isinstance(s, TangentDisc):
        return TangentDisc(s.a + dx, s.r)
    return InteriorDisc(s.cx + dx, s.cy, s.r)


@settings(max_examples=200, deadline=None)
@given(_separated_union_and_points())
def test_separated_union_value_is_its_holding_component_value(case):
    # a base set is connected, so a base set inscribed in V lies in one component
    V, points = case
    assert pairwise_separated(V)
    f_V = niemytzki_kappa().at(V)
    for p in points:
        holding = [c for c in V.components if basic_member(c, p)]
        assert len(holding) <= 1
        if holding:
            assert _same_bits(f_V(p), niemytzki_basic_f(holding[0], p))
        else:
            assert _same_bits(f_V(p), 0.0 if type(p.x) is float else F(0))


def test_separated_union_value_underflowing_binary64_stays_exact():
    # p lies in the second component at the exact depth 2^-1100 below its
    # boundary, a positive value whose binary64 view is 0
    V = _ro(Space.NIEMYTZKI, [InteriorDisc(F(-10), F(2), F(1)), InteriorDisc(F(0), F(2), F(1))])
    p = NiemytzkiPoint(F(0), 1 + F(1, 2**1100))
    assert float(F(1, 2**1100)) == 0.0
    assert lt(0, niemytzki_kappa().value(V, p))
    assert niemytzki_union_f(V, p) == F(1, 2**1100)


def test_union_f_beats_components_on_overlap():
    V = _ro(
        Space.NIEMYTZKI,
        [InteriorDisc(F(0), F(2), F(1)), InteriorDisc(F(0), F(3), F(1))],
    )
    p = NiemytzkiPoint(F(0), F(5, 2))
    comp_max = max(float(niemytzki_basic_f(c, p)) for c in V.components)
    assert comp_max == 0.5
    v = float(niemytzki_union_f(V, p))
    assert v > 0.5 + 0.25  # a larger inscribed disc exists through p
    # independent bound: the inscribed radius at (0, 5/2) is sqrt(3)/2
    assert abs(v - math.sqrt(3) / 2) < 1e-4


def test_inscribed_tangent_discs_are_built_once_per_set():
    # B*(a, rho_max(a)) at each tangent component: the larger of the tangent
    # disc at 0 and the axis-tangent interior disc over it
    V = _ro(
        Space.NIEMYTZKI,
        [TangentDisc(F(0), F(1, 2)), InteriorDisc(F(0), F(3, 4), F(3, 4)), TangentDisc(F(2), F(1, 3))],
    )
    discs = V.inscribed_tangent_discs
    assert discs is V.inscribed_tangent_discs
    assert discs == (TangentDisc(F(0), F(3, 4)), TangentDisc(F(2), F(1, 3)))


def test_union_f_monotone_in_components():
    base = [InteriorDisc(F(0), F(2), F(1))]
    V1 = _ro(Space.NIEMYTZKI, base)
    V2 = _ro(Space.NIEMYTZKI, base + [InteriorDisc(F(1), F(2), F(1))])
    for y in (F(3, 2), F(2), F(5, 2)):
        p = NiemytzkiPoint(F(1, 2), y)
        if member(V1, p):
            assert float(niemytzki_union_f(V2, p)) >= float(niemytzki_union_f(V1, p)) - 1e-9


def test_union_f_monotone_when_a_component_is_dropped():
    # U = V minus one component is inside V, so f_U <= f_V (exact le, EPS on floats)
    rng = random.Random(608)
    pairs = 0
    for i in range(30):
        V = _overlapping_union(rng, 2 if i % 2 == 0 else 3)
        for k in range(len(V.components)):
            try:
                U = _ro(Space.NIEMYTZKI, V.components[:k] + V.components[k + 1 :])
            except NotRegularOpenError:
                continue  # dropped the tangent disc an axis-tangent disc needs
            for _ in range(8):
                p = sample_point_near_set(V, rng)
                fu, fv = niemytzki_union_f(U, p), niemytzki_union_f(V, p)
                assert le(fu, fv), (U, V, p, fu, fv)
                pairs += 1
    assert pairs >= 500


def test_union_f_axis_point_grows_tangent_disc():
    # B*(0,1/2) union the tangent interior disc B((0,1),1): together they
    # contain B*(0,1), so the value at (0,0) grows beyond the component's 1/2
    V = _ro(
        Space.NIEMYTZKI,
        [TangentDisc(F(0), F(1, 2)), InteriorDisc(F(0), F(1), F(1))],
    )
    v = float(niemytzki_union_f(V, NiemytzkiPoint(F(0), F(0))))
    assert v > 0.99


# ---------------------------------------------------------------------------
# the value kernels against the module docstring's formulas, bit for bit


def _plain_sqrt(v):
    """A square root as Fraction arithmetic gives it: rational when both lowest
    terms are squares, else binary64."""
    if isinstance(v, F):
        n, d = math.isqrt(v.numerator), math.isqrt(v.denominator)
        return F(n, d) if n * n == v.numerator and d * d == v.denominator else math.sqrt(float(v))
    return math.sqrt(v)


def _plain_disc_value(s, px, py, g=False):
    """The value at (px, py) of the exact base set s under the Niemytzki family
    (or g), in Fraction arithmetic: a binary64 point mixes in as Python's
    operators mix it, with EPS in the comparisons."""
    exact = type(px) is F
    r, c, tangent = s.r, s.center, isinstance(s, TangentDisc)
    dx, dy = px - c.x, py - c.y
    d2 = dx * dx + dy * dy
    if exact:
        on_axis, at_a, inside, below = py == 0, tangent and px == s.a, d2 < r * r, py < r
    else:
        on_axis, at_a = abs(py) <= EPS, tangent and abs(px - s.a) <= EPS
        inside, below = d2 < float(r * r) - EPS, not float(r) <= py + EPS
    if on_axis:
        return (F(1) if g else r) if at_a else F(0)
    if not inside:
        return F(0)
    if tangent and below:
        gap = abs(px - s.a)
        on_vertical = gap == 0 if exact else gap <= EPS
        chord = r if on_vertical else r - r * gap / _plain_sqrt(2 * py * r - py * py)
        return chord * (((r - 1) * py + r) / (r * r)) if g else chord
    return r - _plain_sqrt(d2)


def _same_bits(a, b) -> bool:
    return type(a) is type(b) and (a == b if type(a) is F else a.hex() == b.hex())


_offset = st.fractions(min_value=-2, max_value=2, max_denominator=60)
_unit = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda t: 0 < t < 1)
_radius = st.fractions(min_value=F(1, 60), max_value=1, max_denominator=60)
_PYTHAGOREAN = [(F(3, 5), F(4, 5)), (F(4, 5), F(3, 5)), (F(-3, 5), F(-4, 5)), (F(4, 5), F(-3, 5))]


@st.composite
def _disc_and_point(draw):
    """An exact disc and a point that exercises one case of the value formula."""
    r, a, t = draw(_radius), draw(_offset), draw(_unit)
    if draw(st.booleans()):
        s = TangentDisc(a, r)
    else:
        s = InteriorDisc(a, r + draw(st.sampled_from([F(0), F(1, 3), F(2)])), r)
    c = s.center
    cases = ["near", "chord", "rational_distance", "square_radicand", "vertical", "tangency"]
    case = draw(st.sampled_from(cases))
    if case == "near":  # inside or outside, above or below the diameter
        px, py = c.x + r * draw(_offset), abs(c.y + r * draw(_offset))
    elif case == "chord":  # 0 < y < r and |x - a| < y: below the diameter of B*(a, r)
        py = r * t
        px = c.x + py * draw(st.fractions(min_value=-1, max_value=1, max_denominator=60))
    elif case == "rational_distance":  # d = t r from a 3-4-5 direction
        ux, uy = draw(st.sampled_from(_PYTHAGOREAN))
        px, py = c.x + t * r * ux, c.y + t * r * uy
    elif case == "square_radicand":  # 2yr - y^2 = q^2 with y < r, and |x - a| < q
        q = 2 * r * t / (1 + t * t)
        px, py = c.x + q * draw(st.fractions(min_value=-1, max_value=1, max_denominator=60)), 2 * r * t * t / (1 + t * t)
    elif case == "vertical":  # the disc's vertical axis, below and above the centre
        px, py = c.x, c.y + r * t * draw(st.sampled_from([-1, 1]))
    else:
        px, py = c.x, F(0)
    return s, px, py


@settings(max_examples=500)
@given(_disc_and_point(), st.booleans())
def test_niemytzki_value_kernel_is_the_fraction_formula(case, binary64):
    s, px, py = case
    if binary64:  # a binary64 point against the exact disc
        px, py = float(px), float(py)
    p = NiemytzkiPoint(px, py)
    assert _same_bits(niemytzki_basic_f(s, p), _plain_disc_value(s, px, py))
    if isinstance(s, TangentDisc):
        assert _same_bits(g_family(s, p), _plain_disc_value(s, px, py, g=True))


def test_value_kernel_cases_are_reached():
    # the rational branches and the exact returns on the axes, exact and binary64
    s = TangentDisc(F(0), F(1))
    assert niemytzki_basic_f(s, NiemytzkiPoint(F(3, 10), F(1) + F(2, 5))) == F(1, 2)  # 3-4-5
    assert niemytzki_basic_f(s, NiemytzkiPoint(F(0), F(1, 2))) == F(1)  # vertical axis
    # y = 2t^2/(1 + t^2) at t = 1/2: y = 2/5, 2y - y^2 = 16/25, and x = 2/5 gives 1 - (2/5)/(4/5)
    assert niemytzki_basic_f(s, NiemytzkiPoint(F(2, 5), F(2, 5))) == F(1, 2)
    assert g_family(s, NiemytzkiPoint(F(2, 5), F(2, 5))) == F(1, 2)
    for x, y in ((0.0, 0.0), (0.0, 0.5)):  # tangency point and vertical axis keep the exact r
        assert type(niemytzki_basic_f(s, NiemytzkiPoint(x, y))) is F
    assert type(niemytzki_basic_f(s, NiemytzkiPoint(0.25, 0.5))) is float


@settings(max_examples=500)
@given(_disc_and_point(), st.booleans(), st.booleans())
def test_staged_kernels_are_the_point_kernels(case, binary64_set, binary64_point):
    # each kernel's staged form as a 1x1 lattice on the point's own terms,
    # rational chord roots and rational distances included, for the disc and
    # g kernels of exact and binary64 sets
    s, px, py = case
    if binary64_set:
        s = _binary64_disc(s)
    if binary64_point:
        px, py = float(px), float(py)
    assume(s.terms_at(px, py) is not None)  # a lattice evaluates the runs inside U only
    (xn, xd), (yn, yd) = px.as_integer_ratio(), py.as_integer_ratio()
    for g in [False] + [True] * isinstance(s, TangentDisc):
        kernel = _disc_kernel(s, None, g)
        staged = kernel.lattice([px], [py], ([xn], xd), ([yn], yd))(0, 0, 0, 1)
        assert len(staged) == 1 and _same_bits(staged[0], kernel(px, py))


#: points of B*(1/3, 3/4) and B((1/3, 5/4), 3/4) in binary64: below the
#: tangent disc's diameter, above it, on its vertical axis, its tangency
#: point, inside the interior disc near its centre, at its centre, and outside
_BINARY64_POINTS = [(0.3, 0.1), (0.5, 0.6), (1 / 3, 0.2), (1 / 3, 0.0), (0.9, 0.7), (2.0, 0.5)]
_BINARY64_POINTS += [(0.3, 1.2), (0.5, 0.9), (1 / 3, 1.25)]
#: their values on the exact discs, as the kernel gave them when it built the
#: binary64 pieces at every bind
_BINARY64_VALUES = {
    "tangent": [
        "0x1.5dca62353fb7bp-1", "0x1.28e833352cc1ep-1", F(3, 4), F(3, 4), "0x1.74e10b127664cp-3",
        F(0), "0x1.31f00216ded17p-2", "0x1.0d321c1cd6858p-1", "0x1.0000000000000p-2",
    ],
    "g": [
        "0x1.c2d756c1c9976p-1", "0x1.3cb369d251dfep-1", "0x1.ddddddddddddep-1", F(1), "0x1.7d2a4f95b79a3p-3",
        F(0), "0x1.31f00216ded17p-2", "0x1.0d321c1cd6858p-1", "0x1.0000000000000p-2",
    ],
    "interior": [
        F(0), "0x1.4378c4a5a1080p-4", F(0), F(0), F(0),
        F(0), "0x1.613b8d94ed7dep-1", "0x1.730a19fc2a002p-2", "0x1.8000000000000p-1",
    ],
}


@pytest.mark.parametrize("kind", sorted(_BINARY64_VALUES))
def test_binary64_pieces_are_built_on_demand(kind, monkeypatch):
    built = []
    pieces = families._binary64_pieces
    monkeypatch.setattr(families, "_binary64_pieces", lambda U, g: built.append(U) or pieces(U, g))
    if kind == "interior":
        s = InteriorDisc(F(1, 3), F(5, 4), F(3, 4))
    else:
        s = TangentDisc(F(1, 3), F(3, 4))
    kernel = _disc_kernel(s, F(0), kind == "g")
    exact = [(F(x), F(y)) for x, y in _BINARY64_POINTS]  # every case of the value, exact
    xs, ys = sorted({x for x, _ in exact}), sorted({y for _, y in exact})
    for x, y in exact:
        kernel(x, y)
    terms = lambda vs: ([int(v * 2**60) for v in vs], 2**60)  # the lattice's integer terms
    kernel.lattice(xs, ys, terms(xs), terms(ys))
    assert built == []
    # binary64 points build them once, and keep their bits
    values = [kernel(x, y) for x, y in _BINARY64_POINTS]
    assert [v if type(v) is F else v.hex() for v in values] == _BINARY64_VALUES[kind]
    kernel.lattice([0.3], [0.1], None, None)
    assert built == [s]


@st.composite
def _sorgenfrey_set_and_point(draw):
    ends = sorted(draw(st.sets(_offset, min_size=4, max_size=4)))
    U = _ro(Space.SORGENFREY, [HalfOpen(ends[0], ends[1]), HalfOpen(ends[2], ends[3])])
    x = draw(st.sampled_from([*ends, ends[1] - 1, ends[3] - 1]) | _offset)
    return U, x


@given(_sorgenfrey_set_and_point())
def test_sorgenfrey_value_kernel_is_the_fraction_formula(case):
    U, x = case
    plain = next((min(c.b, x + 1) - x for c in U.components if c.a <= x < c.b), F(0))
    assert _same_bits(sorgenfrey_f(U, SorgenfreyPoint(x)), plain)


# ---------------------------------------------------------------------------
# bound members: f_U bound once, evaluated at many points


@st.composite
def _disc(draw):
    r = draw(st.fractions(min_value=F(1, 8), max_value=1, max_denominator=24))
    a = draw(_offset)
    if draw(st.booleans()):
        return TangentDisc(a, r)
    # cy > r: an interior disc off the axis, so any union of these is regular open
    return InteriorDisc(a, r + draw(st.fractions(min_value=F(1, 24), max_value=1, max_denominator=24)), r)


def _binary64_disc(s):
    if isinstance(s, TangentDisc):
        return TangentDisc(float(s.a), float(s.r))
    return InteriorDisc(float(s.cx), float(s.cy), float(s.r))


@st.composite
def _set_and_points(draw):
    """A Niemytzki set of one to three discs (separated or overlapping), exact
    or binary64, and points of both modes on the axis, at the tangency points,
    on the discs' vertical axes and near the discs."""
    discs = draw(st.lists(_disc(), min_size=1, max_size=3))
    if draw(st.booleans()):
        discs = [_binary64_disc(s) for s in discs]
    U = _ro(Space.NIEMYTZKI, discs)
    points = []
    for _ in range(draw(st.integers(1, 16))):
        c = draw(st.sampled_from(U.components)).center
        cx, cy = F(c.x), F(c.y)
        kind = draw(st.sampled_from(["tangency", "axis", "vertical", "near"]))
        if kind == "tangency":
            x, y = cx, F(0)
        elif kind == "axis":
            x, y = cx + draw(_offset), F(0)
        elif kind == "vertical":
            x, y = cx, cy * draw(st.fractions(min_value=0, max_value=2, max_denominator=12))
        else:
            x, y = cx + draw(_offset), abs(cy + draw(_offset))
        binary64 = draw(st.booleans())
        points.append(NiemytzkiPoint(float(x), float(y)) if binary64 else NiemytzkiPoint(x, y))
    return U, points


@settings(max_examples=300, deadline=None)
@given(_set_and_points(), st.sampled_from([niemytzki_kappa, g_stratification]))
def test_bound_member_is_the_fresh_value_at_every_point(case, family):
    U, points = case
    S = family()
    try:
        f_U = S.at(U)
    except UnindexedSetError:  # g is keyed by single tangent discs only
        assert S.label == "g_family"
        return
    for p in points + points[::-1]:
        assert _same_bits(f_U(p), S.value(U, p))


@settings(max_examples=100)
@given(st.integers(0, 2**32))
def test_bound_sorgenfrey_and_double_arrow_members_are_the_fresh_values(seed):
    rng = random.Random(seed)
    for S, U in (
        (sorgenfrey_kappa(), sample_sorgenfrey_set(rng)),
        (double_arrow_ro(), sample_double_arrow_set(rng)),
    ):
        f_U = S.at(U)
        for _ in range(16):
            p = sample_point_near_set(U, rng)
            assert _same_bits(f_U(p), S.value(U, p))


_ONE_SET = {
    Space.SORGENFREY: _ro(Space.SORGENFREY, [HalfOpen(F(0), F(1))]),
    Space.DOUBLE_ARROW: _ro(Space.DOUBLE_ARROW, [ClopenInterval(F(0), F(1, 2))]),
    Space.NIEMYTZKI: _ro(Space.NIEMYTZKI, [TangentDisc(F(0), F(1))]),
}
_ONE_POINT_EACH = [
    SorgenfreyPoint(F(1, 2)),
    DoubleArrowPoint(F(1, 4), 1),
    NiemytzkiPoint(F(0), F(1, 2)),
    NiemytzkiPoint(0.25, 0.5),
]


@pytest.mark.parametrize(
    "family",
    [
        *(pytest.param(make(), id=label) for label, make in FAMILIES.items()),
        *(
            pytest.param(user_supplied(space, lambda U, p: F(1, 3)), id=f"user_{space.value}")
            for space in Space
        ),
        # nearest-sample: a point of another space has no distance to the samples
        pytest.param(
            user_supplied(
                Space.SORGENFREY,
                tabulated_evaluator({_ONE_SET[Space.SORGENFREY]: [(SorgenfreyPoint(F(0)), F(1))]}),
            ),
            id="user_tabulated_sorgenfrey",
        ),
    ],
)
def test_bound_member_and_value_agree_at_points_of_every_space(family):
    # S.at(U)(p) is S.value(U, p): the same bits, or the same SpaceMismatchError
    # at a point of another space
    U = _ONE_SET[family.space]
    f_U = family.at(U)
    for p in _ONE_POINT_EACH:
        if p.space is family.space:
            assert _same_bits(f_U(p), family.value(U, p))
            continue
        with pytest.raises(SpaceMismatchError):
            f_U(p)
        with pytest.raises(SpaceMismatchError):
            family.value(U, p)
