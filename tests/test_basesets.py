"""Base elements: construction, membership, closures."""

from dataclasses import dataclass
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from kappalab import (
    ClopenInterval,
    DoubleArrowPoint,
    ExtremeSingleton,
    HalfOpen,
    InteriorDisc,
    NiemytzkiPoint,
    OpenInterval,
    SorgenfreyPoint,
    SpaceMismatchError,
    TangentDisc,
    basic_closure_member,
    basic_member,
)
from kappalab.basesets import basic_neighborhood, cached_property, disc_terms
from kappalab.families import _exact_pieces
from kappalab.numerics import EPS, lt, sqrt_scalar
from kappalab.rosets import validate_regular_open
from kappalab.spaces import Space, lex_less, sq_dist, sq_dist_terms


def test_constructor_guards():
    with pytest.raises(ValueError):
        HalfOpen(F(1), F(1))
    with pytest.raises(ValueError):
        ClopenInterval(F(1, 2), F(1, 4))
    with pytest.raises(ValueError):
        ClopenInterval(F(1, 4), F(1, 2), include_left_extreme=True)
    with pytest.raises(ValueError):
        InteriorDisc(F(0), F(1), F(2))  # r > cy
    with pytest.raises(ValueError):
        InteriorDisc(F(0), F(3), F(3, 2))  # r > 1
    with pytest.raises(ValueError):
        TangentDisc(F(0), F(0))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: HalfOpen(F(1), F(1)), "need a < b"),
        (lambda: OpenInterval(F(1, 2), F(1, 3)), "need a < b"),
        (lambda: ClopenInterval(F(1, 2), F(1, 2)), "need a < b"),
        (lambda: HalfOpen(0.5, F(1)), "HalfOpen endpoints must be exact rationals"),
        (lambda: OpenInterval(F(0), 1.0), "OpenInterval endpoints must be exact rationals"),
        (lambda: ClopenInterval(0.25, F(1, 2)), "ClopenInterval endpoints must be exact rationals"),
        (lambda: ClopenInterval(F(-1, 4), F(1, 2)), "need 0 <= a < b <= 1"),
        (lambda: ClopenInterval(F(1, 2), F(5, 4)), "need 0 <= a < b <= 1"),
        (lambda: ClopenInterval(F(0), F(3, 4), include_right_extreme=True), "requires b = 1"),
    ],
)
def test_interval_endpoints_are_checked_once_for_every_interval_kind(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_interval_endpoints_become_fractions_with_their_terms():
    for cls in (HalfOpen, OpenInterval, ClopenInterval):
        s = cls(0, "2/4")
        assert (s.a, s.b) == (F(0), F(1, 2)) and type(s.a) is type(s.b) is F
        assert s.terms == (0, 1, 1, 2)


def test_deep_axis_neighborhood_has_exact_radius():
    # 2**-30 lies below EPS; an exact radius must still count as positive
    p = NiemytzkiPoint(F(1, 3), 0)
    assert basic_neighborhood(p, 30) == TangentDisc(F(1, 3), F(1, 2**30))


def test_sorgenfrey_membership():
    u = HalfOpen(F(0), F(1))
    assert basic_member(u, SorgenfreyPoint(F(0)))  # left endpoint included
    assert not basic_member(u, SorgenfreyPoint(F(1)))
    o = OpenInterval(F(0), F(1))
    assert not basic_member(o, SorgenfreyPoint(F(0)))
    assert basic_member(o, SorgenfreyPoint(F(1, 2)))


def test_niemytzki_membership():
    bs = TangentDisc(F(0), F(1))
    assert basic_member(bs, NiemytzkiPoint(F(0), F(0)))  # own tangency point
    assert not basic_member(bs, NiemytzkiPoint(F(1, 2), F(0)))  # other axis points
    disc = InteriorDisc(F(0), F(2), F(1))
    # distance 1.1 from the center: squared oracle 0 + (11/10)^2 > 1
    assert (F(0)) ** 2 + (F(9, 10) - 2) ** 2 == F(121, 100) > 1
    assert not basic_member(disc, NiemytzkiPoint(F(0), F(9, 10)))
    assert basic_member(disc, NiemytzkiPoint(F(0), F(3, 2)))
    assert not basic_member(disc, NiemytzkiPoint(F(0), F(0)))  # open discs miss the axis


def test_double_arrow_membership_and_extremes():
    c = ClopenInterval(F(1, 4), F(1, 2))
    assert basic_member(c, DoubleArrowPoint(F(1, 4), 1))  # left end (a,1)
    assert not basic_member(c, DoubleArrowPoint(F(1, 4), 0))
    assert basic_member(c, DoubleArrowPoint(F(1, 2), 0))  # right end (b,0)
    assert not basic_member(c, DoubleArrowPoint(F(1, 2), 1))
    e = ClopenInterval(F(0), F(1, 2), include_left_extreme=True)
    assert basic_member(e, DoubleArrowPoint(F(0), 0))
    assert basic_member(ExtremeSingleton(1), DoubleArrowPoint(F(1), 1))
    assert not basic_member(ExtremeSingleton(1), DoubleArrowPoint(F(1), 0))


def _sorgenfrey_closure_oracle(s, x, depth=12):
    """x adheres to s iff every [x, x+2^-k) meets s (scan on a rational grid)."""
    for k in range(1, depth + 1):
        delta = F(1, 2**k)
        hit = any(
            basic_member(s, SorgenfreyPoint(x + delta * F(j, 16)))
            for j in range(16)
        )
        if not hit:
            return False
    return True


def test_sorgenfrey_closures():
    o = OpenInterval(F(0), F(1))
    # cl (0,1) = [0,1): 0 in, 1 out
    assert basic_closure_member(o, SorgenfreyPoint(F(0)))
    assert not basic_closure_member(o, SorgenfreyPoint(F(1)))
    # oracle agreement on a sample of points
    for x in (F(-1, 2), F(0), F(1, 2), F(1), F(3, 2)):
        assert basic_closure_member(o, SorgenfreyPoint(x)) == _sorgenfrey_closure_oracle(o, x)
    h = HalfOpen(F(0), F(1))
    for x in (F(-1, 4), F(0), F(1, 2), F(1)):
        assert basic_closure_member(h, SorgenfreyPoint(x)) == _sorgenfrey_closure_oracle(h, x)


def test_double_arrow_closure_is_itself():
    c = ClopenInterval(F(1, 10), F(1, 5))
    for t, side in ((F(1, 10), 0), (F(1, 10), 1), (F(3, 20), 0), (F(1, 5), 0), (F(1, 5), 1)):
        p = DoubleArrowPoint(t, side)
        assert basic_closure_member(c, p) == basic_member(c, p)
    # the pinch-chain closure rule: (1/10, 0) adheres to [(x_k,1),(1/5,0)] when x_k < 1/10
    ck = ClopenInterval(F(9, 100), F(1, 5))
    assert basic_closure_member(ck, DoubleArrowPoint(F(1, 10), 0))


def test_niemytzki_closures():
    disc = InteriorDisc(F(0), F(1), F(1))  # tangent to the axis at (0,0)
    assert basic_closure_member(disc, NiemytzkiPoint(F(0), F(0)))
    assert not basic_member(disc, NiemytzkiPoint(F(0), F(0)))
    # oracle: B*(0, 1/2)'s open part meets the disc (both contain (0, y) for small y)
    probe = TangentDisc(F(0), F(1, 2))
    y = F(1, 100)
    assert basic_member(probe, NiemytzkiPoint(F(0), y)) and basic_member(
        disc, NiemytzkiPoint(F(0), y)
    )
    # closed-disc rule elsewhere
    assert basic_closure_member(disc, NiemytzkiPoint(F(1), F(1)))  # boundary circle
    assert not basic_closure_member(disc, NiemytzkiPoint(F(2), F(0)))
    bs = TangentDisc(F(0), F(1))
    assert basic_closure_member(bs, NiemytzkiPoint(F(0), F(2)))  # top of the disc
    assert not basic_closure_member(bs, NiemytzkiPoint(F(1, 2), F(0)))


def test_member_implies_closure_member():
    sets = [
        HalfOpen(F(0), F(1)),
        OpenInterval(F(0), F(1)),
        ClopenInterval(F(1, 4), F(3, 4)),
        InteriorDisc(F(0), F(2), F(1)),
        TangentDisc(F(0), F(1)),
    ]
    pts = {
        "sorgenfrey": [SorgenfreyPoint(F(k, 8)) for k in range(-8, 17)],
        "double_arrow": [DoubleArrowPoint(F(k, 8), s) for k in range(0, 9) for s in (0, 1)],
        "niemytzki": [
            NiemytzkiPoint(F(i, 4), F(j, 4)) for i in range(-8, 9) for j in range(0, 13)
        ],
    }
    for s in sets:
        for p in pts[s.space.value]:
            if basic_member(s, p):
                assert basic_closure_member(s, p)


def test_basic_neighborhoods_contain_their_point():
    pts = [
        SorgenfreyPoint(F(1, 3)),
        DoubleArrowPoint(F(1, 2), 0),
        DoubleArrowPoint(F(1, 2), 1),
        DoubleArrowPoint(F(0), 0),
        NiemytzkiPoint(F(1), F(0)),
        NiemytzkiPoint(F(1), F(1, 2)),
    ]
    for p in pts:
        for k in (1, 3, 6):
            assert basic_member(basic_neighborhood(p, k), p)


# ---------------------------------------------------------------------------
# the integer kernel against the plain Fraction formulas


_coord = st.fractions(min_value=-3, max_value=3, max_denominator=997)
_height = st.fractions(min_value=0, max_value=3, max_denominator=997)
_radius = st.fractions(min_value=0, max_value=1, max_denominator=997).filter(lambda r: r > 0)


@st.composite
def _discs(draw):
    """An exact InteriorDisc (r <= cy, sometimes r = cy) or TangentDisc."""
    x, r = draw(_coord), draw(_radius)
    if draw(st.booleans()):
        return TangentDisc(x, r)
    return InteriorDisc(x, r + draw(st.sampled_from([F(0), F(1, 3)]) | _height), r)


def _plain_sq_dist(s, px, py):
    return (px - s.center.x) ** 2 + (py - s.center.y) ** 2


def disc_sq_dist(s, p):
    """``disc_terms`` as a scalar: the squared distance from p to the centre
    of disc s when p lies in s, else None."""
    d2 = disc_terms(s, p)
    return F(*d2) if type(d2) is tuple else d2


def _plain_member_d2(s, px, py):
    """disc_terms's rule, written with Fraction arithmetic."""
    d2 = _plain_sq_dist(s, px, py)
    if py == 0:
        return d2 if isinstance(s, TangentDisc) and px == s.a else None
    return d2 if d2 < s.r * s.r else None


@given(_discs(), st.integers(1, 12))
def test_disc_terms_are_the_fraction_formula(s, k):
    c = s.center
    plain = (*c.x.as_integer_ratio(), *c.y.as_integer_ratio(), *s.r.as_integer_ratio())
    plain += (s.r * s.r).as_integer_ratio()
    # the same disc from unreduced texts, "2/4" for 1/2
    text = lambda v: f"{v.numerator * k}/{v.denominator * k}"
    if isinstance(s, TangentDisc):
        t = TangentDisc(text(s.a), text(s.r))
    else:
        t = InteriorDisc(text(s.cx), text(s.cy), text(s.r))
    for disc in (s, t):
        assert disc.terms == plain
        assert all(type(v) is int for v in disc.terms)
    r2n, r2d = plain[6:]
    assert r2d > 0 and gcd(r2n, r2d) == 1


def test_cached_property_computes_once_per_instance():
    calls = []

    @dataclass(frozen=True)
    class Box:
        v: int

        @cached_property
        def twice(self) -> int:
            """2v."""
            calls.append(self.v)
            return 2 * self.v

    a, b = Box(1), Box(1)
    assert (a.twice, a.twice, b.twice, a.twice) == (2, 2, 2, 2)
    assert calls == [1, 1]  # once per instance
    assert Box.twice.__doc__ == "2v."
    assert a == b and hash(a) == hash(b) == hash(Box(1))  # the cache is no field


def test_read_properties_leave_hash_and_equality_as_they_were():
    def fresh():
        return [
            HalfOpen(F(0), F(1)),
            ClopenInterval(F(1, 4), F(1, 2)),
            TangentDisc(F(1, 3), F(3, 4)),
            InteriorDisc(F(2), F(5, 4), F(3, 4)),
            validate_regular_open(Space.NIEMYTZKI, [TangentDisc(F(1, 3), F(3, 4))]),
        ]

    disc = ("terms", "binary64", "binary64_r", "center", "r2")
    names = [("terms",), ("terms", "length"), disc, disc]
    names.append(("separated", "circles", "corners", "inscribed_tangent_discs"))
    read, unread = fresh(), fresh()
    for s, t, cached in zip(read, unread, names):
        for name in cached:
            value = getattr(s, name)
            assert getattr(s, name) is value and vars(s)[name] is value  # kept once read
        assert s == t and hash(s) == hash(t)
    assert {*read} == {*unread}


@given(_coord, _height, _coord, _height)
def test_integer_sq_dist_is_the_fraction_formula(px, py, qx, qy):
    p, q = NiemytzkiPoint(px, py), NiemytzkiPoint(qx, qy)
    num, den = sq_dist_terms(p, q)
    assert den > 0 and F(num, den) == (px - qx) ** 2 + (py - qy) ** 2
    d2 = sq_dist(p, q)
    assert type(d2) is F and d2 == (px - qx) ** 2 + (py - qy) ** 2


@given(_discs(), _coord, _height)
def test_disc_kernel_is_the_fraction_formula(s, px, py):
    p = NiemytzkiPoint(px, py)
    assert disc_sq_dist(s, p) == _plain_member_d2(s, px, py)
    assert basic_member(s, p) is (_plain_member_d2(s, px, py) is not None)
    assert basic_closure_member(s, p) is (_plain_sq_dist(s, px, py) <= s.r * s.r)


@given(_discs(), st.fractions(min_value=-4, max_value=4, max_denominator=97))
def test_exact_boundary_is_outside_the_disc_and_inside_its_closure(s, t):
    # (1 - t^2, 2t) / (1 + t^2) runs over the rational points of the unit circle
    c = s.center
    p = NiemytzkiPoint(c.x + s.r * (1 - t * t) / (1 + t * t), c.y + s.r * 2 * t / (1 + t * t))
    assert _plain_sq_dist(s, p.x, p.y) == s.r * s.r
    tangency = isinstance(s, TangentDisc) and t == -1
    assert (disc_sq_dist(s, p) is None) is not tangency
    assert basic_closure_member(s, p)


@given(_discs())
def test_tangency_point(s):
    c = s.center
    p = NiemytzkiPoint(c.x, F(0))
    if isinstance(s, TangentDisc):  # the tangency point is the one axis point inside
        assert disc_sq_dist(s, p) == s.r * s.r
    else:  # an interior disc with r = cy touches the axis only in its closure
        assert disc_sq_dist(s, p) is None
    assert basic_closure_member(s, p) is (s.r == c.y)


@given(_discs(), st.floats(-3, 3), st.floats(1e-6, 3))
def test_binary64_point_against_an_exact_disc_keeps_its_bits(s, px, py):
    p, c = NiemytzkiPoint(px, py), s.center
    assert s.binary64 == (float(c.x), float(c.y), float(s.r2))
    # what Fraction's operators compute on a float operand
    dx, dy = px - c.x, py - c.y
    mixed = dx * dx + dy * dy
    dx, dy = px - float(c.x), py - float(c.y)
    converted = dx * dx + dy * dy
    assert mixed.hex() == converted.hex()
    d2 = disc_sq_dist(s, p)
    if lt(converted, s.r2):
        assert d2.hex() == converted.hex()
    else:
        assert d2 is None
    assert basic_closure_member(s, p) is (converted <= float(s.r2) + EPS)


@given(_coord, _radius, _coord, _height.filter(lambda y: y > 0))
def test_chord_radicand_is_the_fraction_formula(a, r, x, y):
    assume(x != a)  # on the vertical axis the kernel returns r itself
    if y >= r:
        y = y * r / (y + r)  # below the horizontal diameter: 0 < y < r
    plain = r - r * abs(x - a) / sqrt_scalar(2 * y * r - y * y)
    # the chord piece of B*(a, r), on the row and column terms of y and x
    row, col, chord_value, _ = _exact_pieces(TangentDisc(a, r), False)
    (chord,) = chord_value([col(x.as_integer_ratio())], row(y.as_integer_ratio()))
    assert chord == plain
    assert type(chord) is type(plain)


# ---------------------------------------------------------------------------
# double arrow membership on integer terms


_MIN, _MAX = DoubleArrowPoint(F(0), 0), DoubleArrowPoint(F(1), 1)
#: dyadic and other rationals of [0, 1], with both ends drawn often
_unit = st.sampled_from([F(0), F(1)]) | st.integers(0, 2**10).map(lambda k: F(k, 2**10)) | st.fractions(0, 1)


@st.composite
def _clopen_cases(draw):
    """A clopen interval 0 <= a < b <= 1 with any flags its ends allow, and
    points at a, at b, at 0, at 1 and anywhere, on both sides."""
    a, b = sorted(draw(st.lists(_unit, min_size=2, max_size=2, unique=True)))
    left = a == 0 and draw(st.booleans())
    right = b == 1 and draw(st.booleans())
    ts = {a, b, F(0), F(1), draw(_unit)}
    return ClopenInterval(a, b, left, right), [DoubleArrowPoint(t, side) for t in ts for side in (0, 1)]


def _lex_member(c, p):
    """Membership by definition: (a, 1) <= p <= (b, 0) in the lexicographic
    order, or p is a kept extreme."""
    inside = not lex_less(p, DoubleArrowPoint(c.a, 1)) and not lex_less(DoubleArrowPoint(c.b, 0), p)
    kept = (c.include_left_extreme and p == _MIN) or (c.include_right_extreme and p == _MAX)
    return inside, kept


@given(_clopen_cases())
def test_clopen_membership_is_the_lexicographic_order(case):
    c, points = case
    for p in points:
        inside, kept = _lex_member(c, p)
        assert basic_member(c, p) is (inside or kept)
        assert basic_closure_member(c, p) is (inside or kept)
        # with a < b the order interval never holds an isolated extreme
        assert not (inside and p in (_MIN, _MAX))


def test_clopen_membership_flag_combinations():
    for left in (False, True):
        for right in (False, True):
            c = ClopenInterval(F(0), F(1), left, right)
            assert basic_member(c, _MIN) is left
            assert basic_member(c, _MAX) is right
            assert basic_member(c, DoubleArrowPoint(F(0), 1))
            assert basic_member(c, DoubleArrowPoint(F(1), 0))


@given(st.integers(0, 1), _unit, st.integers(0, 1))
def test_extreme_singleton_membership_is_point_equality(side, t, p_side):
    p = DoubleArrowPoint(t, p_side)
    assert basic_member(ExtremeSingleton(side), p) is (p == DoubleArrowPoint(F(side), side))


def test_double_arrow_membership_checks_the_space():
    for s in (ClopenInterval(F(0), F(1)), ExtremeSingleton(0)):
        with pytest.raises(SpaceMismatchError):
            basic_member(s, SorgenfreyPoint(F(0)))


@pytest.mark.parametrize("side", [True, False, 1.0, F(0), "1", 2, -1])
def test_extreme_singleton_side_is_the_integer_0_or_1(side):
    with pytest.raises(ValueError):
        ExtremeSingleton(side)
