"""Canonical unions, regular-openness validation, chains."""

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
    NonMonotoneChainError,
    NotRegularOpenError,
    OpenInterval,
    ParamValue,
    ParametricBasicSet,
    DecreasingChain,
    SorgenfreyPoint,
    Space,
    TangentDisc,
    basic_closure_member,
    basic_member,
    basic_subset,
    decreasing_chain_interior,
    member,
    validate_regular_open,
)
from kappalab.basesets import basic_neighborhood
from kappalab.rosets import MalformedChainError
from kappalab.serialize import decode_roset, encode_roset
from kappalab.sampling import sample_point_near_set, sample_set, double_arrow_pinch_chain


def test_open_interval_rejected_with_witness():
    with pytest.raises(NotRegularOpenError) as exc:
        validate_regular_open(Space.SORGENFREY, [OpenInterval(F(0), F(1))])
    assert exc.value.witness == SorgenfreyPoint(F(0))


def test_adjacent_halfopen_merge():
    s = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1)), HalfOpen(F(1), F(2))])
    assert s.components == (HalfOpen(F(0), F(2)),)
    # every union is validated exactly when built; the wire form says nothing more
    assert encode_roset(s) == {"space": "sorgenfrey", "components": [{"kind": "half_open", "a": "0", "b": "2"}]}


def test_single_point_gap_rejected():
    # [0,1) with (1,2): the closure covers [0,2) and 1 becomes interior
    with pytest.raises(NotRegularOpenError) as exc:
        validate_regular_open(
            Space.SORGENFREY, [HalfOpen(F(0), F(1)), OpenInterval(F(1), F(2))]
        )
    assert exc.value.witness == SorgenfreyPoint(F(1))


def test_open_interval_covered_by_halfopen_is_fine():
    s = validate_regular_open(
        Space.SORGENFREY, [HalfOpen(F(0), F(1)), OpenInterval(F(0), F(2))]
    )
    assert s.components == (HalfOpen(F(0), F(2)),)


def test_tangent_discs_accepted():
    s = validate_regular_open(
        Space.NIEMYTZKI, [TangentDisc(F(0), F(1)), TangentDisc(F(1), F(1))]
    )
    # the optional input key "certificate" is still accepted
    assert decode_roset({**encode_roset(s), "certificate": "exact"}) == s
    assert len(s.components) == 2


def test_uncovered_axis_tangency_rejected():
    # an interior disc tangent to the axis adds its tangency point to int cl
    with pytest.raises(NotRegularOpenError) as exc:
        validate_regular_open(Space.NIEMYTZKI, [InteriorDisc(F(0), F(1), F(1))])
    assert exc.value.witness == NiemytzkiPoint(F(0), F(0))
    # covering the tangency point with a tangent disc repairs it
    s = validate_regular_open(
        Space.NIEMYTZKI, [InteriorDisc(F(0), F(1), F(1)), TangentDisc(F(0), F(1, 2))]
    )
    assert len(s.components) == 2


def test_niemytzki_contained_component_dropped():
    s = validate_regular_open(
        Space.NIEMYTZKI,
        [InteriorDisc(F(0), F(2), F(1)), InteriorDisc(F(0), F(2), F(1, 2))],
    )
    assert s.components == (InteriorDisc(F(0), F(2), F(1)),)


def test_double_arrow_merges():
    s = validate_regular_open(
        Space.DOUBLE_ARROW,
        [ClopenInterval(F(0), F(1, 4)), ClopenInterval(F(1, 4), F(1, 2))],
    )
    assert s.components == (ClopenInterval(F(0), F(1, 2)),)
    # an extreme singleton fuses with an interval reaching its corner
    s2 = validate_regular_open(
        Space.DOUBLE_ARROW, [ExtremeSingleton(0), ClopenInterval(F(0), F(1, 4))]
    )
    assert s2.components == (ClopenInterval(F(0), F(1, 4), include_left_extreme=True),)
    s3 = validate_regular_open(Space.DOUBLE_ARROW, [ExtremeSingleton(1)])
    assert s3.components == (ExtremeSingleton(1),)


def _int_cl_member(s, p, depth=14):
    """Sampled interior-of-closure membership: some canonical neighborhood of
    p lies inside cl(s), probed on a point grid per neighborhood."""
    from kappalab.harness import _points_inside

    for hood in (basic_neighborhood(p, k) for k in range(1, depth + 1)):
        probes = list(_points_inside(hood, 16))
        if all(any(basic_closure_member(c, q) for c in s.components) for q in probes):
            return True
    return False


def _clearly_positioned(s, p, margin=F(1, 1024)):
    """Keep the finite-depth neighborhood oracle honest: skip points whose
    distance to a component boundary is below the oracle's resolution."""
    for c in s.components:
        if isinstance(c, HalfOpen):
            if p.x != c.a and abs(p.x - c.a) < margin:
                return False
            if abs(p.x - c.b) < margin and p.x != c.b:
                return False
        elif isinstance(c, ClopenInterval):
            for end in (c.a, c.b):
                if p.t != end and abs(p.t - end) < margin:
                    return False
        elif isinstance(c, ExtremeSingleton):
            continue
        else:
            from kappalab.spaces import sq_dist

            gap = sq_dist(p, c.center) - c.r * c.r
            if gap != 0 and abs(gap) < margin:
                return False
    return True


def test_validated_sets_equal_interior_of_closure_sampled():
    rng = random.Random(42)
    for space in Space:
        for _ in range(20):
            s = sample_set(space, rng)
            for _ in range(15):
                p = sample_point_near_set(s, rng)
                if not _clearly_positioned(s, p):
                    continue
                assert member(s, p) == _int_cl_member(s, p), (s, p)


def test_rejection_witness_lies_in_int_cl_minus_set():
    cases = [
        (Space.SORGENFREY, [OpenInterval(F(0), F(1))]),
        (Space.NIEMYTZKI, [InteriorDisc(F(2), F(1, 2), F(1, 2))]),
    ]
    for space, comps in cases:
        with pytest.raises(NotRegularOpenError) as exc:
            validate_regular_open(space, comps)
        w = exc.value.witness
        assert not any(basic_member(c, w) for c in comps)
        # the witness adheres: every neighborhood hits the candidate's closure
        from kappalab.basesets import basic_closure_member

        assert any(basic_closure_member(c, w) for c in comps)


def test_basic_subset_cases():
    assert basic_subset(InteriorDisc(F(0), F(2), F(1, 2)), InteriorDisc(F(0), F(2), F(1)))
    assert basic_subset(InteriorDisc(F(0), F(2), F(1)), InteriorDisc(F(0), F(2), F(1)))
    assert not basic_subset(InteriorDisc(F(0), F(2), F(1)), InteriorDisc(F(0), F(3), F(1)))
    assert basic_subset(TangentDisc(F(0), F(1, 2)), TangentDisc(F(0), F(1)))
    assert not basic_subset(TangentDisc(F(0), F(1)), InteriorDisc(F(0), F(1), F(1)))
    assert basic_subset(HalfOpen(F(0), F(1)), OpenInterval(F(-1), F(1)))
    assert not basic_subset(HalfOpen(F(0), F(1)), OpenInterval(F(0), F(1)))


# ---------------------------------------------------------------------------
# nesting for every n


def test_lane_that_grows_back_after_n_200_is_rejected():
    # [0, 1 - 1/n + 100/n^2) shrinks to [0, 399/400) at n = 200 and then grows
    # back towards [0, 1): the first 64 elements nest, U_201 does not lie in U_200
    lane = ParametricBasicSet("half_open", {"a": ParamValue(F(0)), "b": ParamValue(F(1), F(-1), F(100))})
    assert all(basic_subset(lane.at(n + 1), lane.at(n)) for n in range(1, 200))
    assert lane.at(200) == HalfOpen(F(0), F(399, 400))
    assert not basic_subset(lane.at(201), lane.at(200))
    with pytest.raises(NonMonotoneChainError, match="for large n"):
        DecreasingChain(Space.SORGENFREY, (lane,))


# The lanes that an increasing union would take, r_n = 1 - 1/(n+1), grow at
# the first step, so no decreasing chain is built from them; a constant lane
# nests and is its own limit.

_GROWING = ParamValue(F(1), F(-1), F(0), 1)


def _interior_lane(cx, cy, r):
    return ParametricBasicSet("interior_disc", {"cx": cx, "cy": cy, "r": r})


def test_increasing_union_interior_disc():
    lane = _interior_lane(ParamValue(F(0)), ParamValue(F(1)), _GROWING)
    # every element lies in B((0, 1), 1), and each lies in the next, not the other way round
    for n in range(1, 65):
        assert basic_subset(lane.at(n), InteriorDisc(F(0), F(1), F(1)))
        assert basic_subset(lane.at(n), lane.at(n + 1))
    with pytest.raises(NonMonotoneChainError, match="from n=1 to n=2"):
        DecreasingChain(Space.NIEMYTZKI, (lane,))


def test_increasing_union_tangent_disc():
    lane = ParametricBasicSet("tangent_disc", {"a": ParamValue(F(0)), "r": _GROWING})
    assert basic_subset(lane.at(64), TangentDisc(F(0), F(1)))
    with pytest.raises(NonMonotoneChainError, match="from n=1 to n=2"):
        DecreasingChain(Space.NIEMYTZKI, (lane,))


def test_increasing_union_constant():
    lane = _interior_lane(ParamValue(F(0)), ParamValue(F(2)), ParamValue(F(1)))
    chain = DecreasingChain(Space.NIEMYTZKI, (lane,))
    assert decreasing_chain_interior(chain).components == (InteriorDisc(F(0), F(2), F(1)),)


def test_increasing_union_shifted_lane_exact():
    # the shifted lane's elements are exact: r_n = 1 - 1/(n+1) on a disc, b_n on [0, b_n)
    lane = _interior_lane(ParamValue(F(0)), ParamValue(F(1)), _GROWING)
    assert [lane.at(n).r for n in (1, 2, 16)] == [F(1, 2), F(2, 3), F(16, 17)]
    half_open = ParametricBasicSet("half_open", {"a": ParamValue(F(0)), "b": _GROWING})
    assert half_open.at(16) == HalfOpen(F(0), F(16, 17))
    with pytest.raises(NonMonotoneChainError, match="from n=1 to n=2"):
        DecreasingChain(Space.SORGENFREY, (half_open,))


def test_disc_lane_needs_one_shift():
    # the centre (1/(8(n+1)), 1) moves by less than the radius 1/4 + 1/(8n)
    # falls, so the lane nests; its moving parameters still need one shift
    lane = ParametricBasicSet(
        "interior_disc",
        {"cx": ParamValue(F(0), F(1, 8), F(0), 1), "cy": ParamValue(F(1)), "r": ParamValue(F(1, 4), F(1, 8))},
    )
    assert all(basic_subset(lane.at(n + 1), lane.at(n)) for n in range(1, 100))
    with pytest.raises(MalformedChainError, match="one shift"):
        DecreasingChain(Space.NIEMYTZKI, (lane,))
    one_shift = dict(lane.params, cx=ParamValue(F(0), F(1, 8)))
    DecreasingChain(Space.NIEMYTZKI, (ParametricBasicSet("interior_disc", one_shift),))


def test_flagged_endpoint_stays_put():
    # (0,0) is flagged only while a = 0; a = 1/(4n) - 1/(4n^2) is 0 at n = 1 only
    b = ParamValue(F(3, 4))
    moving = ParamValue(F(0), F(1, 4), F(-1, 4))
    flags = {"include_left_extreme": True}
    assert moving.at(1) == 0 and moving.at(2) > 0
    with pytest.raises(NonMonotoneChainError):
        DecreasingChain(Space.DOUBLE_ARROW, (ParametricBasicSet("clopen_interval", {"a": moving, "b": b}, flags),))
    DecreasingChain(Space.DOUBLE_ARROW, (ParametricBasicSet("clopen_interval", {"a": ParamValue(F(0)), "b": b}, flags),))


def test_lane_size_stays_positive():
    # [1 - 1/n, 1/2 + 1/(2n)) nests but is empty from n = 3 on
    lane = ParametricBasicSet("half_open", {"a": ParamValue(F(1), F(-1)), "b": ParamValue(F(1, 2), F(1, 2))})
    with pytest.raises(MalformedChainError, match="size"):
        DecreasingChain(Space.SORGENFREY, (lane,))
    # a radius falling to -1/4; and one falling strictly to 0, which every element clears
    for r, ok in ((ParamValue(F(-1, 4), F(1)), False), (ParamValue(F(0), F(1, 2)), True)):
        lane = ParametricBasicSet("tangent_disc", {"a": ParamValue(F(0)), "r": r})
        assert _decided(Space.NIEMYTZKI, lane) is ok


def _nests_to(lane, last=10**4) -> bool:
    """Whether elements 1..last exist and each lies inside the one before."""
    prev = lane.at(1)
    for n in range(2, last + 1):
        try:
            cur = lane.at(n)
        except ValueError:  # an interval or disc of size 0 or less
            return False
        if not basic_subset(cur, prev):
            return False
        prev = cur
    return True


def _decided(space, lane) -> bool:
    try:
        DecreasingChain(space, (lane,))
    except (NonMonotoneChainError, MalformedChainError):
        return False
    return True


def _builds(lane) -> bool:
    try:
        lane.at(1)
    except ValueError:
        return False
    return True


# Coefficients c1, c2 are k/128 with |k| <= 16, shifts 0..3.  A lane that does
# not nest for every n then fails at a step n <= 4096, inside the scan to 10^4
# (docs/derivations.md, "Nesting for every n": it nests exactly when it nests
# at u_1, the first step, and at u = 0, and u_n = t_n + t_{n+1} < 2/(n+s)):
# * an endpoint, a tangency point or a radius fails only at u = 0 when its rate
#   c1 + c2 u changes sign at u* = -c1/c2 >= 1/16; every u_n < u* fails, and
#   u_n < 1/16 once n >= 32;
# * a disc lane fails only at u = 0 when 128^2 (L_r^2 - |L_centre|^2) =
#   A u^2 + B u + C, an integer quadratic with |A| <= 512 and |B| <= 1536, has
#   C <= -1; a root u in (0, 1] has 1 <= |A u^2 + B u| <= 2048 u, so the
#   quadratic stays negative on [0, 1/2048] and every u_n < 1/2048 fails,
#   which holds once n + s >= 4096;
# * the limit width or radius is >= 0 here, so a lane with a valid element 1
#   keeps a positive size at every n.
_shift = st.integers(0, 3)
_sixteenths = lambda lo, hi: st.integers(lo, hi).map(lambda k: F(k, 16))


@st.composite
def _moving(draw, const, shift=None, lo=-16, hi=16):
    """c0 + c1 t + c2 t^2 with c1 = k/128 for lo <= k <= hi, which steers the
    draws towards the sign a decreasing lane needs, and c2 = k/128, |k| <= 16."""
    c1, c2 = draw(st.integers(lo, hi)), draw(st.integers(-16, 16))
    return ParamValue(draw(const), F(c1, 128), F(c2, 128), draw(_shift) if shift is None else shift)


@st.composite
def _lanes(draw, kind):
    if kind in ("half_open", "clopen_interval"):
        a = draw(_moving(_sixteenths(4, 8), lo=-16, hi=4))
        b = draw(_moving(st.just(a.const + draw(_sixteenths(0, 4))), lo=-4, hi=16))
        return ParametricBasicSet(kind, {"a": a, "b": b})
    shift = draw(_shift)
    r = draw(_moving(_sixteenths(0, 8), shift, lo=-4))
    if kind == "tangent_disc":
        a = draw(st.one_of(st.just(ParamValue(F(0))), _moving(st.just(F(0)), shift)))
        return ParametricBasicSet(kind, {"a": a, "r": r})
    cx = draw(_moving(_sixteenths(-8, 8), shift, lo=-8, hi=8))
    cy = draw(_moving(_sixteenths(16, 32), shift, lo=-8, hi=8))
    return ParametricBasicSet(kind, {"cx": cx, "cy": cy, "r": r})


_LANE_SPACES = {
    "half_open": Space.SORGENFREY,
    "clopen_interval": Space.DOUBLE_ARROW,
    "tangent_disc": Space.NIEMYTZKI,
    "interior_disc": Space.NIEMYTZKI,
}


_TAIL_FAILURES = {
    # b = 1 - 1/(128n) + 1/(8n^2): rises again once u_n < 1/16
    "half_open": {"a": ParamValue(F(0)), "b": ParamValue(F(1), F(-1, 128), F(1, 8))},
    # a = 1/4 + 1/(128n) - 1/(8n^2): falls again once u_n < 1/16
    "clopen_interval": {"a": ParamValue(F(1, 4), F(1, 128), F(-1, 8)), "b": ParamValue(F(1, 2))},
    # r = 1/2 - 1/(128(n+2)) + 1/(8(n+2)^2): grows again once u_n < 1/16
    "tangent_disc": {"a": ParamValue(F(0)), "r": ParamValue(F(1, 2), F(-1, 128), F(1, 8), 2)},
    # the centre moves at rate 1/64, the radius falls at rate 1/128 + u/8: the
    # centre outruns it once u_n < 1/16
    "interior_disc": {
        "cx": ParamValue(F(0), F(1, 64)),
        "cy": ParamValue(F(1)),
        "r": ParamValue(F(1, 2), F(1, 128), F(1, 8)),
    },
}


@pytest.mark.parametrize("kind", list(_TAIL_FAILURES))
def test_nesting_decider_catches_failures_past_the_first_steps(kind):
    lane = ParametricBasicSet(kind, _TAIL_FAILURES[kind])
    assert all(basic_subset(lane.at(n + 1), lane.at(n)) for n in range(1, 20))
    assert not _nests_to(lane, 100)
    with pytest.raises(NonMonotoneChainError, match="for large n"):
        DecreasingChain(_LANE_SPACES[kind], (lane,))


@pytest.mark.parametrize("kind", list(_LANE_SPACES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_nesting_decider_agrees_with_explicit_nesting(kind, data):
    lane = data.draw(_lanes(kind))
    assume(_builds(lane))
    assert _decided(_LANE_SPACES[kind], lane) == _nests_to(lane)


# ---------------------------------------------------------------------------
# decreasing chains


def test_decreasing_tangent_chain_interior():
    comp = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0)), "r": ParamValue(F(1, 2), F(1), F(0), 1)}
    )
    W = decreasing_chain_interior(DecreasingChain(Space.NIEMYTZKI, (comp,)))
    assert W.components == (TangentDisc(F(0), F(1, 2)),)
    # boundary points: the tangency stays in, the new boundary circle is out
    assert member(W, NiemytzkiPoint(F(0), F(0)))
    assert not member(W, NiemytzkiPoint(F(0), F(1)))  # top of the limit disc


def test_decreasing_tangent_chain_empty():
    comp = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0)), "r": ParamValue(F(0), F(1))}
    )
    assert decreasing_chain_interior(DecreasingChain(Space.NIEMYTZKI, (comp,))).is_empty


def test_decreasing_pinch_chain():
    chain = double_arrow_pinch_chain()
    W = decreasing_chain_interior(chain)
    assert W.components == (ClopenInterval(F(1, 10), F(1, 5)),)
    p = DoubleArrowPoint(F(1, 10), 0)
    assert not member(W, p)
    for k in (1, 5, 25, 64):
        assert member(chain.at(k), p)


def test_decreasing_sorgenfrey_chain():
    comp = ParametricBasicSet(
        "half_open", {"a": ParamValue(F(0), F(-1, 4)), "b": ParamValue(F(1), F(1, 4))}
    )
    W = decreasing_chain_interior(DecreasingChain(Space.SORGENFREY, (comp,)))
    assert W.components == (HalfOpen(F(0), F(1)),)


def test_decreasing_chain_rejects_non_monotone():
    comp = ParametricBasicSet(
        "half_open", {"a": ParamValue(F(0), F(1, 4)), "b": ParamValue(F(1))}
    )  # a_n decreasing: the sets grow
    with pytest.raises(NonMonotoneChainError):
        decreasing_chain_interior(DecreasingChain(Space.SORGENFREY, (comp,)))


def test_decreasing_tangent_chain_requires_fixed_tangency():
    comp = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0), F(1, 8)), "r": ParamValue(F(1, 2), F(1, 4))}
    )
    with pytest.raises(Exception):
        decreasing_chain_interior(DecreasingChain(Space.NIEMYTZKI, (comp,)))


def _tangent_lane(a, r):
    """The lane B*(a, r + 1/(8n))."""
    return ParametricBasicSet("tangent_disc", {"a": ParamValue(a), "r": ParamValue(r, F(1, 8))})


def test_niemytzki_chain_lanes_must_be_apart():
    # overlapping tangent lanes, and an interior lane inside a tangent one, are
    # no chain; the same tangent lanes 2 apart are one
    inside = ParametricBasicSet(
        "interior_disc", {"cx": ParamValue(F(0)), "cy": ParamValue(F(1, 2)), "r": ParamValue(F(1, 8), F(1, 16))}
    )
    overlapping = (_tangent_lane(F(0), F(1, 4)), _tangent_lane(F(1, 4), F(1, 4)))
    for lanes in (overlapping, (_tangent_lane(F(0), F(1, 2)), inside)):
        with pytest.raises(MalformedChainError, match="pairwise disjoint component lanes"):
            DecreasingChain(Space.NIEMYTZKI, lanes)
    apart = DecreasingChain(Space.NIEMYTZKI, (_tangent_lane(F(0), F(1, 4)), _tangent_lane(F(2), F(1, 4))))
    assert apart.at(1).components == (TangentDisc(F(0), F(3, 8)), TangentDisc(F(2), F(3, 8)))


def test_chain_interior_contained_in_every_element():
    rng = random.Random(9)
    from kappalab.sampling import sample_chain

    for space in (Space.SORGENFREY, Space.NIEMYTZKI, Space.DOUBLE_ARROW):
        for _ in range(6):
            chain = sample_chain(space, rng)
            W = decreasing_chain_interior(chain)
            for n in (1, 7, 32):
                el = chain.at(n)
                for _ in range(10):
                    p = sample_point_near_set(W if not W.is_empty else el, rng)
                    if member(W, p):
                        assert member(el, p)


_coeff = st.fractions(min_value=-4, max_value=4, max_denominator=50)


@given(_coeff, _coeff, _coeff, st.integers(0, 5), st.integers(1, 300))
def test_param_value_is_the_fraction_sum(c0, c1, c2, shift, n):
    # one Fraction over the common denominator is the term-by-term sum
    d = n + shift
    value = ParamValue(c0, c1, c2, shift).at(n)
    assert type(value) is F and value == c0 + c1 / d + c2 / (d * d)
    # a binary64 coefficient keeps the float sum
    assert ParamValue(c0, float(c1), c2, shift).at(n) == c0 + float(c1) / d + c2 / (d * d)
