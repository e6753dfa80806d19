"""Canonical unions, regular-openness validation, chains."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

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
    basic_member,
    basic_subset,
    closure_member,
    decreasing_chain_interior,
    increasing_union_limit,
    member,
    validate_regular_open,
)
from kappalab.basesets import basic_neighborhoods
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

    for hood in basic_neighborhoods(p, depth):
        probes = list(_points_inside(hood, 16))
        if all(closure_member(s, q) for q in probes):
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
# increasing unions


def test_increasing_union_interior_disc():
    chain = ParametricBasicSet(
        "interior_disc",
        {"cx": ParamValue(F(0)), "cy": ParamValue(F(1)), "r": ParamValue(F(1), F(-1), F(0), 1)},
    )
    lim = increasing_union_limit(chain, 64)
    assert lim == InteriorDisc(F(0), F(1), F(1))
    # every evaluated element is contained in the limit
    for n in range(1, 65):
        assert basic_subset(chain.at(n), lim)


def test_increasing_union_tangent_disc():
    chain = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0)), "r": ParamValue(F(1), F(-1), F(0), 1)}
    )
    assert increasing_union_limit(chain, 64) == TangentDisc(F(0), F(1))


def _interior_lane(cx, cy, r):
    return ParametricBasicSet("interior_disc", {"cx": cx, "cy": cy, "r": r})


def test_increasing_union_constant():
    lane = _interior_lane(ParamValue(F(0)), ParamValue(F(2)), ParamValue(F(1)))
    assert increasing_union_limit(lane, 16) == InteriorDisc(F(0), F(2), F(1))


def test_increasing_union_shifted_lane_exact():
    # r_n = 1 - 1/(n+1)
    lane = _interior_lane(ParamValue(F(0)), ParamValue(F(1)), ParamValue(F(1), F(-1), F(0), 1))
    assert increasing_union_limit(lane, 16) == InteriorDisc(F(0), F(1), F(1))


def test_increasing_union_rejects_decreasing():
    # r_n = 1/2 + 1/(2(n+1))
    lane = _interior_lane(ParamValue(F(0)), ParamValue(F(2)), ParamValue(F(1, 2), F(1, 2), F(0), 1))
    with pytest.raises(NonMonotoneChainError):
        increasing_union_limit(lane, 8)


def test_increasing_union_rejects_mixed_shapes():
    def mixed(n):
        if n % 2:
            return TangentDisc(F(0), F(1, 2))
        return InteriorDisc(F(0), F(2), F(1))

    with pytest.raises(Exception):
        increasing_union_limit(mixed, 8)


# ---------------------------------------------------------------------------
# decreasing chains


def test_decreasing_tangent_chain_interior():
    comp = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0)), "r": ParamValue(F(1, 2), F(1), F(0), 1)}
    )
    W = decreasing_chain_interior(DecreasingChain(Space.NIEMYTZKI, (comp,), 64))
    assert W.components == (TangentDisc(F(0), F(1, 2)),)
    # boundary points: the tangency stays in, the new boundary circle is out
    assert member(W, NiemytzkiPoint(F(0), F(0)))
    assert not member(W, NiemytzkiPoint(F(0), F(1)))  # top of the limit disc


def test_decreasing_tangent_chain_empty():
    comp = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0)), "r": ParamValue(F(0), F(1))}
    )
    assert decreasing_chain_interior(DecreasingChain(Space.NIEMYTZKI, (comp,), 64)).is_empty


def test_decreasing_pinch_chain():
    chain = double_arrow_pinch_chain(64)
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
    W = decreasing_chain_interior(DecreasingChain(Space.SORGENFREY, (comp,), 64))
    assert W.components == (HalfOpen(F(0), F(1)),)


def test_decreasing_chain_rejects_non_monotone():
    comp = ParametricBasicSet(
        "half_open", {"a": ParamValue(F(0), F(1, 4)), "b": ParamValue(F(1))}
    )  # a_n decreasing: the sets grow
    with pytest.raises(NonMonotoneChainError):
        decreasing_chain_interior(DecreasingChain(Space.SORGENFREY, (comp,), 16))


def test_decreasing_tangent_chain_requires_fixed_tangency():
    comp = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0), F(1, 8)), "r": ParamValue(F(1, 2), F(1, 4))}
    )
    with pytest.raises(Exception):
        decreasing_chain_interior(DecreasingChain(Space.NIEMYTZKI, (comp,), 16))


def test_chain_interior_contained_in_every_element():
    rng = random.Random(9)
    from kappalab.sampling import sample_chain

    for space in (Space.SORGENFREY, Space.NIEMYTZKI, Space.DOUBLE_ARROW):
        for _ in range(6):
            chain = sample_chain(space, rng, depth=32)
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
