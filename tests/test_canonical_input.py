"""Canonical input: the canonicalizers agree with a reference copy of the
general algorithms (sort, merge, containment search), and integer-term hull
separation agrees with the Fraction formula."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from kappalab import (
    ClopenInterval,
    ExtremeSingleton,
    HalfOpen,
    InteriorDisc,
    NiemytzkiPoint,
    NotRegularOpenError,
    OpenInterval,
    SorgenfreyPoint,
    Space,
    TangentDisc,
    basic_subset,
    validate_regular_open,
)
from kappalab.numerics import eq, lt, sq
from kappalab.rosets import (
    _canonical_double_arrow,
    _canonical_niemytzki,
    _canonical_sorgenfrey,
    _sort_key,
    separated_hulls,
)
from kappalab.spaces import sq_dist


# ---------------------------------------------------------------------------
# reference copies of the general algorithms, with no fast path


def _ref_sorgenfrey(components):
    items = []
    for c in components:
        items.append([c.a, isinstance(c, HalfOpen), c.b, c])
    items.sort(key=lambda it: (it[0], not it[1]))
    merged = []
    for it in items:
        if merged:
            cur = merged[-1]
            if it[0] < cur[2] or (it[0] == cur[2] and it[1]):
                cur[2] = max(cur[2], it[2])
                continue
        merged.append(list(it))
    out = []
    for left, closed, right, first in merged:
        if not closed:
            raise NotRegularOpenError(f"({left}, {right}) is left-open", SorgenfreyPoint(left))
        out.append(first if right == first.b else HalfOpen(left, right))
    return out


def _ref_double_arrow(components):
    intervals, left_single, right_single = [], None, None
    for c in components:
        if isinstance(c, ClopenInterval):
            intervals.append([c.a, c.b, c.include_left_extreme, c.include_right_extreme, c])
        elif c.side == 0:
            left_single = c
        else:
            right_single = c
    intervals.sort(key=lambda it: (it[0], it[1]))
    merged = []
    for it in intervals:
        if merged and it[0] <= merged[-1][1]:
            cur = merged[-1]
            cur[1] = max(cur[1], it[1])
            cur[2] = cur[2] or it[2]
            cur[3] = cur[3] or it[3]
        else:
            merged.append(list(it))
    if left_single and merged and merged[0][0] == 0:
        merged[0][2] = True
        left_single = None
    if right_single and merged and merged[-1][1] == 1:
        merged[-1][3] = True
        right_single = None
    out = [left_single] if left_single else []
    for a, b, fl, fr, first in merged:
        unchanged = (b, fl, fr) == (first.b, first.include_left_extreme, first.include_right_extreme)
        out.append(first if unchanged else ClopenInterval(a, b, fl, fr))
    return out + ([right_single] if right_single else [])


def _ref_separated(discs):
    return all(
        lt(sq(a.r + b.r), sq_dist(a.center, b.center))
        for i, a in enumerate(discs)
        for b in discs[i + 1 :]
    )


def _ref_niemytzki(components):
    kept = []
    for c in sorted(components, key=_sort_key):
        if any(basic_subset(c, k) for k in kept):
            continue
        kept = [k for k in kept if not basic_subset(k, c)]
        kept.append(c)
    kept.sort(key=_sort_key)
    for c in kept:
        if isinstance(c, InteriorDisc) and c.axis_tangent:
            if not any(isinstance(k, TangentDisc) and eq(k.a, c.cx) for k in kept):
                raise NotRegularOpenError("uncovered tangency", NiemytzkiPoint(c.cx, c.cy * 0))
    return kept


def _agree(canonical, reference, components):
    """Run both; they raise the same error with the same witness, or return
    equal lists whose unmerged elements are the same input objects."""
    try:
        expected = reference(components)
    except NotRegularOpenError as exc:
        with pytest.raises(NotRegularOpenError) as got:
            canonical(components)
        assert got.value.witness == exc.witness
        return None
    out = canonical(components)
    out = out[0] if isinstance(out, tuple) else out
    assert out == expected
    for got, want in zip(out, expected):
        if any(want is c for c in components):
            assert got is want
    return out


# ---------------------------------------------------------------------------
# strategies


_eighths = st.integers(-16, 16).map(lambda k: F(k, 8))


@st.composite
def _sorgenfrey_components(draw):
    """Canonical, touching, overlapping and unsorted intervals, some open."""
    if draw(st.booleans()):  # ordered and strictly apart: canonical
        cuts = sorted(draw(st.sets(st.integers(-16, 16), min_size=2, max_size=8)))
        comps = [HalfOpen(F(a, 8), F(b, 8)) for a, b in zip(cuts[0::2], cuts[1::2])]
        return draw(st.permutations(comps)) if draw(st.booleans()) else comps
    comps = []
    for _ in range(draw(st.integers(0, 5))):
        a = draw(_eighths)
        b = a + draw(st.integers(1, 12).map(lambda k: F(k, 8)))
        comps.append(draw(st.sampled_from([HalfOpen, HalfOpen, HalfOpen, OpenInterval]))(a, b))
    return comps


@st.composite
def _double_arrow_components(draw):
    """Canonical, touching, overlapping and unsorted clopen intervals, flagged
    extremes and extreme singletons."""
    comps = []
    if draw(st.booleans()):  # ordered and strictly apart
        cuts = sorted(draw(st.sets(st.integers(0, 16), min_size=2, max_size=8)))
        comps = [ClopenInterval(F(a, 16), F(b, 16)) for a, b in zip(cuts[0::2], cuts[1::2])]
        if draw(st.booleans()):
            comps = draw(st.permutations(comps))
    else:
        for _ in range(draw(st.integers(0, 5))):
            a = draw(st.integers(0, 15))
            b = draw(st.integers(a + 1, 16))
            left = a == 0 and draw(st.booleans())
            right = b == 16 and draw(st.booleans())
            comps.append(ClopenInterval(F(a, 16), F(b, 16), left, right))
    for side in draw(st.lists(st.integers(0, 1), max_size=3)):
        comps.insert(draw(st.integers(0, len(comps))), ExtremeSingleton(side))
    return comps


@st.composite
def _disc(draw, exact):
    num = F if exact else (lambda n, d=1: n / d)
    r = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return TangentDisc(num(draw(st.integers(-12, 12)), 4), num(r, 4))
    cy = draw(st.integers(r, 8))
    return InteriorDisc(num(draw(st.integers(-12, 12)), 4), num(cy, 4), num(r, 4))


@st.composite
def _niemytzki_components(draw):
    """Exact or binary64 discs on a quarter grid, where tangent and nested
    hulls are common; or discs in x-bands 8 apart, whose hulls are apart."""
    exact = draw(st.booleans())
    comps = draw(st.lists(_disc(exact), max_size=4))
    if draw(st.booleans()):  # shift disc i into band 8i
        shift = F if exact else float
        comps = [
            TangentDisc(c.a + shift(8 * i), c.r)
            if isinstance(c, TangentDisc)
            else InteriorDisc(c.cx + shift(8 * i), c.cy, c.r)
            for i, c in enumerate(comps)
        ]
    return comps


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=400, deadline=None)
@given(_sorgenfrey_components())
def test_canonical_sorgenfrey_matches_reference(comps):
    _agree(_canonical_sorgenfrey, _ref_sorgenfrey, comps)


@settings(max_examples=400, deadline=None)
@given(_double_arrow_components())
def test_canonical_double_arrow_matches_reference(comps):
    _agree(_canonical_double_arrow, _ref_double_arrow, comps)


@settings(max_examples=400, deadline=None)
@given(_niemytzki_components())
def test_canonical_niemytzki_matches_reference(comps):
    kept = _agree(_canonical_niemytzki, _ref_niemytzki, comps)
    if kept is not None:
        assert _canonical_niemytzki(comps)[1] == _ref_separated(kept)
        assert validate_regular_open(Space.NIEMYTZKI, comps).separated == _ref_separated(kept)


def test_canonical_input_is_returned_as_is():
    ordered = [HalfOpen(F(0), F(1)), HalfOpen(F(3, 2), F(2))]
    assert all(a is b for a, b in zip(_canonical_sorgenfrey(ordered), ordered))
    clopen = [ClopenInterval(F(1, 8), F(1, 4)), ClopenInterval(F(1, 2), F(1))]
    assert all(a is b for a, b in zip(_canonical_double_arrow(clopen), clopen))
    # a singleton that folds into nothing goes to its extreme end
    out = _canonical_double_arrow(clopen + [ExtremeSingleton(0)])
    assert out == [ExtremeSingleton(0), *clopen]
    # a singleton at an interval's extreme folds in
    out = _canonical_double_arrow([ExtremeSingleton(1), *clopen])
    assert out == [clopen[0], ClopenInterval(F(1, 2), F(1), include_right_extreme=True)]
    # touching intervals merge
    assert _canonical_sorgenfrey([HalfOpen(F(0), F(1)), HalfOpen(F(1), F(2))]) == [HalfOpen(F(0), F(2))]


def _fraction_separated(a, b):
    """(r_a + r_b)^2 < |c_a - c_b|^2 in Fractions."""
    return (a.r + b.r) ** 2 < (a.center.x - b.center.x) ** 2 + (a.center.y - b.center.y) ** 2


@settings(max_examples=500, deadline=None)
@given(_disc(True), _disc(True))
def test_integer_term_separation_matches_fraction_formula(a, b):
    assert separated_hulls([a, b]) == _fraction_separated(a, b)


@pytest.mark.parametrize(
    "a, b, apart",
    [
        (TangentDisc(F(0), F(1, 2)), TangentDisc(F(1), F(1, 2)), False),  # tangent hulls
        (TangentDisc(F(0), F(1, 2)), TangentDisc(F(1), F(1, 3)), True),
        (InteriorDisc(F(0), F(1), F(1, 2)), InteriorDisc(F(0), F(1), F(1, 4)), False),  # nested
        # centres 1 apart on a 3-4-5 triangle, radii 1/5 + 4/5: tangent
        (InteriorDisc(F(0), F(1), F(1, 5)), InteriorDisc(F(3, 5), F(9, 5), F(4, 5)), False),
        (InteriorDisc(F(0), F(1), F(1, 5)), InteriorDisc(F(3, 5), F(9, 5), F(3, 5)), True),
        (InteriorDisc(0.0, 1.0, 0.25), InteriorDisc(2.0, 1.0, 0.5), True),  # binary64 keeps lt
        (InteriorDisc(0.0, 1.0, 0.5), InteriorDisc(0.0, 1.0, 0.25), False),
    ],
)
def test_separated_hulls_examples(a, b, apart):
    assert separated_hulls([a, b]) is apart
    if type(a.r) is F:
        assert _fraction_separated(a, b) is apart
    assert _ref_separated([a, b]) is apart
