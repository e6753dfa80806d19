"""Points, order, distance."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from kappalab import (
    DoubleArrowPoint,
    NiemytzkiPoint,
    SorgenfreyPoint,
    SpaceMismatchError,
    lex_less,
)
from kappalab.numerics import sqrt_scalar
from kappalab.spaces import sq_dist


def euclid_dist(p, q):
    """The Euclidean distance, exact when the squared distance is a rational square."""
    return sqrt_scalar(sq_dist(p, q))


def test_lex_less_examples():
    assert lex_less(DoubleArrowPoint(F(1, 4), 1), DoubleArrowPoint(F(1, 2), 0))
    assert lex_less(DoubleArrowPoint(F(1, 2), 0), DoubleArrowPoint(F(1, 2), 1))
    assert not lex_less(DoubleArrowPoint(F(1, 2), 1), DoubleArrowPoint(F(1, 2), 1))


def test_lex_less_space_mismatch():
    with pytest.raises((SpaceMismatchError, AttributeError)):
        lex_less(DoubleArrowPoint(F(1, 2), 0), SorgenfreyPoint(F(1, 2)))


da_points = st.tuples(
    st.fractions(min_value=0, max_value=1), st.integers(min_value=0, max_value=1)
).map(lambda t: DoubleArrowPoint(*t))


@given(da_points, da_points, da_points)
def test_lex_less_strict_total_order(a, b, c):
    # antisymmetry
    assert not (lex_less(a, b) and lex_less(b, a))
    # totality
    assert a == b or lex_less(a, b) or lex_less(b, a)
    # transitivity
    if lex_less(a, b) and lex_less(b, c):
        assert lex_less(a, c)


@given(st.sampled_from([F(0), F(1)]) | st.fractions(min_value=0, max_value=1), st.integers(0, 1))
def test_extreme_is_the_isolated_minimum_or_maximum(t, side):
    assert DoubleArrowPoint(t, side).extreme is ((t, side) in ((0, 0), (1, 1)))


@pytest.mark.parametrize("side", [True, False, 1.0, 0.0, F(1), "0", 2, -1, None])
def test_double_arrow_side_is_the_integer_0_or_1(side):
    with pytest.raises(ValueError):
        DoubleArrowPoint(F(1, 2), side)


@pytest.mark.parametrize("t", [0, 1, "1/3", F(1, 2)])
def test_double_arrow_coordinate_is_read_as_a_fraction(t):
    p = DoubleArrowPoint(t, 0)
    assert type(p.t) is F and p.t == F(t)


@pytest.mark.parametrize("t", [F(-1, 10**9), F(1 + 10**9, 10**9), 0.5, -1, 2])
def test_double_arrow_coordinate_outside_the_unit_interval_or_binary64_is_rejected(t):
    with pytest.raises(ValueError):
        DoubleArrowPoint(t, 0)


def test_euclid_dist_examples():
    p = NiemytzkiPoint(F(0), F(2))
    assert euclid_dist(p, p) == 0
    assert euclid_dist(NiemytzkiPoint(F(0), F(0)), NiemytzkiPoint(F(3), F(4))) == 5
    d = euclid_dist(NiemytzkiPoint(F(1, 3), F(1, 6)), NiemytzkiPoint(F(0), F(1)))
    # oracle: exact squared distance 1/9 + 25/36 = 29/36
    assert sq_dist(NiemytzkiPoint(F(1, 3), F(1, 6)), NiemytzkiPoint(F(0), F(1))) == F(29, 36)
    assert abs(d - (29 ** 0.5) / 6) < 1e-12


@given(
    st.tuples(
        st.fractions(min_value=-4, max_value=4), st.fractions(min_value=0, max_value=4)
    ),
    st.tuples(
        st.fractions(min_value=-4, max_value=4), st.fractions(min_value=0, max_value=4)
    ),
    st.tuples(
        st.fractions(min_value=-4, max_value=4), st.fractions(min_value=0, max_value=4)
    ),
)
def test_triangle_inequality(t1, t2, t3):
    p, q, r = (NiemytzkiPoint(*t) for t in (t1, t2, t3))
    assert float(euclid_dist(p, r)) <= float(euclid_dist(p, q)) + float(euclid_dist(q, r)) + 1e-9


def test_exact_point_just_below_the_axis_is_rejected():
    # exact coordinates get no EPS slack below the axis
    with pytest.raises(ValueError):
        NiemytzkiPoint(0, F(-1, 10**10))


def test_point_validation():
    with pytest.raises(ValueError):
        NiemytzkiPoint(F(0), F(-1))
    with pytest.raises(ValueError):
        DoubleArrowPoint(F(3, 2), 0)
    with pytest.raises(ValueError):
        DoubleArrowPoint(F(1, 2), 2)
