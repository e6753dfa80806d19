"""Comparisons: exact for rationals and int literals, EPS only with a float."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from kappalab.numerics import (
    _EXACT,
    EPS,
    ModeMixError,
    as_float,
    check_same_mode,
    eq,
    is_zero,
    le,
    lt,
    sqrt_terms,
)

TINY = F(1, 10**10)  # below EPS


def test_int_literals_compare_exactly_with_fractions():
    assert EPS > TINY
    assert lt(0, TINY) and not lt(TINY, 0)
    assert not le(TINY, 0) and le(0, TINY)
    assert not eq(0, TINY) and eq(0, F(0))
    assert not is_zero(TINY) and is_zero(0)


def test_eps_applies_when_an_operand_is_a_float():
    assert not lt(0, float(TINY)) and le(float(TINY), 0)
    assert eq(0.0, TINY) and is_zero(float(TINY))
    assert not lt(True, F(1) + TINY)  # a bool is not an exact scalar


def test_check_same_mode():
    check_same_mode(F(1), 2, F(3))
    check_same_mode(1.0, 2.0)
    for mixed in ((F(1), 1.0), (1.0, 1), (True, F(1)), (True, True)):
        with pytest.raises(ModeMixError):
            check_same_mode(*mixed)


_exact_scalars = st.integers(-50, 50) | st.fractions(min_value=-50, max_value=50, max_denominator=1000)


@given(_exact_scalars, _exact_scalars)
def test_exact_comparisons_are_pythons_operators(a, b):
    # cross-multiplied integers decide exactly what Fraction's operators do
    assert lt(a, b) is (a < b)
    assert le(a, b) is (a <= b)
    assert eq(a, b) is (a == b)
    assert is_zero(a) is (a == 0)
    assert type(lt(a, b)) is bool and type(is_zero(a)) is bool


@given(_exact_scalars, st.floats(-50, 50))
def test_a_float_operand_gets_eps(a, b):
    assert type(True) not in _EXACT and type(False) not in _EXACT
    for x, y in ((a, b), (b, a)):
        assert lt(x, y) is (float(x) < float(y) - EPS)
        assert le(x, y) is (float(x) <= float(y) + EPS)
        assert eq(x, y) is (abs(float(x) - float(y)) <= EPS)
    assert is_zero(b) is (abs(b) <= EPS)
    assert lt(a, True) is (float(a) < 1 - EPS)  # a bool is compared as a float


@given(st.integers(0, 10**12), st.integers(1, 10**12), st.integers(1, 10**6))
def test_sqrt_terms_is_the_root_of_the_reduced_fraction(num, den, k):
    # any terms of one rational, here num/den scaled by k, give one root
    q = F(num, den)
    n, d = math.isqrt(q.numerator), math.isqrt(q.denominator)
    plain = F(n, d) if n * n == q.numerator and d * d == q.denominator else math.sqrt(float(q))
    for terms in ((num, den), (num * k, den * k), (num * k * k, den * k * k)):
        root = sqrt_terms(*terms)
        assert type(root) is type(plain)
        assert root == plain if type(plain) is F else root.hex() == plain.hex()
    assert sqrt_terms(num * num, den * den) == F(num, den)
    assert as_float(q).hex() == float(q).hex()
