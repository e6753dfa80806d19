"""Comparisons: exact for rationals and int literals, EPS only with a float."""

from fractions import Fraction as F

import pytest

from kappalab.numerics import EPS, ModeMixError, check_same_mode, eq, is_zero, le, lt

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
