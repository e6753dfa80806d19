"""Scalar arithmetic shared by the three spaces.

Two numeric modes coexist in the library:

* exact mode -- values are ``fractions.Fraction`` (plain ``int`` literals
  count as exact too, ``bool`` does not); every comparison is decided
  exactly.  The Sorgenfrey line and the double arrow space run in this mode
  end to end.
* float mode -- values are binary64; comparisons carry a one-sided margin
  ``EPS``.  The margin applies only when an operand is not exact, so an int
  literal compared with a Fraction (``lt(0, r)``) is decided exactly.  Only
  the Niemytzki plane, whose distance formulas need square roots, is allowed
  to operate in this mode.

Mixing a Fraction and a float inside one comparison is an error; conversions
must be explicit (``float(value)``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

#: One-sided tolerance for strict comparisons between binary64 scalars.
EPS = 1e-9


class ModeMixError(TypeError):
    """Raised when exact and float scalars meet in a single comparison."""


def as_scalar(value) -> Scalar:
    """Normalize a numeric input: ints become Fractions, floats stay floats."""
    if type(value) is Fraction or type(value) is float:
        return value
    if isinstance(value, bool):
        raise ModeMixError("booleans are not scalars")
    if isinstance(value, (Fraction, float)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise ModeMixError(f"{value!r} is not a scalar")


#: Types decided exactly; ``bool`` is excluded by testing the exact type.
_EXACT = (Fraction, int)


def check_same_mode(*values: Scalar) -> None:
    """Raise unless the values are all exact or all binary64."""
    exact = type(values[0]) in _EXACT
    for v in values:
        if not (type(v) in _EXACT if exact else isinstance(v, float)):
            raise ModeMixError(f"mixed exact/float scalars: {values!r}")


def lt(a: Scalar, b: Scalar) -> bool:
    """Strict a < b: exact for rationals, margin EPS for floats."""
    if type(a) in _EXACT and type(b) in _EXACT:
        # cross-multiplied over the positive denominators
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        return an * bd < bn * ad
    return float(a) < float(b) - EPS


def le(a: Scalar, b: Scalar) -> bool:
    """a <= b: exact for rationals, EPS slack for floats."""
    if type(a) in _EXACT and type(b) in _EXACT:
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        return an * bd <= bn * ad
    return float(a) <= float(b) + EPS


def eq(a: Scalar, b: Scalar) -> bool:
    if type(a) in _EXACT and type(b) in _EXACT:
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        return an * bd == bn * ad
    return abs(float(a) - float(b)) <= EPS


def is_zero(a: Scalar) -> bool:
    if type(a) in _EXACT:
        return a.numerator == 0
    return abs(float(a)) <= EPS


def as_float(value: Scalar) -> float:
    """float(value); a Fraction by int true division, as Fraction does itself."""
    if type(value) is Fraction:
        n, d = value.as_integer_ratio()
        return n / d
    return float(value)


def sqrt_terms(num: int, den: int) -> Scalar:
    """The square root of num/den, for integers num >= 0 and den > 0 in any
    terms: the rational root when num*den is a perfect square, else binary64
    with the bits of math.sqrt(float(Fraction(num, den)))
    (docs/derivations.md, "Exact kernel")."""
    if num < 0:
        raise ValueError("sqrt of a negative scalar")
    square = num * den
    root = math.isqrt(square)
    if root * root == square:
        return Fraction(root, den)
    return math.sqrt(num / den)


def sqrt_scalar(value: Scalar) -> Scalar:
    """Square root; stays exact when the rational is a perfect square."""
    if isinstance(value, Fraction):
        return sqrt_terms(*value.as_integer_ratio())
    if value < 0:
        if value > -EPS:
            return 0.0
        raise ValueError("sqrt of a negative scalar")
    return math.sqrt(value)


def sq(value: Scalar) -> Scalar:
    return value * value
