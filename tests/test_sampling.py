"""Seeded generators: the dyadic draw against its Fraction formula."""

import random
from fractions import Fraction as F

from hypothesis import example, given, strategies as st

from kappalab.sampling import rand_dyadic


def _fraction_rand_dyadic(rng, lo, hi, depth=8):
    """The dyadic draw written in Fraction arithmetic."""
    lo, hi = F(lo), F(hi)
    steps = int((hi - lo) * 2**depth)
    if steps <= 0:
        return lo
    return lo + F(rng.randrange(steps + 1), 2**depth)


_bounds = (
    st.integers(-8, 8)
    | st.fractions(min_value=-8, max_value=8)
    | st.integers(-2**12, 2**12).map(lambda k: F(k, 2**9))
    | st.floats(-8, 8, allow_nan=False)
)


@given(_bounds, _bounds, st.integers(0, 12), st.integers(0, 2**32))
@example(F(1, 3), F(1, 3), 8, 0)  # an empty range
@example(F(1, 2), F(1, 4), 8, 0)  # a reversed range
@example(F(-1, 3), F(-1, 3) + F(1, 300), 8, 0)  # shorter than one step
@example(-3, F(-5, 2), 0, 0)  # negative, reversed, depth 0
@example(0.1, 0.75, 12, 1)
def test_rand_dyadic_is_the_fraction_formula(lo, hi, depth, seed):
    reference, rng = random.Random(seed), random.Random(seed)
    expected = _fraction_rand_dyadic(reference, lo, hi, depth)
    got = rand_dyadic(rng, lo, hi, depth)
    assert type(got) is F and got == expected
    assert rng.getstate() == reference.getstate()  # the same draws, in the same order

