"""Seeded generators: every draw on integer terms against its Fraction formula."""

import random
import sys
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from kappalab.basesets import ClopenInterval, ExtremeSingleton, HalfOpen, InteriorDisc, TangentDisc
from kappalab.rosets import RegularOpenSet, validate_regular_open
from kappalab.sampling import (
    _shrink_component,
    rand_dyadic,
    randbelow,
    sample_double_arrow_set,
    sample_nested_pair,
    sample_niemytzki_component,
    sample_niemytzki_set_separated,
    sample_point,
    sample_point_near_set,
    sample_sorgenfrey_set,
)
from kappalab.spaces import DoubleArrowPoint, NiemytzkiPoint, SorgenfreyPoint, Space


#: n = 1, powers of two and their neighbours up to past 2^64, and any n
_sizes = (
    st.integers(0, 80).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1]))
    | st.integers(1, 2**100)
).filter(lambda n: n >= 1)


@settings(max_examples=500)
@given(_sizes, st.integers(0, 2**64), st.integers(-(2**70), 2**70))
@example(1, 0, 0)
@example(2**64, 1, -1)
@example(2**64 + 1, 2, 5)
def test_randbelow_is_randrange_randint_and_choice(n, seed, a):
    draws = [
        (lambda rng: rng.randrange(n), lambda rng: randbelow(rng, n)),
        (lambda rng: rng.randint(a, a + n - 1), lambda rng: a + randbelow(rng, n)),
    ]
    if n <= sys.maxsize:  # len() of a longer range overflows
        seq = range(a, a + n)
        draws.append((lambda rng: rng.choice(seq), lambda rng: seq[randbelow(rng, len(seq))]))
    for stdlib, primitive in draws:
        reference, rng = random.Random(seed), random.Random(seed)
        for _ in range(4):
            assert primitive(rng) == stdlib(reference)
        assert rng.getstate() == reference.getstate()  # the same draws, in the same order


@pytest.mark.parametrize("n", [0, -1, -8])
def test_randbelow_of_an_empty_range_raises_as_randrange_does(n):
    with pytest.raises(ValueError):
        random.Random(0).randrange(n)
    with pytest.raises(ValueError):
        randbelow(random.Random(0), n)


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



# ---------------------------------------------------------------------------
# the samplers on integer terms against their Fraction formulas


def _fraction_cut_components(rng, k, lo, hi, make):
    """Up to k components between sorted distinct Fraction cuts."""
    cuts = sorted({_fraction_rand_dyadic(rng, lo, hi) for _ in range(2 * k + 2)})
    comps, i = [], 0
    while i + 1 < len(cuts) and len(comps) < k:
        if cuts[i] < cuts[i + 1]:
            comps.append(make(cuts[i], cuts[i + 1]))
        i += 2
    return comps


def _fraction_sorgenfrey_set(rng, max_components=3):
    k = rng.randint(1, max_components)
    comps = _fraction_cut_components(rng, k, F(-4), F(4), HalfOpen) or [HalfOpen(F(0), F(1))]
    return validate_regular_open(Space.SORGENFREY, comps)


def _fraction_double_arrow_set(rng, max_components=3):
    k = rng.randint(1, max_components)
    comps = _fraction_cut_components(rng, k, F(1, 32), F(31, 32), ClopenInterval)
    comps = comps or [ClopenInterval(F(1, 4), F(3, 4))]
    roll = rng.random()
    if roll < 0.15:
        comps.append(ClopenInterval(F(0), F(1, 64), include_left_extreme=True))
    elif roll < 0.25:
        comps.append(ExtremeSingleton(rng.randint(0, 1)))
    return validate_regular_open(Space.DOUBLE_ARROW, comps)


def _fraction_niemytzki_component(rng):
    if rng.random() < 0.5:
        a = _fraction_rand_dyadic(rng, F(-3), F(3))
        return TangentDisc(a, _fraction_rand_dyadic(rng, F(1, 16), F(1)))
    cx = _fraction_rand_dyadic(rng, F(-3), F(3))
    cy = _fraction_rand_dyadic(rng, F(1, 4), F(2))
    return InteriorDisc(cx, cy, _fraction_rand_dyadic(rng, F(1, 16), min(F(1), cy * F(3, 4))))


def _fraction_niemytzki_set_separated(rng, max_components=3):
    k = rng.randint(1, max_components)
    comps = []
    for i in range(k):
        band = F(8 * i)
        if rng.random() < 0.5:
            a = band + _fraction_rand_dyadic(rng, F(-1), F(1))
            comps.append(TangentDisc(a, _fraction_rand_dyadic(rng, F(1, 16), F(1))))
        else:
            cx = band + _fraction_rand_dyadic(rng, F(-1), F(1))
            cy = _fraction_rand_dyadic(rng, F(1, 4), F(2))
            r_hi = min(F(1), cy * F(3, 4))
            comps.append(InteriorDisc(cx, cy, _fraction_rand_dyadic(rng, F(1, 16), r_hi)))
    return validate_regular_open(Space.NIEMYTZKI, comps)


def _fraction_point(space, rng):
    if space is Space.SORGENFREY:
        return SorgenfreyPoint(_fraction_rand_dyadic(rng, F(-5), F(5), depth=10))
    if space is Space.DOUBLE_ARROW:
        if rng.random() < 0.05:
            side = rng.randint(0, 1)
            return DoubleArrowPoint(F(side), side)
        return DoubleArrowPoint(_fraction_rand_dyadic(rng, F(0), F(1), depth=10), rng.randint(0, 1))
    roll = rng.random()
    x = _fraction_rand_dyadic(rng, F(-4), F(4), depth=10)
    if roll < 0.2:
        return NiemytzkiPoint(x, F(0))
    return NiemytzkiPoint(x, _fraction_rand_dyadic(rng, F(1, 1024), F(3), depth=10))


def _fraction_point_near_set(U, rng):
    """Near-set points in Fraction arithmetic."""
    if U.is_empty:
        return _fraction_point(U.space, rng)
    c = rng.choice(U.components)
    roll = rng.random()
    if U.space is Space.SORGENFREY:
        if roll < 0.5:
            return SorgenfreyPoint(_fraction_rand_dyadic(rng, c.a, c.b - F(1, 256)))
        if roll < 0.7:
            return SorgenfreyPoint(c.a)
        if roll < 0.85:
            return SorgenfreyPoint(c.b)
        return _fraction_point(U.space, rng)
    if U.space is Space.DOUBLE_ARROW:
        if isinstance(c, ExtremeSingleton):
            return c.point
        if roll < 0.4:
            return DoubleArrowPoint(_fraction_rand_dyadic(rng, c.a, c.b, depth=10), rng.randint(0, 1))
        if roll < 0.55:
            return DoubleArrowPoint(c.a, 1)
        if roll < 0.7:
            return DoubleArrowPoint(c.b, 0)
        if roll < 0.8:
            return DoubleArrowPoint(c.a, 0)
        return _fraction_point(U.space, rng)
    if isinstance(c, TangentDisc):
        if roll < 0.25:
            return NiemytzkiPoint(c.a, F(0))
        if roll < 0.6:
            return NiemytzkiPoint(c.a, c.r * _fraction_rand_dyadic(rng, F(1, 64), F(15, 8)))
        if roll < 0.85:
            return NiemytzkiPoint(c.a + _fraction_rand_dyadic(rng, -c.r / 2, c.r / 2), c.r)
        return _fraction_point(U.space, rng)
    if roll < 0.4:
        return NiemytzkiPoint(c.cx, c.cy)
    if roll < 0.7:
        dx = _fraction_rand_dyadic(rng, -c.r, c.r)
        dy = _fraction_rand_dyadic(rng, -c.r / 2, c.r / 2)
        return NiemytzkiPoint(c.cx + dx, max(F(0), c.cy + dy))
    return _fraction_point(U.space, rng)


def _fraction_shrink(c, rng):
    if isinstance(c, HalfOpen):
        width = c.b - c.a
        da = width * F(rng.randrange(0, 4), 16)
        db = width * F(rng.randrange(1, 4), 16)
        return HalfOpen(c.a + da, c.b - db) if c.a + da < c.b - db else None
    if isinstance(c, ClopenInterval):
        width = c.b - c.a
        da = width * F(rng.randrange(0, 4), 16)
        db = width * F(rng.randrange(0, 4), 16)
        if c.a + da < c.b - db:
            keep_left = c.include_left_extreme and da == 0
            keep_right = c.include_right_extreme and db == 0
            return ClopenInterval(c.a + da, c.b - db, keep_left, keep_right)
        return None
    if isinstance(c, ExtremeSingleton):
        return c
    if isinstance(c, TangentDisc):
        return TangentDisc(c.a, c.r * F(rng.randrange(8, 16), 16))
    r = c.r * F(rng.randrange(8, 16), 16)
    shift = (c.r - r) * F(rng.randrange(0, 16), 16)
    return InteriorDisc(c.cx + shift, c.cy, r)


def _outcome(draw, *args):
    """What a draw returns, with its type, or the type of what it raises."""
    try:
        value = draw(*args)
    except (ValueError, TypeError) as exc:
        return type(exc)
    return type(value), value


def _same_draws(sampler, oracle, *args, seed, times=1):
    rng, reference = random.Random(seed), random.Random(seed)
    for _ in range(times):
        assert _outcome(sampler, *args, rng) == _outcome(oracle, *args, reference)
        assert rng.getstate() == reference.getstate()  # the same draws, in the same order


_seeds = st.integers(0, 2**32)


@given(_seeds)
def test_set_samplers_are_the_fraction_formulas(seed):
    _same_draws(sample_sorgenfrey_set, _fraction_sorgenfrey_set, seed=seed, times=4)
    _same_draws(sample_double_arrow_set, _fraction_double_arrow_set, seed=seed, times=4)
    _same_draws(sample_niemytzki_component, _fraction_niemytzki_component, seed=seed, times=4)
    _same_draws(sample_niemytzki_set_separated, _fraction_niemytzki_set_separated, seed=seed, times=4)
    for space in Space:
        _same_draws(partial(sample_point, space), partial(_fraction_point, space), seed=seed, times=4)


@given(st.integers(1, 60), _seeds)
def test_cut_lists_with_repeated_cuts(max_components, seed):
    # up to 122 cuts: many repeat among the 241 double arrow numerators
    for sampler, oracle in (
        (sample_sorgenfrey_set, _fraction_sorgenfrey_set),
        (sample_double_arrow_set, _fraction_double_arrow_set),
    ):
        _same_draws(
            lambda rng: sampler(rng, max_components), lambda rng: oracle(rng, max_components), seed=seed
        )


_exact = st.fractions(min_value=-4, max_value=4, max_denominator=300)
_unit = st.fractions(min_value=0, max_value=1, max_denominator=300)
_radius = st.fractions(min_value=F(1, 300), max_value=1, max_denominator=300)
# binary64 values held exactly: terms with denominators up to 2^1074
_binary64 = st.floats(-4, 4).map(F)
_binary64_radius = st.floats(1 / 300, 1).map(F)


@st.composite
def _half_open(draw):
    a, b = sorted(draw(st.lists(_exact, min_size=2, max_size=2, unique=True)))
    return HalfOpen(a, b)


@st.composite
def _clopen_interval(draw):
    a, b = sorted(draw(st.lists(_unit, min_size=2, max_size=2, unique=True)))
    left = a == 0 and draw(st.booleans())
    right = b == 1 and draw(st.booleans())
    return ClopenInterval(a, b, left, right)


@st.composite
def _interior_disc(draw, coordinate=_exact, radius=_radius):
    r = draw(radius)
    return InteriorDisc(draw(coordinate), r + draw(coordinate.map(abs)), r)


_components = {
    "half_open": _half_open(),
    "clopen_interval": _clopen_interval()
    | st.sampled_from([ClopenInterval(F(0), F(1), True, True), ClopenInterval(F(0), F(1, 3), True)]),
    "extreme_singleton": st.sampled_from([ExtremeSingleton(0), ExtremeSingleton(1)]),
    "tangent_disc": st.builds(TangentDisc, _exact, _radius),
    "interior_disc": _interior_disc(),
    "binary64_tangent_disc": st.builds(TangentDisc, _binary64, _binary64_radius),
    "binary64_interior_disc": _interior_disc(_binary64, _binary64_radius),
}


@pytest.mark.parametrize("kind", sorted(_components))
@given(data=st.data(), seed=_seeds)
def test_near_set_points_are_the_fraction_formula(kind, data, seed):
    c = data.draw(_components[kind])
    U = RegularOpenSet(c.space, (c,))
    _same_draws(sample_point_near_set, _fraction_point_near_set, U, seed=seed, times=8)


@pytest.mark.parametrize("kind", ["half_open", "clopen_interval", "tangent_disc", "interior_disc"])
@given(data=st.data(), seed=_seeds)
def test_shrink_is_the_fraction_formula(kind, data, seed):
    c = data.draw(_components[kind])
    _same_draws(_shrink_component, _fraction_shrink, c, seed=seed, times=4)


_FRACTION_PAIR_SETS = {
    Space.SORGENFREY: _fraction_sorgenfrey_set,
    Space.DOUBLE_ARROW: _fraction_double_arrow_set,
    Space.NIEMYTZKI: _fraction_niemytzki_set_separated,
}


@given(st.sampled_from(list(Space)), _seeds)
def test_nested_pairs_keep_their_draws(space, seed):
    # the whole pair: a set, the components kept, and each one shrunk
    def oracle(space, rng):
        V = _FRACTION_PAIR_SETS[space](rng)
        keep = [c for c in V.components if rng.random() < 0.8] or [V.components[0]]
        shrunk = [s for s in (_fraction_shrink(c, rng) for c in keep) if s is not None]
        return validate_regular_open(space, shrunk or [V.components[0]]), V

    _same_draws(sample_nested_pair, oracle, space, seed=seed, times=3)
