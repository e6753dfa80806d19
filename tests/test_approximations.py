"""q-indexed families and the two transforms."""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from kappalab import (
    ClopenInterval,
    DoubleArrowPoint,
    HalfOpen,
    InteriorDisc,
    NiemytzkiPoint,
    QGrid,
    SorgenfreyPoint,
    Space,
    TangentDisc,
    approximation_to_stratification,
    basic_closure_member,
    basic_member,
    double_arrow_ro,
    niemytzki_kappa,
    realize_sublevel,
    sorgenfrey_kappa,
    stratification_to_approximation,
    validate_regular_open,
)
from kappalab.approximations import Approximation, TangentLens
from kappalab.families import CLOSED_FORM, FAMILIES, niemytzki_basic_f
from kappalab.sampling import rand_dyadic, sample_niemytzki_set_separated, sample_point_near_set, sample_set


def test_contains_binds_once_per_run_of_one_set():
    binds = []
    S = sorgenfrey_kappa()
    counting = dataclasses.replace(S, bind=lambda U: binds.append(U) or S.bind(U))
    A, qs = stratification_to_approximation(counting, QGrid(6)), [F(k, 64) for k in range(1, 64)]
    rng = random.Random(4)
    U, V = sample_set(Space.SORGENFREY, rng), sample_set(Space.SORGENFREY, rng)
    points = [sample_point_near_set(U, rng) for _ in range(20)]
    got = [A.contains(U, q, p) for p in points for q in qs]
    assert got == [S.value(U, p) > q for p in points for q in qs]
    assert binds == [U]
    A.contains(V, F(1, 2), points[0])
    A.contains(U, F(1, 2), points[0])
    assert binds == [U, V, U]
    # the reconstruction's binary search asks about one set: no bind while it stays
    R = approximation_to_stratification(A, QGrid(6))
    for p in points:
        R.value(U, p)
    assert binds == [U, V, U]
    R.value(V, points[0])
    assert binds == [U, V, U, V]


def test_qgrid():
    g = QGrid(4)
    assert [g.value(k) for k in range(15)] == [F(k, 16) for k in range(1, 16)]
    assert g.step == F(1, 16)


def test_superlevel_membership_threshold():
    S = sorgenfrey_kappa()
    A = stratification_to_approximation(S, QGrid(10))
    U = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1))])
    p = SorgenfreyPoint(F(3, 10))  # value 7/10
    assert A.contains(U, F(1, 2), p)  # 0.7 > 0.5
    assert not A.contains(U, F(3, 4), p)
    q_any = [q for q in (F(k, 16) for k in range(1, 16)) if A.contains(U, q, SorgenfreyPoint(F(2)))]
    assert q_any == []  # value 0: in no superlevel


def _disc_union():
    return validate_regular_open(Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1))])


def test_disc_superlevel_is_concentric():
    realized = realize_sublevel("niemytzki_kappa", _disc_union(), F(1, 4))
    inner = InteriorDisc(F(0), F(2), F(3, 4))
    rng = random.Random(3)
    for _ in range(200):
        p = NiemytzkiPoint(rand_dyadic(rng, F(-2), F(2)), rand_dyadic(rng, F(0), F(4)))
        assert realized.member(p) == basic_member(inner, p)
        assert realized.closure_member(p) == basic_closure_member(inner, p)


def test_disc_superlevel_closure_nesting_exact():
    # cl B((0,2), 1-q) inside B((0,2), 1-p) for p < q: the radius algebra
    for p_val, q_val in ((F(1, 8), F(1, 4)), (F(1, 3), F(1, 2))):
        outer = realize_sublevel("niemytzki_kappa", _disc_union(), p_val)
        inner = realize_sublevel("niemytzki_kappa", _disc_union(), q_val)
        # boundary points of the inner closure, exactly on the circle
        for dx, dy in ((1 - q_val, 0), (-(1 - q_val), 0), (0, 1 - q_val), (0, -(1 - q_val))):
            x = NiemytzkiPoint(F(0) + dx, F(2) + dy)
            assert inner.closure_member(x)
            assert outer.member(x)


def test_tangent_lens_exact_predicates():
    U = TangentDisc(F(0), F(1))
    lens = TangentLens(F(0), F(1), F(1, 2))
    rng = random.Random(5)
    for _ in range(300):
        x = rand_dyadic(rng, F(-2), F(2), depth=9)
        y = rand_dyadic(rng, F(0), F(5, 2), depth=9)
        p = NiemytzkiPoint(x, y)
        v = niemytzki_basic_f(U, p)
        assert lens.member(p) == (v > F(1, 2)), (p, v)
    # axis behaviour: only the tangency point adheres
    assert lens.member(NiemytzkiPoint(F(0), F(0)))
    assert lens.closure_member(NiemytzkiPoint(F(0), F(0)))
    assert not lens.closure_member(NiemytzkiPoint(F(1, 4), F(0)))


def test_double_arrow_superlevel_drops_short_components():
    S = double_arrow_ro()
    U = validate_regular_open(
        Space.DOUBLE_ARROW,
        [ClopenInterval(F(0), F(1, 8), include_left_extreme=True), ClopenInterval(F(1, 2), F(1))],
    )
    realized = realize_sublevel(S.label, U, F(1, 4))
    # the short component survives only through its extreme point (value 1)
    assert realized.member(DoubleArrowPoint(F(0), 0))
    assert not realized.member(DoubleArrowPoint(F(1, 16), 0))
    assert realized.member(DoubleArrowPoint(F(3, 4), 0))


@pytest.mark.parametrize("label", CLOSED_FORM)
def test_realized_superlevel_of_a_separated_union_is_the_union_of_its_components(label):
    # f_U on a component reads that component alone, so {f_U > q} and its
    # closure are the unions of the components' own
    S = FAMILIES[label]()
    A = stratification_to_approximation(S, QGrid(10))
    rng = random.Random(31)
    for _ in range(30):
        if S.space is Space.NIEMYTZKI:
            U = sample_niemytzki_set_separated(rng)
        else:
            U = sample_set(S.space, rng)
        q = rand_dyadic(rng, F(1, 64), F(63, 64))
        realized = realize_sublevel(label, U, q)
        parts = [realize_sublevel(label, validate_regular_open(U.space, [c]), q) for c in U.components]
        for _ in range(10):
            p = sample_point_near_set(U, rng)
            assert realized.member(p) == any(part.member(p) for part in parts) == A.contains(U, q, p), (U, q, p)
            assert realized.closure_member(p) == any(part.closure_member(p) for part in parts), (U, q, p)


def test_realized_superlevel_of_an_overlapping_union_is_not_closed_form():
    U = validate_regular_open(Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1)), InteriorDisc(F(1, 2), F(2), F(1))])
    assert not U.separated
    assert realize_sublevel("niemytzki_kappa", U, F(1, 4)) is None


def test_prop3_reconstruction_sup_semantics():
    # U_q = U for q < 1/4 and empty otherwise: the dense-index supremum is 1/4
    space = Space.SORGENFREY
    U = validate_regular_open(space, [HalfOpen(F(0), F(1))])

    def contains(_U, q, p):
        return q < F(1, 4) and basic_member(_U.components[0], p)

    A = Approximation(space, QGrid(10), contains, lambda U, q: None)
    S2 = approximation_to_stratification(A, QGrid(10))
    v = S2.value(U, SorgenfreyPoint(F(1, 2)))
    assert abs(v - F(1, 4)) <= F(1, 2**10)
    assert S2.value(U, SorgenfreyPoint(F(2))) == 0


@pytest.mark.parametrize(
    "family,space",
    [
        (sorgenfrey_kappa, Space.SORGENFREY),
        (double_arrow_ro, Space.DOUBLE_ARROW),
        (niemytzki_kappa, Space.NIEMYTZKI),
    ],
)
def test_roundtrip_within_grid_step(family, space):
    S = family()
    grid = QGrid(10)
    S2 = approximation_to_stratification(stratification_to_approximation(S, grid), grid)
    rng = random.Random(17)
    from kappalab.sampling import sample_niemytzki_set_separated

    for _ in range(40):
        U = (
            sample_niemytzki_set_separated(rng)
            if space is Space.NIEMYTZKI
            else sample_set(space, rng)
        )
        for _ in range(5):
            p = sample_point_near_set(U, rng)
            v = S.value(U, p)
            v2 = S2.value(U, p)
            assert abs(float(v2) - float(v)) <= float(grid.step) + 1e-12, (U, p, v, v2)
            # dyadic values on the grid (and 0, 1) reconstruct exactly
            if isinstance(v, F) and (v == 0 or v == 1 or (0 < v < 1 and (v * 2**10).denominator == 1)):
                assert v2 == v


def test_roundtrip_exactness_on_grid_values():
    S = sorgenfrey_kappa()
    grid = QGrid(10)
    S2 = approximation_to_stratification(stratification_to_approximation(S, grid), grid)
    # value 1/4 (a grid value): exact; value 1: exact; value 0: exact
    U = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1, 4))])
    assert S2.value(U, SorgenfreyPoint(F(0))) == F(1, 4)
    U1 = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(2))])
    assert S2.value(U1, SorgenfreyPoint(F(0))) == 1
    assert S2.value(U1, SorgenfreyPoint(F(3))) == 0


@pytest.mark.parametrize("x, value", [(F(0), 1), (F(13, 8), F(3, 8)), (F(2), 0), (F(-1), 0)])
def test_deep_reconstruction_searches_by_index(monkeypatch, x, value):
    # one point of a QGrid(20) reconstruction: a binary search over the
    # 2^20 - 1 grid values asks A.contains at most 21 times and reads each
    # value it asks about from its index, with no tuple of all of them
    reads, grid_value = [], QGrid.value

    def counting_value(grid, k):
        reads.append(k)
        return grid_value(grid, k)

    monkeypatch.setattr(QGrid, "value", counting_value)
    S, grid, asked = sorgenfrey_kappa(), QGrid(20), []
    A = stratification_to_approximation(S, grid)
    counting = dataclasses.replace(A, contains=lambda U, q, p: asked.append(q) or A.contains(U, q, p))
    U = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(2))])  # grid values, 0 and 1 are exact
    assert approximation_to_stratification(counting, grid).value(U, SorgenfreyPoint(x)) == value
    assert 1 <= len(asked) <= 21
    assert len(reads) <= 22  # the values asked about, and the one returned
    assert asked == [grid_value(grid, k) for k in reads[: len(asked)]]


@pytest.mark.parametrize("label", sorted(FAMILIES))
def test_realized_superlevel_agrees_with_contains(label):
    # wherever a family's superlevel set has a closed form, its membership is
    # the family's own threshold test
    S = FAMILIES[label]()
    A = stratification_to_approximation(S, QGrid(10))
    rng = random.Random(29)
    cases = []
    if label == "g_family":  # g = 9/10 > 3/5 here, above the radius 1/2
        cases.append((TangentDisc(F(0), F(1, 2)), F(3, 5), NiemytzkiPoint(F(0), F(1, 10))))
    for _ in range(40):
        if label == "g_family":
            disc = TangentDisc(rand_dyadic(rng, F(-1), F(1)), rand_dyadic(rng, F(1, 16), F(1)))
            U = validate_regular_open(S.space, [disc])
        else:
            U = sample_set(S.space, rng, max_components=1)
        q = rand_dyadic(rng, F(1, 64), F(63, 64))
        cases += [(U, q, sample_point_near_set(U, rng)) for _ in range(10)]
    for U, q, p in cases:
        realized = A.realize(U, q)
        if realized is not None:
            assert realized.member(p) == A.contains(U, q, p), (U, q, p)
