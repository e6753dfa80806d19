"""Axiom checkers: passes on the named families, fails with replayable
witnesses on broken ones, determinism."""

import dataclasses
import hashlib
import random
from fractions import Fraction as F

import pytest

from kappalab import (
    DoubleArrowPoint,
    HalfOpen,
    NiemytzkiPoint,
    ParamValue,
    QGrid,
    SamplePlan,
    SorgenfreyPoint,
    Space,
    TangentDisc,
    bind_chain,
    bridge_4_iff_d,
    chain_limit_value,
    check_condition_1,
    check_condition_2,
    check_condition_3,
    check_condition_4,
    check_condition_d,
    check_conditions_abc,
    double_arrow_ro,
    hausdorff_witness,
    niemytzki_kappa,
    realize_sublevel,
    replay_witness,
    separate_regular_closed,
    sorgenfrey_kappa,
    stratification_to_approximation,
    user_supplied,
    validate_regular_open,
)
from kappalab.families import g_stratification, sorgenfrey_f
from kappalab.serialize import encode_chain, encode_point, encode_roset
from kappalab.harness import (
    _ApproxClosure,
    _ApproxMonotone,
    _ApproxUnion,
    _HausdorffSplit,
    _RatioSplit,
    _chain_sublevel_closure_all,
    chain_check_points,
    check_separations,
    continuity_negative_control,
)
from kappalab.sampling import (
    sample_chain,
    sample_point_near_set,
    sample_condition3_pairs,
    sample_nested_pair,
    double_arrow_pinch_chain,
    sorgenfrey_certificate,
)

PLAN = SamplePlan(seed=23, n_points=250, n_set_pairs=60, n_sequences=12)


@pytest.mark.parametrize(
    "family", [sorgenfrey_kappa, double_arrow_ro, niemytzki_kappa, g_stratification]
)
def test_conditions_1_2_pass(family):
    S = family()
    assert check_condition_1(S, PLAN).passed
    assert check_condition_2(S, PLAN).passed


def test_condition_1_fails_on_zero_family_with_witness():
    S = user_supplied(Space.SORGENFREY, lambda U, p: F(0))
    rep = check_condition_1(S, PLAN)
    assert not rep.passed
    w = rep.witnesses[0]
    assert w["member"] is True and w["value"] == "0"


@pytest.mark.parametrize("budget", ["n_points", "n_set_pairs", "n_sequences", "grid_m"])
def test_sample_plan_budgets_are_at_least_1(budget):
    with pytest.raises(ValueError, match=f"{budget} must be at least 1"):
        SamplePlan(**{budget: 0})
    assert getattr(SamplePlan(**{budget: 1}), budget) == 1


def _counting_user_family(space, binds):
    """A user family with the space's kappa values whose binder appends
    each set it binds to ``binds``."""
    kappa = {Space.SORGENFREY: sorgenfrey_kappa, Space.DOUBLE_ARROW: double_arrow_ro}[space]()
    S = user_supplied(space, kappa.value)

    def bind(U):
        binds.append(U)
        return S.bind(U)

    return dataclasses.replace(S, bind=bind)


@pytest.mark.parametrize("space", [Space.SORGENFREY, Space.DOUBLE_ARROW])
def test_conditions_1_2_bind_each_set_once(space):
    binds = []
    S = _counting_user_family(space, binds)
    assert check_condition_1(S, PLAN).passed
    pool_size = PLAN.n_points // 12 + 1
    assert len(binds) == pool_size == len(set(map(id, binds)))
    binds.clear()
    assert check_condition_2(S, PLAN).passed
    assert len(binds) == 2 * PLAN.n_set_pairs


def test_condition_1_exact_values_below_eps_are_positive():
    # every value on [0, 10**-10) is an exact rational below EPS
    U = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1, 10**10))])
    rep = check_condition_1(sorgenfrey_kappa(), SamplePlan(seed=1, n_points=40), sets=[U])
    assert rep.passed


def test_condition_1_vacuous_on_empty_set():
    S = user_supplied(Space.SORGENFREY, lambda U, p: F(0))
    rep = check_condition_1(S, PLAN, sets=[validate_regular_open(Space.SORGENFREY, [])])
    assert rep.passed  # nothing is a member and every value is 0


def test_family_index_mismatch_guard():
    # mixing a disc-union index set into the tangent-only family is an error
    S = g_stratification()
    from kappalab.basesets import InteriorDisc

    union = validate_regular_open(Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1))])
    with pytest.raises(TypeError):
        S.value(union, NiemytzkiPoint(F(0), F(2)))
    from kappalab import SpaceMismatchError

    with pytest.raises(SpaceMismatchError):
        sorgenfrey_kappa().value(union, NiemytzkiPoint(F(0), F(2)))


@pytest.mark.parametrize(
    "family,space",
    [
        (sorgenfrey_kappa, Space.SORGENFREY),
        (double_arrow_ro, Space.DOUBLE_ARROW),
        (niemytzki_kappa, Space.NIEMYTZKI),
    ],
)
def test_condition_3_passes(family, space):
    S = family()
    rng = random.Random(31)
    pairs = sample_condition3_pairs(space, rng, 12)
    assert check_condition_3(S, pairs).passed


def test_condition_3_negative_control_fails_and_replays():
    S, pairs = continuity_negative_control()
    rep = check_condition_3(S, pairs)
    assert not rep.passed
    w = rep.witnesses[0]
    assert w["deviation"] > 1e-3
    # the index set is the regular open [0, 1), written as a union
    assert w["set"] == encode_roset(validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1))]))
    assert (w["limit_value"], w["worst_value"]) == (0.0, 1.0)
    assert replay_witness(w)


def test_condition_3_rejects_invalid_certificates():
    S = sorgenfrey_kappa()
    U = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1))])
    bad = sorgenfrey_certificate(F(0), F(1, 4))
    # tamper: approach the limit from the left, outside every [0, s_n)
    from kappalab.convergence import ConvergenceCertificate

    broken = ConvergenceCertificate(bad.limit, (ParamValue(F(0), 0, F(-1, 4)),), bad.size)
    with pytest.raises(ValueError):
        check_condition_3(S, [(U, broken)])
    # and witnesses that do not shrink to 0 certify nothing
    stuck = ConvergenceCertificate(bad.limit, bad.sequence, ParamValue(F(1, 2), F(1, 4), 0))
    with pytest.raises(ValueError):
        check_condition_3(S, [(U, stuck)])


@pytest.mark.parametrize(
    "family,space",
    [
        (sorgenfrey_kappa, Space.SORGENFREY),
        (niemytzki_kappa, Space.NIEMYTZKI),
    ],
)
def test_condition_4_passes_on_sampled_chains(family, space):
    S = family()
    rng = random.Random(37)
    for _ in range(4):
        chain = sample_chain(space, rng)
        points = chain_check_points(chain, PLAN)
        rep = check_condition_4(bind_chain(S, chain), points)
        assert rep.passed, rep.witnesses


def test_condition_4_exact_infimum_for_tangent_chain():
    from kappalab.rosets import ParamValue, ParametricBasicSet, DecreasingChain

    comp = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0)), "r": ParamValue(F(1, 2), F(1), F(0), 1)}
    )
    chain = DecreasingChain(Space.NIEMYTZKI, (comp,))
    p = NiemytzkiPoint(F(0), F(0))
    # f values along the chain are 1/2 + 1/(n+1); the infimum is exactly 1/2
    assert chain_limit_value(bind_chain(niemytzki_kappa(), chain), p) == F(1, 2)
    rep = check_condition_4(bind_chain(niemytzki_kappa(), chain), [p])
    assert rep.passed


def test_condition_4_fails_on_pinch_chain_with_witness():
    chain = double_arrow_pinch_chain()
    points = chain_check_points(chain, PLAN)
    rep = check_condition_4(bind_chain(double_arrow_ro(), chain), points)
    assert not rep.passed
    w = rep.witnesses[0]
    assert w["point"] == {"space": "double_arrow", "t": "1/10", "side": 0}
    # the value infimum along the chain is 1/10, the interior value is 0
    assert abs(w["deviation"] - 0.1) < 1e-12
    assert replay_witness(w)


def _halved_sorgenfrey(U, p):
    """sorgenfrey_f, halved on a component no longer than 1/2: on the chain
    [0, 1/2 + 1/n) the element values tend to 1/2 - x, while the interior
    [0, 1/2) scores (1/2 - x)/2, so the chain-infimum axiom breaks."""
    comp = next((c for c in U.components if c.a <= p.x < c.b), None)
    value = sorgenfrey_f(U, p)
    return value / 2 if comp is not None and comp.b - comp.a <= F(1, 2) else value


def test_condition_4_scan_path_report_is_pinned():
    # a family with no closed-form chain limit takes the element scan; its
    # report, every witness included, keeps these bytes
    from kappalab.rosets import ParamValue, ParametricBasicSet, DecreasingChain

    lane = ParametricBasicSet("half_open", {"a": ParamValue(F(0)), "b": ParamValue(F(1, 2), F(1))})
    chain = DecreasingChain(Space.SORGENFREY, (lane,))
    plan = SamplePlan(seed=1)
    S = user_supplied(Space.SORGENFREY, _halved_sorgenfrey)
    rep = check_condition_4(bind_chain(S, chain), chain_check_points(chain, plan))
    assert rep.counts == {"points": 15, "violations": 9}
    assert rep.witnesses[0]["inf_estimate"] == 0.515625
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == "6c17ea4ca1037fcaf2d36f483d57c08f52834515c2cd92deee4ab9e9003a75b5"


def _merged_lanes(space, kind, *lanes):
    """A chain whose lanes (limit a, limit b, b's 1/n coefficient) overlap at
    every n, so that its elements merge them into one component."""
    from kappalab.rosets import ParamValue, ParametricBasicSet, DecreasingChain

    return DecreasingChain(
        space,
        tuple(
            ParametricBasicSet(kind, {"a": ParamValue(a), "b": ParamValue(b, over_n)})
            for a, b, over_n in lanes
        ),
    )


def test_condition_4_on_merged_sorgenfrey_lanes():
    # [0, 1 + 1/(2n)) and [1, 2 + 1/(2n)) merge to [0, 2 + 1/(2n)), interior [0, 2):
    # at 1/2 every element's value is 1, and so is the value on the interior
    chain = _merged_lanes(Space.SORGENFREY, "half_open", (F(0), F(1), F(1, 2)), (F(1), F(2), F(1, 2)))
    S, plan = sorgenfrey_kappa(), SamplePlan(seed=1)
    assert chain_limit_value(bind_chain(S, chain), SorgenfreyPoint(F(1, 2))) == 1
    rep = check_condition_4(bind_chain(S, chain), chain_check_points(chain, plan))
    assert rep.passed and rep.counts["points"] == 18, rep.witnesses
    assert bridge_4_iff_d(bind_chain(S, chain), plan)[2]


def test_condition_4_witness_on_merged_double_arrow_lanes():
    # [(1/8,1), (3/8 + 1/(16n),0)] and [(3/8,1), (3/4 + 1/(16n),0)] merge; every
    # element keeps (3/4, 1) with value 5/8 + 1/(16n), which the interior
    # [(1/8,1), (3/4,0)] leaves out: the chain fails condition 4 there
    lanes = ((F(1, 8), F(3, 8), F(1, 16)), (F(3, 8), F(3, 4), F(1, 16)))
    chain = _merged_lanes(Space.DOUBLE_ARROW, "clopen_interval", *lanes)
    plan = SamplePlan(seed=1)
    rep = check_condition_4(bind_chain(double_arrow_ro(), chain), chain_check_points(chain, plan))
    assert not rep.passed
    w = rep.witnesses[0]
    assert w["point"] == {"space": "double_arrow", "t": "3/4", "side": 1}
    assert w["inf_estimate"] == 0.625 and w["interior_value"] == 0
    assert replay_witness(w)


def _pinch_onto_0_1():
    """[(0,1), (1/(2n),0)] with (0,0) flagged: every element keeps (0,1), whose
    values 1/(2n) tend to 0, while its twin (0,0) is the isolated extreme,
    which scores 1 and is no component length."""
    from kappalab.rosets import ParamValue, ParametricBasicSet, DecreasingChain

    lane = ParametricBasicSet(
        "clopen_interval", {"a": ParamValue(F(0)), "b": ParamValue(F(0), F(1, 2))}, {"include_left_extreme": True}
    )
    return DecreasingChain(Space.DOUBLE_ARROW, (lane,))


def test_condition_2_replay_matches_exact_check():
    # exact Sorgenfrey values: le(1/2, 49999/100000) fails, so the check
    # flags this point, and the replay must flag it without search slack
    small = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1))])
    big = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(99999, 100000))])
    w = {
        "kind": "condition_2",
        "family": "sorgenfrey_kappa",
        "small_set": encode_roset(small),
        "big_set": encode_roset(big),
        "point": encode_point(SorgenfreyPoint(F(1, 2))),
    }
    assert replay_witness(w)


def test_condition_4_replay_without_closed_form_limit():
    # the g family has no closed-form chain limit; its replay must use the
    # check's evaluated infimum and widened tolerance
    from kappalab.rosets import ParamValue, ParametricBasicSet, DecreasingChain

    comp = ParametricBasicSet(
        "tangent_disc", {"a": ParamValue(F(0)), "r": ParamValue(F(1, 2), F(1), F(0), 1)}
    )
    chain = DecreasingChain(Space.NIEMYTZKI, (comp,))
    S = g_stratification()
    for p in chain_check_points(chain, PLAN)[:6]:
        w = {
            "kind": "condition_4",
            "family": S.label,
            "chain": encode_chain(chain),
            "point": encode_point(p),
        }
        assert replay_witness(w) == (not check_condition_4(bind_chain(S, chain), [p]).passed)


def test_conditions_abc_pass_for_derived_approximations():
    rng = random.Random(41)
    for family, space in (
        (sorgenfrey_kappa, Space.SORGENFREY),
        (double_arrow_ro, Space.DOUBLE_ARROW),
    ):
        S = family()
        A = stratification_to_approximation(S, QGrid(10))
        from kappalab.sampling import sample_set

        sets = [sample_set(space, rng) for _ in range(6)]
        pairs = [sample_nested_pair(space, rng) for _ in range(6)]
        rep = check_conditions_abc(A, sets, PLAN, nested_pairs=pairs)
        assert rep.passed, rep.witnesses


def test_conditions_abc_niemytzki_base_sets():
    S = niemytzki_kappa()
    A = stratification_to_approximation(S, QGrid(10))
    sets = [
        validate_regular_open(Space.NIEMYTZKI, [TangentDisc(F(0), F(1))]),
        validate_regular_open(Space.NIEMYTZKI, [TangentDisc(F(2), F(1, 2))]),
    ]
    from kappalab.basesets import InteriorDisc

    sets.append(validate_regular_open(Space.NIEMYTZKI, [InteriorDisc(F(0), F(2), F(1))]))
    rep = check_conditions_abc(A, sets, PLAN)
    assert rep.passed, rep.witnesses


def test_condition_d_fails_on_pinch_chain():
    S = double_arrow_ro()
    A = stratification_to_approximation(S, QGrid(10))
    chain = double_arrow_pinch_chain()
    x = DoubleArrowPoint(F(1, 10), 0)
    rep = check_condition_d(A, chain, [(F(1, 20), F(1, 15))], [x], PLAN)
    assert not rep.passed
    w = rep.witnesses[0]
    assert w["point"]["t"] == "1/10"
    assert replay_witness(w)


def test_condition_d_passes_on_niemytzki_chains():
    S = niemytzki_kappa()
    A = stratification_to_approximation(S, QGrid(10))
    rng = random.Random(43)
    for _ in range(4):
        chain = sample_chain(Space.NIEMYTZKI, rng)
        points = chain_check_points(chain, PLAN)
        grid = [F(k, 2**10) for k in range(1, 2**10)]  # the grid values
        pairs = [(grid[50], grid[85]), (grid[300], grid[600])]
        rep = check_condition_d(A, chain, pairs, points, PLAN)
        assert rep.passed, rep.witnesses


def test_bridge_agreement():
    rng = random.Random(47)
    # positive pairs in two spaces plus the failing double arrow chain
    for family, space in (
        (sorgenfrey_kappa, Space.SORGENFREY),
        (niemytzki_kappa, Space.NIEMYTZKI),
    ):
        chain = sample_chain(space, rng)
        r4, rd, agree = bridge_4_iff_d(bind_chain(family(), chain), PLAN)
        assert agree and r4.passed and rd.passed
    r4, rd, agree = bridge_4_iff_d(bind_chain(double_arrow_ro(), double_arrow_pinch_chain()), PLAN)
    assert agree and not r4.passed and not rd.passed


def test_hausdorff_witness_examples():
    S = niemytzki_kappa()
    U = validate_regular_open(Space.NIEMYTZKI, [TangentDisc(F(0), F(1))])
    x, y = NiemytzkiPoint(F(0), F(0)), NiemytzkiPoint(F(2), F(0))
    hw = hausdorff_witness(S, x, y, U)
    assert hw.threshold == F(1, 2)
    assert hw.upper(x) and hw.lower(y)
    with pytest.raises(ValueError):
        hausdorff_witness(S, y, x, U)  # value 0 at the first point
    with pytest.raises(ValueError):
        hausdorff_witness(S, x, x, U)  # second point has positive value


def test_separate_regular_closed_examples():
    S = niemytzki_kappa()
    U1 = validate_regular_open(Space.NIEMYTZKI, [TangentDisc(F(0), F(1))])
    U2 = validate_regular_open(Space.NIEMYTZKI, [TangentDisc(F(3), F(1))])
    f = lambda p: S.value(U1, p)
    g = lambda p: S.value(U2, p)
    res = separate_regular_closed(f, g, [NiemytzkiPoint(F(3), F(0)), NiemytzkiPoint(F(0), F(0))])
    # the zero set of f owns (3,0): h = 0 < 1/2 there; (0,0) sits on the other side
    assert res.low_side(NiemytzkiPoint(F(3), F(0)))
    assert res.high_side(NiemytzkiPoint(F(0), F(0)))
    with pytest.raises(ValueError):
        separate_regular_closed(f, f, [NiemytzkiPoint(F(10), F(0))])  # common zero
    # positive functions everywhere: vacuous pass
    res2 = separate_regular_closed(
        lambda p: F(1), lambda p: F(1, 2), [NiemytzkiPoint(F(0), F(1))]
    )
    assert res2.f_side_count == 0 and res2.g_side_count == 0


def test_check_separations_passes():
    for family in (sorgenfrey_kappa, double_arrow_ro, niemytzki_kappa):
        rep = check_separations(family(), PLAN)
        assert rep.passed
        assert rep.counts["hausdorff_configs"] > 0
        assert rep.counts["ratio_configs"] > 0


def test_reports_are_deterministic():
    S = sorgenfrey_kappa()
    a = check_condition_1(S, PLAN).to_json()
    b = check_condition_1(S, PLAN).to_json()
    assert a == b
    rng1, rng2 = random.Random(7), random.Random(7)
    p1 = sample_condition3_pairs(Space.NIEMYTZKI, rng1, 5)
    p2 = sample_condition3_pairs(Space.NIEMYTZKI, rng2, 5)
    assert check_condition_3(niemytzki_kappa(), p1).to_json() == check_condition_3(
        niemytzki_kappa(), p2
    ).to_json()


def _shrinking_family(U, p):
    # 1 / (1 + length of U) on U: a strictly larger index set scores lower
    from kappalab import member

    if not member(U, p):
        return F(0)
    return 1 / (1 + sum(c.b - c.a for c in U.components))


def _failing_report(condition):
    if condition == "1":
        return check_condition_1(user_supplied(Space.SORGENFREY, lambda U, p: F(0)), PLAN)
    if condition == "2":
        return check_condition_2(user_supplied(Space.SORGENFREY, _shrinking_family), PLAN)
    if condition == "3":
        S, pairs = continuity_negative_control()
        return check_condition_3(S, pairs)
    if condition in ("hausdorff", "ratio_separation"):
        # the zero family fails every separation; at 16 points each kind
        # draws 4 configurations, within the report's 10 witnesses
        plan = PLAN if condition == "hausdorff" else SamplePlan(seed=23, n_points=16)
        return check_separations(user_supplied(Space.SORGENFREY, lambda U, p: F(0)), plan)
    chain = double_arrow_pinch_chain()
    points = chain_check_points(chain, PLAN)
    if condition == "4":
        return check_condition_4(bind_chain(double_arrow_ro(), chain), points)
    A = stratification_to_approximation(double_arrow_ro(), QGrid(10))
    return check_condition_d(A, chain, [(F(1, 20), F(1, 15))], points, PLAN)


@pytest.mark.parametrize("condition", ["1", "2", "3", "4", "d", "hausdorff", "ratio_separation"])
def test_every_witness_of_a_failing_check_replays(condition):
    # user-supplied families (1, 2, 3, separations) replay from the values
    # the witness stores
    rep = _failing_report(condition)
    assert not rep.passed and rep.witnesses
    assert {condition, f"condition_{condition}"} & {w["kind"] for w in rep.witnesses}
    assert all(replay_witness(w) for w in rep.witnesses)


def test_check_separations_fails_on_values_that_contradict_membership():
    # the zero family scores 0 inside its index sets: no threshold splits x
    # in U from y off U, and no ratio splits two zero sets
    rep = check_separations(user_supplied(Space.SORGENFREY, lambda U, p: F(0)), PLAN)
    assert not rep.passed
    assert rep.counts == {"hausdorff_configs": 10, "ratio_configs": 0, "violations": 10}
    for w in rep.witnesses:
        assert w["kind"] == "hausdorff" and w["family"] == "user_supplied"
        assert w["x_value"] == w["y_value"] == "0"
        assert replay_witness(w)


def test_passing_separation_witnesses_replay_false():
    # the witness of a configuration the family splits replays to no violation
    S = niemytzki_kappa()
    U1 = validate_regular_open(Space.NIEMYTZKI, [TangentDisc(F(0), F(1))])
    U2 = validate_regular_open(Space.NIEMYTZKI, [TangentDisc(F(3), F(1))])
    x, y = NiemytzkiPoint(F(0), F(0)), NiemytzkiPoint(F(3), F(0))
    for case in (_HausdorffSplit(S, U1, x, y), _RatioSplit(S, U1, U2, (x, y))):
        assert not case.violates()
        assert not replay_witness(case.witness())


def test_approximation_witnesses_replay_to_the_checks_verdict():
    # hand-built (a), (b) and (c) witnesses replay with the space's kappa
    # family; a shallow probe, swapped sets and p > q make some of them
    # violate, so each kind shows both verdicts
    A = stratification_to_approximation(sorgenfrey_kappa(), QGrid(10))
    small = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1, 2))])
    big = validate_regular_open(Space.SORGENFREY, [HalfOpen(F(0), F(1))])
    probes = [(F(1, 2**30), F(1, 1024), F(1, 2), F(1023, 1024)), (F(1, 4), F(1, 8), F(1, 2))]
    seen = set()
    for p in (SorgenfreyPoint(F(k, 8)) for k in range(-1, 9)):
        at = {"family": "approximation", "point": encode_point(p)}
        cases = [
            (_ApproxUnion(A, big, p, qs), {"set": encode_roset(big), "qs": [str(q) for q in qs]})
            for qs in probes
        ]
        cases += [
            (
                _ApproxMonotone(A, U, V, p, F(1, 4)),
                {"small_set": encode_roset(U), "big_set": encode_roset(V), "q": "1/4"},
            )
            for U, V in ((small, big), (big, small))
        ]
        cases += [
            (_ApproxClosure(A, big, p_val, F(1, 4), p), {"set": encode_roset(big), "p": str(p_val), "q": "1/4"})
            for p_val in (F(1, 8), F(3, 4))
        ]
        for case, fields in cases:
            verdict = case.violates()
            assert replay_witness({"kind": case.kind, **at, **fields}) == verdict
            seen.add((case.kind, verdict))
    assert seen == {(kind, v) for kind in ("condition_a", "condition_b", "condition_c") for v in (True, False)}


def test_chain_lane_decisions_match_a_deep_element():
    # the closed-form lane decisions of conditions 4 and (d) against an
    # independent oracle: the family, and its realized superlevel set, on the
    # chain element at n = 2^20
    deep = 2**20
    grid = [F(k, 2**PLAN.grid_m) for k in range(1, 2**PLAN.grid_m)]  # the grid values
    grid_qs = {grid[len(grid) // k] for k in (2, 3, 12, 15, 16, 20)}
    rng = random.Random(53)
    n_values = n_closures = 0
    for family, space in (
        (sorgenfrey_kappa, Space.SORGENFREY),
        (double_arrow_ro, Space.DOUBLE_ARROW),
        (niemytzki_kappa, Space.NIEMYTZKI),
    ):
        S = family()
        chains = [sample_chain(space, rng) for _ in range(20)]
        if space is Space.DOUBLE_ARROW:
            chains.append(double_arrow_pinch_chain())
            chains.append(_pinch_onto_0_1())
        for chain in chains:
            first, bound = chain.at(1), bind_chain(S, chain)
            points = chain_check_points(chain, PLAN)
            points += [sample_point_near_set(first, rng) for _ in range(12)]
            element = chain.at(deep)
            for p in points:
                limit = chain_limit_value(bound, p)
                assert abs(float(limit) - float(S.value(element, p))) <= 1e-5, (chain, p)
                n_values += 1
            for comp in chain.components:
                lim = comp.limit_values()
                own = lim["r"] if "r" in lim else lim["b"] - lim["a"]
                lane_element = validate_regular_open(space, [comp.at(deep)])
                for q in sorted(grid_qs | {own}):
                    realized = realize_sublevel(S.label, lane_element, q)
                    for x in points:
                        decided = _chain_sublevel_closure_all(comp, q, x)
                        assert decided == realized.closure_member(x), (chain, q, x)
                        n_closures += 1
    assert n_values > 1500 and n_closures > 10000


def test_grid_values_by_index_are_the_grid():
    # grid_pairs and the (a)-(c) probes pick grid values by index, unbuilt
    for depth in range(1, 13):
        grid = QGrid(depth)
        assert [grid.value(k) for k in range(2**depth - 1)] == [F(k, 2**depth) for k in range(1, 2**depth)]
