"""The four executable negative results."""

from fractions import Fraction as F

import pytest

from kappalab import (
    NOT_FOUND,
    REFUTED,
    DecreasingChain,
    NiemytzkiPoint,
    ParametricBasicSet,
    ParamValue,
    SorgenfreyPoint,
    Space,
    SorgenfreyCandidate,
    characteristic_candidate,
    clopen_only_candidate,
    doublearrow_not_kappa,
    doublearrow_not_kappa_default,
    g_family_not_extendable,
    niemytzki_not_stratifiable,
    refute_sorgenfrey_A,
    reverify_bundle,
    member,
    right_gap_candidate,
)


def test_characteristic_candidate_refuted():
    res = refute_sorgenfrey_A(characteristic_candidate())
    assert res.verdict == REFUTED
    assert res.detail["stage"] == "continuity_chain"
    assert reverify_bundle(res, characteristic_candidate())


def test_right_gap_candidate_refuted_by_chain():
    res = refute_sorgenfrey_A(right_gap_candidate())
    assert res.verdict == REFUTED
    assert res.detail["stage"] == "continuity_chain"
    # the bundle's values stay above the threshold while the limit scores 0
    assert reverify_bundle(res, right_gap_candidate())


def test_clopen_only_control_not_found():
    res = refute_sorgenfrey_A(clopen_only_candidate())
    assert res.verdict == NOT_FOUND


def test_condition_1_violator_caught_early():
    bad = SorgenfreyCandidate(
        half_open_value=lambda x, t: F(0),  # vanishes on its own set
        open_value=lambda a, b, t: F(1) if a < t < b else F(0),
        name="zero_half",
    )
    res = refute_sorgenfrey_A(bad)
    assert res.verdict == REFUTED
    assert res.detail["stage"] == "condition_1"
    assert reverify_bundle(res, bad)
    res.assertions[0]["value"] = "1/2"
    assert not reverify_bundle(res, bad)


def test_condition_2_violator_caught_early():
    bad = SorgenfreyCandidate(
        half_open_value=lambda x, t: F(1) if x <= t < x + 1 else F(0),
        open_value=lambda a, b, t: F(1, 100) if a < t < b else F(0),
        name="shrunk_open",
    )
    res = refute_sorgenfrey_A(bad)
    assert res.verdict == REFUTED
    assert res.detail["stage"] == "condition_2"
    assert reverify_bundle(res, bad)
    res.assertions[1]["value"] = "1"
    assert not reverify_bundle(res, bad)


_INDICATOR = lambda x, t: F(1) if x <= t < x + 1 else F(0)
_OPEN_INDICATOR = lambda a, b, t: F(1) if a < t < b else F(0)


def _early_stage(cand, stage, kinds):
    """The candidate is refuted at ``stage`` by a bundle of the candidate's
    values of ``kinds``, which replays true with the candidate and false
    with its first stored value changed."""
    res = refute_sorgenfrey_A(cand)
    assert res.verdict == REFUTED and res.detail["stage"] == stage
    assert [a["kind"] for a in res.assertions] == kinds
    assert reverify_bundle(res, cand)
    res.assertions[0]["value"] = str(F(res.assertions[0]["value"]) + F(1, 3))
    assert not reverify_bundle(res, cand)
    return res


def test_condition_1_sample_off_the_unit_interval():
    # 1 everywhere: nonzero at x - 1/64, outside [x, x + 1)
    cand = SorgenfreyCandidate(lambda x, t: F(1), _OPEN_INDICATOR, name="one")
    res = _early_stage(cand, "condition_1", ["candidate_unit_value_eq"])
    assert res.detail["sample"]["expect"] == "zero"


def test_condition_1_sample_at_an_open_left_end():
    # the open-interval function scores its own left end a
    cand = SorgenfreyCandidate(_INDICATOR, lambda a, b, t: F(1) if a <= t < b else F(0), name="left")
    res = _early_stage(cand, "condition_1", ["candidate_value_eq"])
    assert res.detail["sample"]["t"] == res.detail["sample"]["a"]


def test_condition_2_found_while_assembling_the_chain():
    # halved on the open interval within 1/32 of its left end: the sampled
    # pairs start 1/16 or more from a, the chain's points 1/128 or less
    def open_value(a, b, t):
        return (F(1, 2) if t - a < F(1, 32) else F(1)) if a < t < b else F(0)

    cand = SorgenfreyCandidate(_INDICATOR, open_value, name="near_left_halved")
    res = _early_stage(cand, "condition_2", ["candidate_unit_value_eq", "candidate_value_eq"])
    assert res.detail["sample"]["a"] == "1/64"


def test_condition_1_found_while_assembling_the_chain():
    # scores the left end a of an open interval whose a has denominator 64:
    # the sampled a lie on the 1/32 grid, the chain's limit at j/16 + 1/64
    def open_value(a, b, t):
        return F(1) if a < t < b or t == a and a.denominator == 64 else F(0)

    cand = SorgenfreyCandidate(_INDICATOR, open_value, name="left_at_64ths")
    res = _early_stage(cand, "condition_1", ["candidate_value_eq"])
    assert res.detail["sample"] == {"a": "1/64", "b": "2", "t": "1/64", "expect": "zero"}


def _self_value_dropped(drop):
    """The indicator candidate, but 0 on [x, x+1) at its own left end x
    where ``drop(x)``."""
    half = lambda x, t: F(0) if t == x and drop(x) else _INDICATOR(x, t)
    return SorgenfreyCandidate(half, _OPEN_INDICATOR, name="dropped")


def _odd_256ths(x):
    return (256 * x).denominator == 1 and (256 * x).numerator % 2 == 1


def test_density_search_skips_sparse_windows():
    # 7 of the 15 grid points of the windows in [0, 1/8) clear the threshold
    cand = _self_value_dropped(lambda x: x < F(1, 8) and _odd_256ths(x))
    res = refute_sorgenfrey_A(cand)
    assert res.verdict == REFUTED and res.detail["stage"] == "continuity_chain"
    assert res.detail["limit"]["x"] == "9/64"  # the third window, 1/8 + 1/64
    assert reverify_bundle(res, cand)


def test_density_search_with_no_dense_window_gives_up():
    # the early stages sample x on the 1/32 grid, where 256 x is even
    res = refute_sorgenfrey_A(_self_value_dropped(_odd_256ths))
    assert res.verdict == NOT_FOUND
    assert res.detail == {"reason": "density search exhausted"}


def test_density_search_gives_up_on_a_descent_that_stalls():
    # every try of depth d is x + j/2^(6+d), j odd, whose numerator over
    # 2^(6+d) is j mod 4 for d >= 2.  At depth 3 the try j = 1 fails and
    # j = 3 lies above the depth-2 point, so it is skipped; from depth 4 on
    # every try fails, and two points are too few in every window.
    def drop(x):
        return x.denominator >= 1024 or x.denominator == 512 and x.numerator % 4 == 1

    res = refute_sorgenfrey_A(_self_value_dropped(drop))
    assert res.verdict == NOT_FOUND
    assert res.detail == {"reason": "density search exhausted"}


def test_a_refuted_bundle_needs_an_assertion():
    from kappalab.refuters import RefutationResult, _refuted

    with pytest.raises(AssertionError):
        _refuted("claim", [], {})
    res = g_family_not_extendable(1)
    assert not reverify_bundle(RefutationResult(res.claim, res.verdict, [], res.detail))


def test_doublearrow_refuter_default():
    res = doublearrow_not_kappa_default()
    assert res.verdict == REFUTED
    assert res.detail["witness"] == {"space": "double_arrow", "t": "1/10", "side": 0}
    assert reverify_bundle(res)


def test_doublearrow_refuter_decides_the_approach_for_every_n():
    # x_k = 1/10 + 1/(1000k) - 1/(10k^2) rises while k < 200 and then falls back
    # onto 1/10 from above: no strictly increasing approach, though the first
    # 64 values rise below 1/10
    x_seq = ParamValue(F(1, 10), F(1, 1000), F(-1, 10))
    assert all(x_seq.at(k) < x_seq.at(k + 1) < F(1, 10) for k in range(1, 65))
    assert x_seq.at(300) < x_seq.at(299) and x_seq.at(300) > F(1, 10)
    assert doublearrow_not_kappa(x_seq, F(1, 20), F(1, 15)).verdict == NOT_FOUND
    # 1/10 - 1/(10(k+1)) rises at every k
    res = doublearrow_not_kappa(ParamValue(F(1, 10), F(-1, 10), F(0), 1), F(1, 20), F(1, 15))
    assert res.verdict == REFUTED and reverify_bundle(res)


def _contains(chain, p) -> bool:
    from kappalab.refuters import _assertion, _check_assertion

    return _check_assertion(_assertion("chain_element_contains", chain, p))


def test_chain_element_contains_is_decided_for_every_n():
    # 1 + 1/100 lies in [0, 1 + 1/n) for n < 100 only
    lane = ParametricBasicSet("half_open", {"a": ParamValue(F(0)), "b": ParamValue(F(1), F(1))})
    chain = DecreasingChain(Space.SORGENFREY, (lane,))
    assert all(member(chain.at(n), SorgenfreyPoint(F(101, 100))) for n in range(1, 100))
    assert not _contains(chain, SorgenfreyPoint(F(101, 100)))
    # the right end 1 is approached strictly from above: every element keeps it
    assert _contains(chain, SorgenfreyPoint(F(1))) and not _contains(chain, SorgenfreyPoint(F(-1, 8)))


def test_chain_element_contains_fails_closed_on_the_limit_circle():
    # B*(0, 1/2 + 1/(n+1)) shrinks strictly onto B*(0, 1/2): the top (0, 1) of
    # the limit circle lies in every element, but the assertion does not claim it
    lane = ParametricBasicSet("tangent_disc", {"a": ParamValue(F(0)), "r": ParamValue(F(1, 2), F(1), F(0), 1)})
    chain = DecreasingChain(Space.NIEMYTZKI, (lane,))
    top = NiemytzkiPoint(F(0), F(1))
    assert all(member(chain.at(n), top) for n in (1, 10, 1000))
    assert not _contains(chain, top)
    # the open limit disc and the tangency point are kept
    assert _contains(chain, NiemytzkiPoint(F(0), F(99, 100))) and _contains(chain, NiemytzkiPoint(F(0), F(0)))
    assert not _contains(chain, NiemytzkiPoint(F(1, 100), F(0)))


def test_doublearrow_refuter_constant_chain_not_found():
    res = doublearrow_not_kappa(ParamValue(F(1, 10)), F(1, 20), F(1, 15))
    assert res.verdict == NOT_FOUND


def test_doublearrow_refuter_precondition_errors():
    with pytest.raises(ValueError):
        doublearrow_not_kappa(
            ParamValue(F(1, 10), F(-1, 10), F(0), 1), F(1, 20), F(1, 5)
        )  # q too large: needs q < 1/5 - x
    with pytest.raises(ValueError):
        doublearrow_not_kappa(
            ParamValue(F(1, 10), F(-1, 10), F(0), 1), F(1, 15), F(1, 20)
        )  # p > q


def test_niemytzki_not_stratifiable():
    res = niemytzki_not_stratifiable(0, 50)
    assert res.verdict == REFUTED
    assert reverify_bundle(res)
    # the pinned values are exactly 1 along the whole sequence
    values = [a for a in res.assertions if a["kind"] == "value_eq"]
    assert len(values) == 50
    assert all(a["value"] == "1" for a in values)


def test_niemytzki_not_stratifiable_float_mode():
    res = niemytzki_not_stratifiable(0.25, 30)
    assert res.verdict == REFUTED
    assert reverify_bundle(res)


def test_niemytzki_not_stratifiable_zero_budget():
    assert niemytzki_not_stratifiable(0, 0).verdict == NOT_FOUND


def test_g_extendability_n1_exact_numbers():
    res = g_family_not_extendable(1)
    assert res.verdict == REFUTED
    assert res.detail["value"] == "2/3"
    assert reverify_bundle(res)
    # the probe point memberships clear as 29/36 < 1 and 1/36 < 4/36, scaled
    probe = res.detail["probe"]
    assert probe == {"space": "niemytzki", "x": "1/3", "y": "1/6"}


def test_g_extendability_n10():
    res = g_family_not_extendable(10)
    assert res.detail["value"] == "31/60"  # 1/2 + 1/60
    assert reverify_bundle(res)


def test_g_extendability_case_selection():
    # the probe always sits below the diameter: y = r/2 < r
    for n in (1, 3, 7):
        r = F(1, 3 * n)
        assert r / 2 < r
        assert g_family_not_extendable(n).verdict == REFUTED


def test_bundles_fail_closed_on_tampering():
    res = g_family_not_extendable(1)
    res.assertions[0]["expect"] = False  # claim the probe is NOT in the disc
    assert not reverify_bundle(res)


def _certificates(res):
    return [a["certificate"] for a in res.assertions if a["kind"] == "certificate"]


def test_bundle_certificates_are_parametric():
    # (1/(3j), 1/(6j)) in B*(0, 1/j) for every j >= n: three trajectories, one shift
    (cert,) = _certificates(g_family_not_extendable(10))
    assert cert == {
        "limit": {"space": "niemytzki", "x": "0", "y": "0"},
        "sequence": [{"const": "0", "over_n": "1/3", "shift": 9}, {"const": "0", "over_n": "1/6", "shift": 9}],
        "size": {"const": "0", "over_n": "1", "shift": 9},
    }
    (cert,) = _certificates(niemytzki_not_stratifiable(0, 50))
    assert cert["size"] == {"const": "0", "over_n": "1", "shift": 1}


def test_tampered_parametric_certificate_fails_reverification():
    res = g_family_not_extendable(1)
    (cert,) = _certificates(res)
    cert["sequence"][0]["over_n"] = "2"  # (2/j, 1/(6j)) leaves B*(0, 1/j)
    assert not reverify_bundle(res)
    res = niemytzki_not_stratifiable(0, 50)
    (cert,) = _certificates(res)
    cert["size"]["const"] = "1/2"  # witnesses that no longer shrink to (0, 0)
    assert not reverify_bundle(res)


def test_sorgenfrey_bundle_states_its_points_as_memberships():
    # the searched points form no trajectory: each x_k sits in [x, x + 2^-(3+k))
    res = refute_sorgenfrey_A(right_gap_candidate())
    assert not _certificates(res)
    members = [a for a in res.assertions if a["kind"] == "member"]
    assert len(members) >= 8
    x = F(res.detail["limit"]["x"])
    for k, a in enumerate(members, 1):
        assert a["set"] == {"kind": "half_open", "a": str(x), "b": str(x + F(1, 2 ** (3 + k)))}
        assert a["expect"] is True
    members[-1]["point"]["x"] = str(x + F(1, 2 ** (3 + len(members))))
    assert not reverify_bundle(res, right_gap_candidate())


def test_tampered_assertion_that_no_longer_decodes_fails_reverification():
    res = g_family_not_extendable(1)
    (cert,) = _certificates(res)
    cert["size"]["shift"] = 3  # two different shifts in one certificate
    assert not reverify_bundle(res)
    res = g_family_not_extendable(1)
    probe = next(a for a in res.assertions if a["kind"] == "member")
    probe["point"]["y"] = "-1"  # below the axis: not a point of the plane
    assert not reverify_bundle(res)


def test_niemytzki_bundle_leaves_the_sequence_memberships_to_its_certificate():
    # (a + 1/(3k), 1/(6k)) in B*(a, 1/k) for every k is the certificate's own
    # statement; the member assertions left say each unit disc misses (a, 0)
    res = niemytzki_not_stratifiable(0, 50)
    members = [a for a in res.assertions if a["kind"] == "member"]
    assert len(members) == 50 and len(res.assertions) == 101
    assert all(a["expect"] is False and a["set"]["r"] == "1" for a in members)
    assert all(a["point"] == {"space": "niemytzki", "x": "0", "y": "0"} for a in members)


_SORGENFREY_POINT = {"space": "sorgenfrey", "x": "0"}
_INTERIOR_DISC = {"kind": "interior_disc", "cx": "1", "cy": "2", "r": "1"}


def _put(index, key, value):
    def tamper(assertions):
        assertions[index][key] = value

    return tamper


def _put_first(kind, key, value):
    def tamper(assertions):
        next(a for a in assertions if a["kind"] == kind)[key] = value

    return tamper


def _drop(index, key):
    def tamper(assertions):
        del assertions[index][key]

    return tamper


def _replace(index, value):
    def tamper(assertions):
        assertions[index] = value

    return tamper


def _remove_all(assertions):
    assertions.clear()


def _chain_depth_0(assertions):
    for a in assertions:  # a depth-0 chain has no element to check
        a["chain"]["depth"] = 0


def _g_bundle():
    return g_family_not_extendable(1), None


def _doublearrow_bundle():
    return doublearrow_not_kappa_default(), None


def _right_gap_bundle():
    return refute_sorgenfrey_A(right_gap_candidate()), right_gap_candidate()


def _sorgenfrey_bundle():
    # the bundle of `refute sorgenfrey-a`, whose default candidate is the characteristic one
    return refute_sorgenfrey_A(characteristic_candidate()), characteristic_candidate()


def _member_point_as_binary64(assertions):
    point = next(a for a in assertions if a["kind"] == "member")["point"]
    point["x"] = float(F(point["x"]))


def _double_arrow_side_as_bool(assertions):
    for a in assertions:  # side 0 written as false: the same value, not the integer
        a["point"]["side"] = bool(a["point"]["side"])


@pytest.mark.parametrize(
    "bundle, tamper",
    [
        (_g_bundle, _put(2, "set", _INTERIOR_DISC)),
        (_g_bundle, _put(0, "point", _SORGENFREY_POINT)),
        (_g_bundle, _put(3, "set", {"kind": "half_open", "a": "0", "b": "1"})),
        (_g_bundle, _put(4, "point", _SORGENFREY_POINT)),
        (_g_bundle, _drop(0, "point")),
        (_g_bundle, _put(3, "family", "no_such_family")),
        (_g_bundle, _put(3, "set", _INTERIOR_DISC)),
        (_g_bundle, _put(3, "family", ["g_family"])),
        (_g_bundle, _replace(0, 5)),
        (_g_bundle, _put(0, "kind", "no_such_kind")),
        (_g_bundle, _put(3, "set", {"kind": "tangent_disc", "a": "1/3", "r": 0.5})),
        (_doublearrow_bundle, _chain_depth_0),
        (_right_gap_bundle, _put(0, "set_kind", "half_open_unit")),
        (_g_bundle, _put_first("value_eq", "value", 0.6666666667)),
        (_g_bundle, _put_first("value_gt", "threshold", 0.5)),
        (_right_gap_bundle, _put_first("candidate_value_eq", "value", 1e-10)),
        (_sorgenfrey_bundle, _member_point_as_binary64),
        (_doublearrow_bundle, _double_arrow_side_as_bool),
        (_g_bundle, _remove_all),
    ],
    ids=[
        "halfplane_set_not_a_tangent_disc",
        "member_point_in_another_space",
        "value_set_in_another_space",
        "value_gt_point_in_another_space",
        "member_without_point",
        "unknown_family",
        "family_does_not_index_the_set",
        "family_label_not_a_string",
        "assertion_not_an_object",
        "unknown_kind",
        "set_mixes_exact_and_float",
        "chain_depth_0",
        "candidate_set_not_open",
        "exact_value_as_binary64",
        "exact_threshold_as_binary64",
        "exact_candidate_value_as_binary64",
        "sorgenfrey_point_as_binary64",
        "double_arrow_side_as_bool",
        "assertions_removed",
    ],
)
def test_tampered_bundle_fails_closed(bundle, tamper):
    res, candidate = bundle()
    tamper(res.assertions)
    assert not reverify_bundle(res, candidate)


def test_candidate_without_open_interval_functions_fails_closed():
    res = refute_sorgenfrey_A(right_gap_candidate())
    assert not reverify_bundle(res, clopen_only_candidate())


def test_refuted_raises_on_a_false_assertion():
    from kappalab import HalfOpen, SorgenfreyPoint
    from kappalab.refuters import _assertion, _refuted

    holds = _assertion("member", HalfOpen(F(0), F(1)), SorgenfreyPoint(F(1, 2)), True)
    assert _refuted("claim", [holds], {}).verdict == REFUTED
    fails = _assertion("member", HalfOpen(F(0), F(1)), SorgenfreyPoint(F(1)), True)
    with pytest.raises(AssertionError):
        _refuted("claim", [holds, fails], {})
