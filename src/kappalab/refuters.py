"""Executable negative results: witness searches that re-verify exactly.

Each refuter renders a non-existence argument as a finite witness bundle:
a list of typed assertions (memberships, exact values, strict inequalities,
parametric convergence certificates) that ``reverify_bundle`` replays one
by one in exact rational arithmetic.  Each assertion kind is stated once,
as its fields and a predicate over their decoded values, and a refuter
checks its bundle with that same replay before returning it.  A refuter
never reports "consistent":
when its search fails at the given budget it returns ``NOT_FOUND`` --
absence of a witness at a finite budget proves nothing.

The four targets:

* no function family over the half-open unit intervals together with the
  rational open intervals can satisfy all three family conditions on the
  Sorgenfrey line (a density/category search produces a right-approaching
  rational sequence whose values stay above a threshold while the limit
  value is 0);
* the double arrow space violates the chain-closure condition: the clopen
  chain [(x_k,1), (1/5,0)] with x_k increasing to x keeps (x,0) in every
  element's closure while the chain interior excludes it;
* the Niemytzki plane admits no family over all open sets: tangent unit
  discs pin value 1 along a sequence converging to an axis point that the
  punctured plane must score 0;
* the axis-normalized tangent-disc family cannot extend to the open half
  plane x > 0: the point (1/(3n), 1/(6n)) scores above 1/2 inside it while
  continuity at (0,0) forces 0.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .basesets import HalfOpen, TangentDisc
from .convergence import ConvergenceCertificate, verify_convergence
from .families import LABEL_G, LABEL_NIEMYTZKI, UnindexedSetError
from .numerics import eq, le, lt
from .rosets import (
    DecreasingChain,
    ParametricBasicSet,
    ParamValue,
    RegularOpenSet,
    lane_keeps,
    member,
)
from .sampling import double_arrow_pinch_chain, randbelow
from .serialize import (
    SchemaError,
    _expect_fields,
    decode_certificate,
    decode_chain,
    decode_family,
    decode_point,
    decode_scalar,
    decode_set,
    encode_basic_set,
    encode_certificate,
    encode_chain,
    encode_point,
    encode_scalar,
)
from .spaces import DoubleArrowPoint, NiemytzkiPoint, SorgenfreyPoint, Space

REFUTED = "refuted"
NOT_FOUND = "not_found_at_budget"


@dataclass
class RefutationResult:
    claim: str
    verdict: str
    assertions: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    @property
    def refuted(self) -> bool:
        return self.verdict == REFUTED

    def payload(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# assertion kinds: one codec per wire field, one predicate per kind


def _decode_expect(value) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"'expect' is true or false, got {value!r}")
    return value


def _decode_set_kind(value) -> str:
    if value != "open":
        raise SchemaError(f"candidate assertions read open intervals, got {value!r}")
    return value


_SCALAR = (encode_scalar, decode_scalar)

#: (encode, decode) per field name; a set is written as its base set and
#: read like every other set, a family as its label
_CODECS = {
    "set": (encode_basic_set, decode_set),
    "point": (encode_point, decode_point),
    "chain": (encode_chain, decode_chain),
    "certificate": (encode_certificate, decode_certificate),
    "family": (str, decode_family),
    "expect": (bool, _decode_expect),
    "set_kind": (str, _decode_set_kind),
    **dict.fromkeys(("a", "b", "t", "value", "threshold"), _SCALAR),
}


def _in_right_half_plane(U: RegularOpenSet, _c) -> bool:
    """U is one tangent disc B*(a, r) inside x > 0: 0 < a and r <= a."""
    disc = U.components[0] if len(U.components) == 1 else None
    return isinstance(disc, TangentDisc) and lt(0, disc.a) and le(disc.r, disc.a)


def _open_value(candidate, a, b, t, stored):
    """The candidate's value on the open interval (a, b) at t; without a
    candidate, the value the bundle stores."""
    if candidate is None:
        return stored
    if candidate.open_value is None:
        raise UnindexedSetError(f"{candidate.name} has no open-interval functions")
    return candidate.open_value(a, b, t)


def _exactly(computed, stored) -> bool:
    """A computed value that is exact is compared only with an exact field: a
    binary64 field, which ``numerics`` would compare within EPS, is false."""
    return type(computed) is not Fraction or type(stored) is Fraction


def _value_eq(computed, stored) -> bool:
    return _exactly(computed, stored) and eq(computed, stored)


def _value_gt(computed, threshold) -> bool:
    return _exactly(computed, threshold) and lt(threshold, computed)


#: kind -> (field names, predicate over the decoded fields and the candidate)
_KINDS = {
    "member": (("set", "point", "expect"), lambda U, p, expect, _c: member(U, p) is expect),
    "value_eq": (
        ("family", "set", "point", "value"),
        lambda S, U, p, value, _c: _value_eq(S.value(U, p), value),
    ),
    "value_gt": (
        ("family", "set", "point", "threshold"),
        lambda S, U, p, threshold, _c: _value_gt(S.value(U, p), threshold),
    ),
    "certificate": (("certificate",), lambda cert, _c: verify_convergence(cert)),
    "halfplane_subset": (("set",), _in_right_half_plane),
    "chain_element_contains": (
        ("chain", "point"),
        lambda chain, p, _c: any(lane_keeps(comp, p) for comp in chain.components),
    ),
    "chain_interior_excludes": (
        ("chain", "point"),
        lambda chain, p, _c: not member(chain.interior, p),
    ),
    "candidate_value_gt": (
        ("set_kind", "a", "b", "t", "threshold", "value"),
        lambda _k, a, b, t, threshold, value, c: _value_gt(_open_value(c, a, b, t, value), threshold),
    ),
    "candidate_value_eq": (
        ("set_kind", "a", "b", "t", "value"),
        lambda _k, a, b, t, value, c: _value_eq(_open_value(c, a, b, t, value), value),
    ),
    "candidate_unit_value_eq": (
        ("a", "t", "value"),
        # the value on [a, a + 1) at t; without a candidate, the stored one
        lambda a, t, value, c: _value_eq(value if c is None else c.half_open_value(a, t), value),
    ),
}


def _assertion(kind: str, *values) -> dict:
    """The wire dict of an assertion; ``values`` follow the kind's fields."""
    names, _ = _KINDS[kind]
    fields = zip(names, values, strict=True)
    return {"kind": kind, **{name: _CODECS[name][0](v) for name, v in fields}}


def _check_assertion(a: dict, candidate=None) -> bool:
    """Whether an assertion holds: its fields decode, its parts lie in one
    space, and its kind's predicate accepts them.  A schema error or a part
    the predicate rejects (``ValueError``) makes it false."""
    kind = a.get("kind") if isinstance(a, dict) else None
    if not isinstance(kind, str) or kind not in _KINDS:
        return False
    names, holds = _KINDS[kind]
    try:
        _expect_fields(a, {"kind", *names})
        values = [_CODECS[name][1](a[name]) for name in names]
        if len({v.space for v in values if hasattr(v, "space")}) > 1:
            return False
        return holds(*values, candidate)
    except ValueError:
        return False


def reverify_bundle(result: RefutationResult, candidate=None) -> bool:
    """Replay every assertion of a refuted bundle; True when all hold, and
    there is at least one: a bundle with none proves nothing."""
    return (
        result.refuted
        and bool(result.assertions)
        and all(_check_assertion(a, candidate) for a in result.assertions)
    )


def _refuted(claim: str, assertions: list, detail: dict, candidate=None) -> RefutationResult:
    """A refuted result, once it has assertions and every one holds under
    the replay's check."""
    if not assertions:
        raise AssertionError(f"{claim}: a refuted bundle needs an assertion")
    for a in assertions:
        if not _check_assertion(a, candidate):
            raise AssertionError(f"{claim}: a {a['kind']} assertion of the bundle fails")
    return RefutationResult(claim, REFUTED, assertions, detail)


# ---------------------------------------------------------------------------
# Sorgenfrey candidate families over half-open unit intervals + open intervals


@dataclass
class SorgenfreyCandidate:
    """A candidate family over {[x, x+1)} and the rational open intervals.

    ``half_open_value(x, t)`` evaluates the function indexed by [x, x+1) at
    t; ``open_value(a, b, t)`` the one indexed by (a, b).  A clopen-only
    candidate leaves ``open_value`` as None.
    """

    half_open_value: Callable[[Fraction, Fraction], Fraction]
    open_value: Optional[Callable[[Fraction, Fraction, Fraction], Fraction]] = None
    name: str = "candidate"


def characteristic_candidate() -> SorgenfreyCandidate:
    """Indicator functions of the index sets (discontinuous at open left ends)."""
    return SorgenfreyCandidate(
        half_open_value=lambda x, t: Fraction(1) if x <= t < x + 1 else Fraction(0),
        open_value=lambda a, b, t: Fraction(1) if a < t < b else Fraction(0),
        name="characteristic",
    )


def right_gap_candidate() -> SorgenfreyCandidate:
    """Capped distance to the complement on the right (continuous upward)."""
    return SorgenfreyCandidate(
        half_open_value=lambda x, t: (
            min(Fraction(1), x + 1 - t) if x <= t < x + 1 else Fraction(0)
        ),
        open_value=lambda a, b, t: (
            min(Fraction(1), b - t) if a < t < b else Fraction(0)
        ),
        name="right_gap",
    )


def clopen_only_candidate() -> SorgenfreyCandidate:
    """Sound on the half-open unit intervals alone; no open-interval functions."""
    return SorgenfreyCandidate(
        half_open_value=lambda x, t: Fraction(1) if x <= t < x + 1 else Fraction(0),
        open_value=None,
        name="clopen_only",
    )


def _condition1_violation(cand: SorgenfreyCandidate, rng: random.Random) -> Optional[dict]:
    for _ in range(64):
        x = Fraction(randbelow(rng, 128) - 64, 32)
        inside = [x, x + Fraction(1, 2), x + 1 - Fraction(1, 1024)]
        outside = [x - Fraction(1, 64), x + 1, x + Fraction(3, 2)]
        for t in inside:
            if not lt(0, cand.half_open_value(x, t)):
                return {"set_kind": "half_open_unit", "x": x, "t": t, "expect": "positive"}
        for t in outside:
            if not eq(cand.half_open_value(x, t), 0):
                return {"set_kind": "half_open_unit", "x": x, "t": t, "expect": "zero"}
        if cand.open_value is not None:
            a, b = x - Fraction(1, 4), x + Fraction(5, 4)
            for t, expect in ((a, "zero"), (b, "zero"), (x, "positive")):
                v = cand.open_value(a, b, t)
                ok = eq(v, 0) if expect == "zero" else lt(0, v)
                if not ok:
                    return {"set_kind": "open", "a": a, "b": b, "t": t, "expect": expect}
    return None


def _condition2_violation(cand: SorgenfreyCandidate, rng: random.Random) -> Optional[dict]:
    if cand.open_value is None:
        return None
    for _ in range(64):
        x = Fraction(randbelow(rng, 64) - 32, 16)
        a = x - Fraction(1 + randbelow(rng, 15), 16)
        b = x + 1 + Fraction(randbelow(rng, 16), 16)
        for t in (x, x + Fraction(1, 2), x + Fraction(15, 16)):
            small = cand.half_open_value(x, t)
            big = cand.open_value(a, b, t)
            if lt(big, small):
                return {
                    "x": x,
                    "a": a,
                    "b": b,
                    "t": t,
                    "small": small,
                    "big": big,
                }
    return None


#: the density search descends CHAIN_BUDGET steps towards its limit, and
#: needs a chain point from at least half of them
CHAIN_BUDGET = 16


def refute_sorgenfrey_A(cand: SorgenfreyCandidate, seed: int = 0) -> RefutationResult:
    """Search for a witness that the candidate breaks one of the conditions.

    Cheap support/monotonicity violations are reported first.  Otherwise the
    density search runs on (0, 2): bucket grid points by the threshold their
    self-value clears, locate a dyadic subinterval where one bucket is dense,
    and descend to a rational x with bucket points x_k approaching it from
    the right.  The assembled chain -- open-interval values above the
    threshold arbitrarily close to x, value 0 at x -- is a continuity
    violation at a rational left endpoint.
    """
    claim = f"sorgenfrey_A_stratification[{cand.name}]"
    rng = random.Random(seed)
    stages = (("condition_1", _condition1_violation), ("condition_2", _condition2_violation))
    for stage, find in stages:
        sample = find(cand, rng)
        if sample is not None:
            return _sample_violation(cand, claim, stage, sample)
    if cand.open_value is None:
        return RefutationResult(
            claim,
            NOT_FOUND,
            detail={"reason": "no open-interval functions to run the density search on"},
        )

    # density search on (0, 2)
    for n in (2, 3, 4, 8, 16):
        threshold = Fraction(1, n)
        # dyadic subintervals of (0, 1) at scale 1/16
        for j in range(16):
            lo = Fraction(j, 16)
            hits = 0
            total = 0
            step = Fraction(1, 256)
            t = lo + step
            while t < lo + Fraction(1, 16):
                total += 1
                if lt(threshold, cand.half_open_value(t, t)):
                    hits += 1
                t += step
            if total == 0 or Fraction(hits, total) < Fraction(9, 10):
                continue
            x = lo + Fraction(1, 64)  # rational limit inside the dense window
            xs = []
            # every try lies in the window: the one try past it, x + 7/128 at
            # depth 1, comes after lo + 6/256, 10/256 and 14/256, grid points
            # of which a dense window misses at most one
            for depth in range(1, CHAIN_BUDGET + 1):
                found = None
                for off_num in (1, 3, 5, 7):
                    t_try = x + Fraction(off_num, 2 ** (6 + depth))
                    if lt(threshold, cand.half_open_value(t_try, t_try)):
                        found = t_try
                        break
                if found is None:
                    break
                if xs and found >= xs[-1]:
                    continue
                xs.append(found)
            if len(xs) < CHAIN_BUDGET // 2:
                continue
            return _assemble_sorgenfrey_bundle(cand, claim, x, xs, threshold)
    return RefutationResult(claim, NOT_FOUND, detail={"reason": "density search exhausted"})


def _sample_violation(
    cand: SorgenfreyCandidate, claim: str, stage: str, sample: dict
) -> RefutationResult:
    """A support (``condition_1``) or monotonicity (``condition_2``) failure
    at one sample.  Its assertions are the candidate's values there, which
    replay against the candidate: the half-open unit function's at (x, t)
    when the sample names x, the open interval's at (a, b, t) when it names
    a; a monotonicity sample names both."""
    t, assertions = sample["t"], []
    if "x" in sample:
        value = cand.half_open_value(sample["x"], t)
        assertions.append(_assertion("candidate_unit_value_eq", sample["x"], t, value))
    if "a" in sample:
        a, b = sample["a"], sample["b"]
        assertions.append(_assertion("candidate_value_eq", "open", a, b, t, cand.open_value(a, b, t)))
    encoded = {k: encode_scalar(v) if isinstance(v, Fraction) else v for k, v in sample.items()}
    return _refuted(claim, assertions, {"stage": stage, "sample": encoded}, cand)


def _assemble_sorgenfrey_bundle(
    cand: SorgenfreyCandidate, claim: str, x: Fraction, xs: list, threshold: Fraction
) -> RefutationResult:
    b_end = Fraction(2)
    assertions = []
    for x_k in xs:
        v_half = cand.half_open_value(x_k, x_k)
        v_open = cand.open_value(x, b_end, x_k)
        if lt(v_open, v_half):
            # monotonicity breaks on the nested pair [x_k, x_k+1) in (x, 2)
            sample = {"x": x_k, "a": x, "b": b_end, "t": x_k, "small": v_half, "big": v_open}
            return _sample_violation(cand, claim, "condition_2", sample)
        assertions.append(_assertion("candidate_value_gt", "open", x, b_end, x_k, threshold, v_open))
    if not eq(cand.open_value(x, b_end, x), 0):
        sample = {"a": x, "b": b_end, "t": x, "expect": "zero"}
        return _sample_violation(cand, claim, "condition_1", sample)
    assertions.append(_assertion("candidate_value_eq", "open", x, b_end, x, Fraction(0)))
    # the search found x_k at depth >= k, so x_k - x <= 7/2^(6+k) < 2^-(3+k)
    for k, x_k in enumerate(xs, 1):
        near = HalfOpen(x, x + Fraction(1, 2 ** (3 + k)))
        assertions.append(_assertion("member", near, SorgenfreyPoint(x_k), True))
    detail = {
        "stage": "continuity_chain",
        "limit": encode_point(SorgenfreyPoint(x)),
        "threshold": encode_scalar(threshold),
        "note": "values stay above the threshold on a right-approaching "
        "rational sequence whose limit value is 0",
    }
    return _refuted(claim, assertions, detail, cand)


# ---------------------------------------------------------------------------
# double arrow chain violation


def doublearrow_not_kappa(x_seq: ParamValue, p: Fraction, q: Fraction) -> RefutationResult:
    """The clopen chain [(x_k,1),(1/5,0)] against the chain-closure condition.

    Requires 0 <= x_k <= x <= 1/10 (x the limit of the sequence) and
    p < q < 1/5 - x.  A strictly increasing approach yields the witness
    (x, 0): it lies in every element (all of which equal their own closures
    and their own q-superlevels, as q < 1/5 - x < 1/5 - x_k), yet the chain
    interior [(x,1),(1/5,0)] excludes it.
    """
    claim = "double_arrow_chain_closure"
    x = x_seq.limit()
    b = Fraction(1, 5)
    if not (0 <= x <= Fraction(1, 10)):
        raise ValueError("the limit must lie in [0, 1/10]")
    if not (p < q):
        raise ValueError("need p < q")
    if not (q < b - x):
        raise ValueError("need q < 1/5 - x")
    # x_{k+1} - x_k has the sign of -(c1 + c2 u_k): negative rates at both
    # ends of u_k's range make every step a strict rise
    at_first, at_limit = x_seq.end_rates()
    if not (lt(at_first, 0) and le(at_limit, 0)):
        return RefutationResult(
            claim,
            NOT_FOUND,
            detail={"reason": "degenerate chain: no strictly increasing approach"},
        )
    comp = ParametricBasicSet(
        "clopen_interval", {"a": x_seq, "b": ParamValue(b)}
    )
    chain = DecreasingChain(Space.DOUBLE_ARROW, (comp,))
    witness = DoubleArrowPoint(x, 0)
    assertions = [
        _assertion("chain_element_contains", chain, witness),
        _assertion("chain_interior_excludes", chain, witness),
    ]
    detail = {
        "witness": encode_point(witness),
        "p": encode_scalar(p),
        "q": encode_scalar(q),
        "interior": [encode_basic_set(c) for c in chain.interior.components],
    }
    return _refuted(claim, assertions, detail)


def doublearrow_not_kappa_default() -> RefutationResult:
    x_seq = double_arrow_pinch_chain().components[0].params["a"]
    return doublearrow_not_kappa(x_seq, Fraction(1, 20), Fraction(1, 15))


# ---------------------------------------------------------------------------
# Niemytzki plane is not stratifiable over all open sets


#: ``niemytzki_not_stratifiable``'s threshold 1/STRAT_N, below the pinned
#: value 1, and the height 1/STRAT_M that its sequence's points stay below
STRAT_N, STRAT_M = 2, 10


def niemytzki_not_stratifiable(a, K: int = 50) -> RefutationResult:
    """Pin value 1 along a sequence converging to (a, 0).

    The tangent unit discs centered over x_k = a + 1/(3k) score exactly 1 at
    (x_k, 1/(6k)) (the point sits on the disc's vertical axis).  Any family
    over all open sets satisfying support and monotonicity conditions is
    then >= 1 > 1/STRAT_N on the punctured plane along a sequence that
    converges to (a, 0), where the support condition forces value 0:
    continuity fails.
    """
    claim = "niemytzki_stratifiable"
    if K <= 0:
        return RefutationResult(claim, NOT_FOUND, detail={"reason": "no sequence requested"})
    threshold = Fraction(1, STRAT_N)
    exact = isinstance(a, (int, Fraction, str))
    if exact:
        a_val = Fraction(a)
        num = lambda v: Fraction(v)
    else:
        a_val = float(a)
        num = float
    zero = num(0)
    limit = NiemytzkiPoint(a_val, zero)
    k0 = STRAT_M // 6 + 1
    assertions = []
    for k in range(k0, k0 + K):
        xk = a_val + num(Fraction(1, 3 * k))
        ck = num(Fraction(1, 6 * k))
        disc, pk = TangentDisc(xk, num(1)), NiemytzkiPoint(xk, ck)
        assert ck < Fraction(1, STRAT_M)
        assertions.append(_assertion("value_eq", LABEL_NIEMYTZKI, disc, pk, num(1)))
        # the tangent disc misses (a, 0): its only axis point is (x_k, 0)
        assertions.append(_assertion("member", disc, limit, False))
    # (a + 1/(3k), 1/(6k)) lies in B*(a, 1/k) for every k >= k0: t = 1/k, n = k - k0 + 1
    over_k = lambda const, c: ParamValue(const, num(c), shift=k0 - 1)
    cert = ConvergenceCertificate(
        limit,
        (over_k(a_val, Fraction(1, 3)), over_k(zero, Fraction(1, 6))),
        over_k(zero, 1),
    )
    assertions.append(_assertion("certificate", cert))
    detail = {
        "threshold": encode_scalar(threshold),
        "pinned_value": encode_scalar(num(1)),
        "limit": encode_point(limit),
        "note": "monotonicity pins the punctured-plane value above the "
        "threshold along the certified sequence; support forces 0 at the limit",
    }
    return _refuted(claim, assertions, detail)


# ---------------------------------------------------------------------------
# the axis-normalized family does not extend


def g_family_not_extendable(n: int = 1) -> RefutationResult:
    """Exact-rational witness that the normalized family cannot extend.

    With r = 1/(3n): the probe point (r, r/2) lies in both B*(0, 1/n) and
    B*(r, r); the latter sits inside the open half plane x > 0; the family
    value there is (r+1)/2 = 1/2 + 1/(6n) > 1/2; and the probe points
    converge to (0,0), where any extension must vanish.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    claim = "g_family_extends_to_half_plane"
    r = Fraction(1, 3 * n)
    probe = NiemytzkiPoint(r, r / 2)
    outer = TangentDisc(Fraction(0), Fraction(1, n))
    inner = TangentDisc(r, r)
    assert probe.y < inner.r  # the below-diameter case is the one that fires
    g_val = Fraction(1, 2) + Fraction(1, 6 * n)
    # the probes (1/(3j), 1/(6j)) lie in B*(0, 1/j) for every j >= n: t = 1/j
    over_j = lambda c: ParamValue(0, c, shift=n - 1)
    cert = ConvergenceCertificate(
        NiemytzkiPoint(Fraction(0), Fraction(0)),
        (over_j(Fraction(1, 3)), over_j(Fraction(1, 6))),
        over_j(1),
    )
    assertions = [
        _assertion("member", outer, probe, True),  # squared form: 29/36 < 1 (scaled by 1/n^2)
        _assertion("member", inner, probe, True),  # squared form: 1/36 < 4/36 (scaled)
        _assertion("halfplane_subset", inner),
        _assertion("value_eq", LABEL_G, inner, probe, g_val),
        _assertion("value_gt", LABEL_G, inner, probe, Fraction(1, 2)),
        _assertion("certificate", cert),
    ]
    detail = {
        "n": n,
        "probe": encode_point(probe),
        "value": encode_scalar(g_val),
        "note": "a half-plane extension would exceed 1/2 arbitrarily close "
        "to (0,0) while vanishing there",
    }
    return _refuted(claim, assertions, detail)
