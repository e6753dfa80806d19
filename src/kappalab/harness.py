"""Seeded property checks for the family axioms, with replayable reports.

The four family conditions and the four approximation conditions:

1. support: U = {p : f_U(p) > 0}, with every value in the codomain [0, 1];
2. monotonicity: U <= V implies f_U <= f_V pointwise;
3. continuity along certified convergent sequences;
4. chain infimum: f at the interior of a decreasing chain's intersection
   equals the infimum of the chain values;
(a) every index set is the union of its q-indexed family;
(b) the q-indexed family is monotone in the index set;
(c) closures nest strictly across grid indices: cl(U_q) <= U_p for p < q;
(d) chain closures stay inside the chain-interior's family:
    the intersection of cl(U^n_q) lies in (int of the intersection)_p.

and the point-vs-set and set-vs-set separations.  Every check consumes a
``SamplePlan`` (seeded, fully deterministic); each condition and separation
is one case class, and one runner builds every ``CheckReport``.  A failing
report carries concrete witnesses that ``replay_witness`` re-evaluates
standalone with the check's own predicate.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .approximations import Approximation, QGrid, realize_sublevel, stratification_to_approximation
from .basesets import (
    BasicOpenSet,
    ClopenInterval,
    ExtremeSingleton,
    HalfOpen,
    InteriorDisc,
    TangentDisc,
    basic_neighborhood,
)
from .convergence import ConvergenceCertificate, verify_convergence
from .families import (
    CLOSED_FORM,
    FAMILIES,
    LABEL_G,
    LABEL_NIEMYTZKI,
    LABEL_USER,
    FamilyMember,
    Stratification,
    tabulated_evaluator,
    user_supplied,
)
from .numerics import Scalar, as_float, eq, is_zero, le, lt
from .rosets import (
    DecreasingChain,
    ParametricBasicSet,
    RegularOpenSet,
    lane_keeps,
    member,
    validate_regular_open,
)
from .sampling import (
    SEQUENCE_LENGTH,
    TAIL_START,
    rand_dyadic,
    randbelow,
    sample_nested_pair,
    sample_niemytzki_set_separated,
    sample_point,
    sample_point_near_set,
    sample_set,
)
from .serialize import (
    decode_chain,
    decode_family,
    decode_point,
    decode_scalar,
    decode_set,
    dumps_canonical,
    encode_chain,
    encode_point,
    encode_roset,
    encode_scalar,
)
from .spaces import (
    DoubleArrowPoint,
    NiemytzkiPoint,
    Point,
    SorgenfreyPoint,
    Space,
    sq_dist,
)

TOL_CONT = 1e-3
TOL_INF = 1e-3


@dataclass(frozen=True)
class SamplePlan:
    """Deterministic sampling budget; the seed pins every stream."""

    seed: int = 0
    n_points: int = 400
    n_set_pairs: int = 120
    n_sequences: int = 24
    grid_m: int = 10

    def __post_init__(self):
        # a budget of 0 would pass every check on no samples at all
        for name in ("n_points", "n_set_pairs", "n_sequences", "grid_m"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")

    def rng(self, salt: str) -> random.Random:
        return random.Random(f"{self.seed}:{salt}")

    @property
    def points_per_pair(self) -> int:
        """The points condition (2) samples for each pair of sets."""
        return max(1, self.n_points // self.n_set_pairs)

    def payload(self) -> dict:
        return asdict(self)


@dataclass
class CheckReport:
    check_id: str
    family: str
    space: str
    passed: bool
    counts: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    def payload(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return dumps_canonical(self.payload())


def _run(
    check_id: str, conds: Sequence, family: str, space: Space, tolerances: dict, cases: Iterable
) -> CheckReport:
    """Count the cases of each kind in ``conds`` (case classes below) and
    keep the witnesses of the first 10 violations, where the report stops;
    a kind's ``decode`` turns a witness back into a case for replay."""
    counts = dict.fromkeys((cond.count_key for cond in conds), 0)
    witnesses = []
    for case in cases:
        counts[case.count_key] += 1
        if case.violates():
            witnesses.append(case.witness())
            if len(witnesses) >= 10:
                break
    counts["violations"] = len(witnesses)
    return CheckReport(check_id, family, space.value, not witnesses, counts, tolerances, witnesses)


def _replay_family(
    witness: dict, space: Space, stored: Optional[Callable[[], dict]] = None
) -> Stratification:
    """The witness's named family.  A user-supplied family is rebuilt as a
    tabulated family answering with the values the witness stores, given by
    ``stored()`` as a ``tabulated_evaluator`` table."""
    label = witness["family"]
    if label == LABEL_USER and stored is not None:
        return user_supplied(space, tabulated_evaluator(stored()))
    return decode_family(label)


def _kappa_family(space: Space) -> Stratification:
    """The space's kappa family, its first registered one: (a)-(d) replay
    with it, reading grid values from the witness."""
    return next(S for S in (make() for make in FAMILIES.values()) if S.space is space)


def _kappa_approximation(space: Space) -> Approximation:
    """The approximation of the space's kappa family: (a)-(c) replay with it."""
    return stratification_to_approximation(_kappa_family(space), QGrid())


# ---------------------------------------------------------------------------
# family-aware sampling

_SIXTEENTH, _HALF = Fraction(1, 16), Fraction(1, 2)


def sample_family_set(S: Stratification, rng: random.Random) -> RegularOpenSet:
    if S.label == LABEL_G:
        a = rand_dyadic(rng, -3, 3)
        r = rand_dyadic(rng, _SIXTEENTH, 1)
        return validate_regular_open(S.space, [TangentDisc(a, r)])
    if S.space is Space.NIEMYTZKI:
        roll = rng.random()
        if roll < 0.45:
            return sample_set(S.space, rng, max_components=1)
        if roll < 0.999:
            return sample_niemytzki_set_separated(rng)
        return sample_set(S.space, rng)  # occasionally a free-form union
    return sample_set(S.space, rng)


def sample_family_pair(
    S: Stratification, rng: random.Random
) -> tuple[RegularOpenSet, RegularOpenSet]:
    if S.label == LABEL_G:
        a = rand_dyadic(rng, -3, 3)
        r_small = rand_dyadic(rng, _SIXTEENTH, _HALF)
        r_big = r_small + rand_dyadic(rng, 0, _HALF)
        small, big = TangentDisc(a, r_small), TangentDisc(a, r_big)
        return validate_regular_open(S.space, [small]), validate_regular_open(S.space, [big])
    if S.space is Space.NIEMYTZKI:
        V = sample_family_set(S, rng)
        if len(V.components) > 1 and rng.random() < 0.5:
            keep = [c for c in V.components if rng.random() < 0.7] or [V.components[0]]
            return validate_regular_open(S.space, keep), V
    return sample_nested_pair(S.space, rng)


# ---------------------------------------------------------------------------
# conditions (1) and (2)


class _Support(NamedTuple):
    """Condition (1) at a point p of an index set U, with f_U bound once per set."""

    kind = "condition_1"
    count_key = "samples"
    S: Stratification
    U: RegularOpenSet
    f_U: FamilyMember
    p: Point

    @classmethod
    def cases(cls, S: Stratification, plan: SamplePlan, sets: Optional[Sequence[RegularOpenSet]]):
        rng = plan.rng("condition_1")
        if sets is None:
            # a pool amortizes set construction; points still vary per sample
            pool_size = max(1, min(plan.n_points, plan.n_points // 12 + 1))
            sets = [sample_family_set(S, rng) for _ in range(pool_size)]
        # only the first n_points sets are ever visited
        pool = [(U, S.at(U)) for U in sets[: plan.n_points]]
        for i in range(plan.n_points):
            U, f_U = pool[i % len(pool)]
            yield cls(S, U, f_U, sample_point_near_set(U, rng))

    def violates(self) -> bool:
        """p in U iff 0 < f_U(p) fails, or f_U(p) leaves [0, 1]: a positive
        value above 1, another below 0 (``le``: exact, EPS when it is a float)."""
        value = self.f_U(self.p)
        positive = lt(0, value)
        return member(self.U, self.p) != positive or not (le(value, 1) if positive else le(0, value))

    def witness(self) -> dict:
        value = self.f_U(self.p)
        return {
            "kind": self.kind,
            "family": self.S.label,
            "set": encode_roset(self.U),
            "point": encode_point(self.p),
            "value": encode_scalar(value),
            "member": member(self.U, self.p),
            "in_codomain": le(0, value) and le(value, 1),
        }

    @classmethod
    def decode(cls, w: dict) -> _Support:
        U, p = decode_set(w["set"]), decode_point(w["point"])
        S = _replay_family(w, U.space, lambda: {U: [(p, decode_scalar(w["value"]))]})
        return cls(S, U, S.at(U), p)


def check_condition_1(
    S: Stratification, plan: SamplePlan, sets: Optional[Sequence[RegularOpenSet]] = None
) -> CheckReport:
    """Support identity: membership iff strictly positive value, every value in [0, 1]."""
    return _run(_Support.kind, (_Support,), S.label, S.space, {}, _Support.cases(S, plan, sets))


class _Monotone(NamedTuple):
    """Condition (2) at a point p for index sets U inside V, with f_U and f_V
    bound once per pair."""

    kind = "condition_2"
    count_key = "samples"
    S: Stratification
    U: RegularOpenSet
    V: RegularOpenSet
    f_U: FamilyMember
    f_V: FamilyMember
    p: Point

    @classmethod
    def cases(cls, S: Stratification, plan: SamplePlan):
        rng = plan.rng("condition_2")
        for _ in range(plan.n_set_pairs):
            U, V = sample_family_pair(S, rng)
            f_U, f_V = S.at(U), S.at(V)
            for _ in range(plan.points_per_pair):
                yield cls(S, U, V, f_U, f_V, sample_point_near_set(V, rng))

    def violates(self) -> bool:
        """f_U(p) <= f_V(p) fails (``le``: exact, EPS when a value is a float)."""
        return not le(self.f_U(self.p), self.f_V(self.p))

    def witness(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.S.label,
            "small_set": encode_roset(self.U),
            "big_set": encode_roset(self.V),
            "point": encode_point(self.p),
            "small_value": encode_scalar(self.f_U(self.p)),
            "big_value": encode_scalar(self.f_V(self.p)),
        }

    @classmethod
    def decode(cls, w: dict) -> _Monotone:
        U, V, p = decode_set(w["small_set"]), decode_set(w["big_set"]), decode_point(w["point"])
        stored = lambda: {
            U: [(p, decode_scalar(w["small_value"]))],
            V: [(p, decode_scalar(w["big_value"]))],
        }
        S = _replay_family(w, U.space, stored)
        return cls(S, U, V, S.at(U), S.at(V), p)


def check_condition_2(S: Stratification, plan: SamplePlan) -> CheckReport:
    """Monotonicity in the index set on constructed nested pairs."""
    return _run(_Monotone.kind, (_Monotone,), S.label, S.space, {}, _Monotone.cases(S, plan))


# ---------------------------------------------------------------------------
# condition (3): continuity along certificates


class _Continuity(NamedTuple):
    """Condition (3) for index set U along the tail of a sequence to limit,
    with f_U bound once per case."""

    kind = "condition_3"
    count_key = "sequences"
    S: Stratification
    U: RegularOpenSet
    f_U: FamilyMember
    limit: Point
    tail: Sequence[Point]
    tol: float

    @classmethod
    def cases(cls, S: Stratification, pairs, tol: float):
        for U, cert in pairs:
            if not verify_convergence(cert):
                raise ValueError("certificate failed verification; refuse to test continuity")
            tail = tuple(cert.point(n) for n in range(TAIL_START, SEQUENCE_LENGTH + 1))
            yield cls(S, U, S.at(U), cert.limit, tail, tol)

    def deviations(self) -> list[float]:
        f_lim = as_float(self.f_U(self.limit))
        return [abs(as_float(self.f_U(s)) - f_lim) for s in self.tail]

    def violates(self) -> bool:
        return max(self.deviations(), default=0.0) > self.tol

    def witness(self) -> dict:
        devs = self.deviations()
        deviation = max(devs)
        worst = self.tail[devs.index(deviation)]
        return {
            "kind": self.kind,
            "family": self.S.label,
            "set": encode_roset(self.U),
            "limit": encode_point(self.limit),
            "worst_point": encode_point(worst),
            "limit_value": as_float(self.f_U(self.limit)),
            "worst_value": as_float(self.f_U(worst)),
            "deviation": deviation,
            "tail_start": TAIL_START,
        }

    @classmethod
    def decode(cls, w: dict) -> _Continuity:
        U, limit, worst = decode_set(w["set"]), decode_point(w["limit"]), decode_point(w["worst_point"])
        stored = lambda: {U: [(limit, w["limit_value"]), (worst, w["worst_value"])]}
        S = _replay_family(w, U.space, stored)
        return cls(S, U, S.at(U), limit, (worst,), TOL_CONT)


def check_condition_3(
    S: Stratification,
    pairs: Sequence[tuple[RegularOpenSet, ConvergenceCertificate]],
    tol: float = TOL_CONT,
) -> CheckReport:
    """Tail deviation of the family values along certified sequences, at the
    points n = TAIL_START..SEQUENCE_LENGTH of each verified certificate."""
    tolerances = {"tol_cont": tol, "tail_start": TAIL_START}
    cases = _Continuity.cases(S, pairs, tol)
    return _run(_Continuity.kind, (_Continuity,), S.label, S.space, tolerances, cases)


# ---------------------------------------------------------------------------
# condition (4): chain infimum


#: elements 1..INF_SCAN whose values stand in for the chain infimum of a
#: family with no closed-form chain limit
INF_SCAN = 64


class BoundChain(NamedTuple):
    """A chain with its family bound once (``bind_chain``): f_W on the chain
    interior W and, for a family with no closed-form chain limit, f_{U_n} on
    the elements n = 1..INF_SCAN (``scan``; empty for the others)."""

    S: Stratification
    chain: DecreasingChain
    f_W: FamilyMember
    scan: tuple[FamilyMember, ...]


def _bind_elements(S: Stratification, chain: DecreasingChain) -> tuple[FamilyMember, ...]:
    return tuple(S.at(chain.at(n)) for n in range(1, INF_SCAN + 1))


def bind_chain(S: Stratification, chain: DecreasingChain) -> BoundChain:
    """S bound on every set at which conditions 4 and (d) evaluate it on the
    chain: the interior and, with no closed-form chain limit, elements
    1..INF_SCAN.  ``UnindexedSetError`` when S does not index one of them."""
    f_W = S.at(chain.interior)
    return BoundChain(S, chain, f_W, () if S.label in CLOSED_FORM else _bind_elements(S, chain))


def chain_limit_value(bound: BoundChain, p: Point):
    """inf over the whole (infinite) chain of a closed-form family's values at
    p; None for the other families.

    It is the family's own value on the chain interior W (docs/derivations.md,
    "Chain limits"), except at a double arrow endpoint that a lane keeps and
    W leaves out: there every element's value is the one at the endpoint's twin.
    """
    chain = bound.chain
    if bound.S.label not in CLOSED_FORM:
        return None
    if chain.space is Space.DOUBLE_ARROW and not member(chain.interior, p):
        twin = DoubleArrowPoint(p.t, 1 - p.side)
        if not twin.extreme and any(lane_keeps(comp, p) for comp in chain.components):
            p = twin
    return bound.f_W(p)


def _chain_inf_estimate(bound: BoundChain, p: Point) -> tuple[float, float]:
    """(infimum estimate, tolerance) of the chain values at p.

    Families with a closed-form chain limit compare against it at ``TOL_INF``;
    the others fall back to the smallest of the first ``INF_SCAN`` elements,
    with the tolerance widened by the last step's slope over that many steps.
    """
    exact_inf = chain_limit_value(bound, p)
    if exact_inf is not None:
        return as_float(exact_inf), TOL_INF
    evaluated = [as_float(f(p)) for f in bound.scan]
    slope = max(0.0, evaluated[-2] - evaluated[-1])
    return min(evaluated), TOL_INF + INF_SCAN * slope


class _ChainInf(NamedTuple):
    """Condition (4) at a point p of a bound chain."""

    kind = "condition_4"
    count_key = "points"
    bound: BoundChain
    p: Point

    def violates(self) -> bool:
        inf_est, tol_here = _chain_inf_estimate(self.bound, self.p)
        return abs(as_float(self.bound.f_W(self.p)) - inf_est) > tol_here

    def witness(self) -> dict:
        S, chain, f_W, scan = self.bound
        f_w = as_float(f_W(self.p))
        inf_est, _tol_here = _chain_inf_estimate(self.bound, self.p)
        return {
            "kind": self.kind,
            "family": S.label,
            "chain": encode_chain(chain),
            "point": encode_point(self.p),
            "interior_value": f_w,
            "inf_estimate": inf_est,
            # a closed-form family binds the elements for this field alone
            "evaluated_min": min(as_float(f(self.p)) for f in scan or _bind_elements(S, chain)),
            "deviation": abs(f_w - inf_est),
        }

    @classmethod
    def decode(cls, w: dict) -> _ChainInf:
        chain = decode_chain(w["chain"])
        return cls(bind_chain(_replay_family(w, chain.space), chain), decode_point(w["point"]))


def check_condition_4(bound: BoundChain, points: Sequence[Point]) -> CheckReport:
    """f at the chain interior against the chain's value infimum."""
    S, cases = bound.S, (_ChainInf(bound, p) for p in points)
    return _run(_ChainInf.kind, (_ChainInf,), S.label, S.space, {"tol_inf": TOL_INF}, cases)


# ---------------------------------------------------------------------------
# conditions (a), (b), (c)


#: ``sampled_closure_member`` probes the canonical neighborhoods 1..CLOSURE_DEPTH
#: of a point at CLOSURE_PER_LEVEL points each
CLOSURE_DEPTH, CLOSURE_PER_LEVEL = 8, 24


def sampled_closure_member(pred: Callable[[Point], bool], p: Point) -> bool:
    """Closure membership for black-box predicates: every canonical shrinking
    neighborhood of p must contain a predicate point."""
    for k in range(1, CLOSURE_DEPTH + 1):
        hood = basic_neighborhood(p, k)
        if not any(pred(q) for q in _points_inside(hood, CLOSURE_PER_LEVEL)):
            return False
    return True


def _points_inside(hood: BasicOpenSet, per_level: int) -> Iterable[Point]:
    if isinstance(hood, HalfOpen):
        width = hood.b - hood.a
        yield SorgenfreyPoint(hood.a)
        for j in range(1, per_level):
            yield SorgenfreyPoint(hood.a + width * Fraction(j, per_level + 1))
    elif isinstance(hood, ClopenInterval):
        yield DoubleArrowPoint(hood.a, 1)
        yield DoubleArrowPoint(hood.b, 0)
        width = hood.b - hood.a
        for j in range(1, per_level - 1):
            t = hood.a + width * Fraction(j, per_level)
            yield DoubleArrowPoint(t, j % 2)
    elif isinstance(hood, ExtremeSingleton):
        yield hood.point
    elif isinstance(hood, TangentDisc):
        yield NiemytzkiPoint(hood.a, hood.a * 0)
        for j in range(1, per_level):
            yield NiemytzkiPoint(hood.a, 2 * hood.r * Fraction(j, per_level + 1))
    elif isinstance(hood, InteriorDisc):
        yield NiemytzkiPoint(hood.cx, hood.cy)
        for j in range(1, per_level):
            frac = Fraction(j, per_level + 1)
            yield NiemytzkiPoint(hood.cx + hood.r * frac / 2, hood.cy)
            yield NiemytzkiPoint(hood.cx, hood.cy + hood.r * frac / 2)
    else:
        raise TypeError(f"unknown neighborhood {hood!r}")


class _ApproxUnion(NamedTuple):
    """Condition (a) at a point p of an index set U: p lies in U exactly when
    it lies in U_q at the deep probe ``qs[0]``, and no grid value ``qs[1:]``
    puts p in U_q while the probe leaves it out."""

    kind = "condition_a"
    count_key = "a_samples"
    A: Approximation
    U: RegularOpenSet
    p: Point
    qs: tuple[Fraction, ...]

    def in_q_sets(self) -> list[bool]:
        return [self.A.contains(self.U, q, self.p) for q in self.qs]

    def violates(self) -> bool:
        probed, *in_grid = self.in_q_sets()
        return member(self.U, self.p) != probed or (not probed and any(in_grid))

    def witness(self) -> dict:
        return {
            "kind": self.kind,
            "family": "approximation",
            "set": encode_roset(self.U),
            "point": encode_point(self.p),
            "member": member(self.U, self.p),
            "qs": [encode_scalar(q) for q in self.qs],
            "in_q_sets": self.in_q_sets(),
        }

    @classmethod
    def decode(cls, w: dict) -> _ApproxUnion:
        U, qs = decode_set(w["set"]), tuple(decode_scalar(q) for q in w["qs"])
        return cls(_kappa_approximation(U.space), U, decode_point(w["point"]), qs)


class _ApproxMonotone(NamedTuple):
    """Condition (b) at a point p and grid value q for index sets U inside V."""

    kind = "condition_b"
    count_key = "b_samples"
    A: Approximation
    U: RegularOpenSet
    V: RegularOpenSet
    p: Point
    q: Fraction

    def violates(self) -> bool:
        return self.A.contains(self.U, self.q, self.p) and not self.A.contains(self.V, self.q, self.p)

    def witness(self) -> dict:
        return {
            "kind": self.kind,
            "family": "approximation",
            "small_set": encode_roset(self.U),
            "big_set": encode_roset(self.V),
            "point": encode_point(self.p),
            "q": encode_scalar(self.q),
            "in_small": self.A.contains(self.U, self.q, self.p),
            "in_big": self.A.contains(self.V, self.q, self.p),
        }

    @classmethod
    def decode(cls, w: dict) -> _ApproxMonotone:
        U, V = decode_set(w["small_set"]), decode_set(w["big_set"])
        return cls(_kappa_approximation(U.space), U, V, decode_point(w["point"]), decode_scalar(w["q"]))


class _ApproxClosure(NamedTuple):
    """Condition (c) at a point x of an index set U for grid values p < q:
    x in cl(U_q) implies x in U_p."""

    kind = "condition_c"
    count_key = "c_samples"
    A: Approximation
    U: RegularOpenSet
    p: Fraction
    q: Fraction
    x: Point

    def in_closure(self) -> bool:
        """In closed form where the approximation realizes U_q, else sampled."""
        realized = self.A.realize(self.U, self.q)
        if realized is not None:
            return realized.closure_member(self.x)
        return sampled_closure_member(lambda z: self.A.contains(self.U, self.q, z), self.x)

    def violates(self) -> bool:
        return self.in_closure() and not self.A.contains(self.U, self.p, self.x)

    def witness(self) -> dict:
        return {
            "kind": self.kind,
            "family": "approximation",
            "set": encode_roset(self.U),
            "point": encode_point(self.x),
            "p": encode_scalar(self.p),
            "q": encode_scalar(self.q),
            "in_closure_of_q": self.in_closure(),
            "in_p_set": self.A.contains(self.U, self.p, self.x),
        }

    @classmethod
    def decode(cls, w: dict) -> _ApproxClosure:
        U, p, q = decode_set(w["set"]), decode_scalar(w["p"]), decode_scalar(w["q"])
        return cls(_kappa_approximation(U.space), U, p, q, decode_point(w["point"]))


def _abc_cases(A: Approximation, sets, nested_pairs, plan: SamplePlan):
    """The cases of (a), (b) and (c), in that order, from one seeded stream."""
    rng = plan.rng("conditions_abc")
    grid, n = QGrid(plan.grid_m), 2**plan.grid_m - 1  # n grid values
    probes = (Fraction(1, 2 ** (plan.grid_m + 20)), grid.value(0), grid.value(n // 2), grid.value(n - 1))
    for U in sets:
        for _ in range(max(1, plan.n_points // max(1, len(sets)))):
            yield _ApproxUnion(A, U, sample_point_near_set(U, rng), probes)
    for U, V in nested_pairs:
        for _ in range(4):
            p = sample_point_near_set(V, rng)
            yield _ApproxMonotone(A, U, V, p, grid.value(randbelow(rng, n)))
    for U in sets:
        for k in (n // 8, n // 2, (-n // 8) % n):  # the last is values[-n // 8]
            q, p_val = grid.value(k), grid.value(max(0, k - max(1, n // 16)))
            if p_val < q:
                for _ in range(6):
                    yield _ApproxClosure(A, U, p_val, q, sample_point_near_set(U, rng))


def check_conditions_abc(
    A: Approximation,
    sets: Sequence[RegularOpenSet],
    plan: SamplePlan,
    nested_pairs: Optional[Sequence[tuple[RegularOpenSet, RegularOpenSet]]] = None,
) -> CheckReport:
    """Sampled verification of the three approximation conditions."""
    kinds = (_ApproxUnion, _ApproxMonotone, _ApproxClosure)
    cases = _abc_cases(A, sets, nested_pairs or (), plan)
    return _run("conditions_abc", kinds, "approximation", A.space, {"grid_m": plan.grid_m}, cases)


# ---------------------------------------------------------------------------
# condition (d)


def _chain_sublevel_closure_all(comp: ParametricBasicSet, q: Fraction, x: Point) -> bool:
    """x in the intersection over all n of cl((U^n)_q), decided exactly.

    The closures decrease along the chain, and their intersection is the
    closure of the limit element's superlevel set, except at the thresholds
    where a strict parameter approach keeps a boundary point inside every
    element (docs/derivations.md, "Chain limits").
    """
    if comp.kind == "half_open":
        a, b = comp.params["a"].limit(), comp.params["b"]
        top = b.limit() - q
        return x.x >= a and (x.x < top or (x.x == top and b.strict_side() > 0))
    if comp.kind == "clopen_interval":
        a, b = comp.params["a"], comp.params["b"]
        length = comp.limit_size()
        strict = a.strict_side() < 0 or b.strict_side() > 0
        return lane_keeps(comp, x) and (
            x.extreme or q < length or (q == length and strict)
        )
    el, r = comp.limit_element(), comp.params["r"]
    if el is not None and q < el.r:
        U = validate_regular_open(Space.NIEMYTZKI, [el])
        return realize_sublevel(LABEL_NIEMYTZKI, U, q).closure_member(x)
    if q == r.limit() and r.strict_side() > 0:
        # the superlevel sets pinch onto the segment from a tangent disc's
        # tangency point up to its centre, or onto an interior disc's centre
        lim = comp.limit_values()
        if comp.kind == "tangent_disc":
            return eq(x.x, lim["a"]) and le(x.y, r.limit())
        return eq(sq_dist(x, NiemytzkiPoint(lim["cx"], lim["cy"])), 0)
    return False


class _ChainClosure(NamedTuple):
    """Condition (d) at a point x for grid values p < q on a bound chain: x in
    every cl(U^n_q) implies x in W_p = {f_W > p}, W the chain interior."""

    kind = "condition_d"
    count_key = "samples"
    bound: BoundChain
    p: Fraction
    q: Fraction
    x: Point

    @classmethod
    def cases(cls, bound: BoundChain, grid_pairs, points):
        for p_val, q_val in grid_pairs:
            if not p_val < q_val:
                raise ValueError("grid pairs must satisfy p < q")
            for x in points:
                yield cls(bound, p_val, q_val, x)

    def violates(self) -> bool:
        in_all_closures = any(
            _chain_sublevel_closure_all(comp, self.q, self.x) for comp in self.bound.chain.components
        )
        return in_all_closures and not lt(self.p, self.bound.f_W(self.x))

    def witness(self) -> dict:
        return {
            "kind": self.kind,
            "chain": encode_chain(self.bound.chain),
            "point": encode_point(self.x),
            "p": encode_scalar(self.p),
            "q": encode_scalar(self.q),
        }

    @classmethod
    def decode(cls, w: dict) -> _ChainClosure:
        chain = decode_chain(w["chain"])
        bound = bind_chain(_kappa_family(chain.space), chain)
        return cls(bound, decode_scalar(w["p"]), decode_scalar(w["q"]), decode_point(w["point"]))


#: index divisors (i, j) of the grid pairs (values[size // i], values[size // j])
#: that a scenario's condition (d) entry and ``bridge_4_iff_d`` check
D_PAIRS = ((20, 12), (3, 2))
BRIDGE_PAIRS = ((16, 12), (20, 15), (3, 2))


def grid_pairs(grid_m: int, divisors: Sequence[tuple[int, int]]) -> list[tuple[Fraction, Fraction]]:
    """The pairs p < q among the grid values at indices size // i and size // j;
    ``ValueError`` when there is none, as condition (d) would run on no samples."""
    grid, n = QGrid(grid_m), 2**grid_m - 1  # n grid values
    pairs = [(grid.value(n // i), grid.value(n // j)) for i, j in divisors]
    pairs = [(p, q) for p, q in pairs if p < q]
    if not pairs:
        raise ValueError(f"grid_m {grid_m} leaves no grid pair p < q for condition (d)")
    return pairs


def check_condition_d(
    bound: BoundChain,
    grid_pairs: Sequence[tuple[Fraction, Fraction]],
    points: Sequence[Point],
    plan: SamplePlan,
) -> CheckReport:
    """Chain closures against the superlevel sets of the family's value on
    the chain interior."""
    cases = _ChainClosure.cases(bound, grid_pairs, points)
    tolerances = {"grid_m": plan.grid_m}
    return _run(_ChainClosure.kind, (_ChainClosure,), "approximation", bound.S.space, tolerances, cases)


def chain_check_points(chain: DecreasingChain, plan: SamplePlan) -> list[Point]:
    """Sample points for chain checks: near the chain and at its limit edges."""
    rng = plan.rng("chain_points")
    first = chain.at(1)
    pts = [sample_point_near_set(first, rng) for _ in range(12)]
    for comp in chain.components:
        lim = comp.limit_values()
        if comp.kind == "half_open":
            pts.append(SorgenfreyPoint(lim["a"]))
            pts.append(SorgenfreyPoint(lim["b"]))
            pts.append(SorgenfreyPoint((lim["a"] + lim["b"]) / 2))
        elif comp.kind == "clopen_interval":
            pts.append(DoubleArrowPoint(lim["a"], 0))
            pts.append(DoubleArrowPoint(lim["a"], 1))
            pts.append(DoubleArrowPoint(lim["b"], 0))
            pts.append(DoubleArrowPoint(lim["b"], 1))
        elif comp.kind == "tangent_disc":
            pts.append(NiemytzkiPoint(lim["a"], Fraction(0)))
            if lim["r"] > 0:
                pts.append(NiemytzkiPoint(lim["a"], lim["r"]))
        elif comp.kind == "interior_disc":
            pts.append(NiemytzkiPoint(lim["cx"], lim["cy"]))
            if lim["r"] > 0:
                pts.append(NiemytzkiPoint(lim["cx"], lim["cy"] - lim["r"] / 2))
    return pts


def bridge_4_iff_d(bound: BoundChain, plan: SamplePlan) -> tuple[CheckReport, CheckReport, bool]:
    """Verdict agreement between the chain-infimum and chain-closure checks."""
    pairs = grid_pairs(plan.grid_m, BRIDGE_PAIRS)
    points = chain_check_points(bound.chain, plan)
    report4 = check_condition_4(bound, points)
    report_d = check_condition_d(bound, pairs, points, plan)
    return report4, report_d, report4.passed == report_d.passed


# ---------------------------------------------------------------------------
# separations


@dataclass
class HausdorffWitness:
    threshold: Scalar
    upper: Callable[[Point], bool]  # contains the inside point
    lower: Callable[[Point], bool]  # contains the outside point


def hausdorff_witness(
    S: Stratification, x: Point, y: Point, U: RegularOpenSet
) -> HausdorffWitness:
    """Disjoint value-threshold neighborhoods splitting x in U from y off U."""
    f_U = S.at(U)
    fx, fy = f_U(x), f_U(y)
    if not lt(0, fx):
        raise ValueError(f"need a positive value at the inside point, got {fx}")
    if not is_zero(fy):
        raise ValueError(f"need value 0 at the outside point, got {fy}")
    t = fx / 2
    if not lt(t, fx) or not lt(fy, t):  # upper(x) and lower(y), on the values above
        raise AssertionError("threshold neighborhoods failed to split the pair")
    upper = lambda p: lt(t, f_U(p))
    lower = lambda p: lt(f_U(p), t)
    return HausdorffWitness(t, upper, lower)


@dataclass
class SeparationResult:
    low_side: Callable[[Point], bool]  # h < 1/2, contains the zero set of f
    high_side: Callable[[Point], bool]  # h > 1/2, contains the zero set of g
    f_side_count: int
    g_side_count: int


def separate_regular_closed(
    f: Callable[[Point], Scalar],
    g: Callable[[Point], Scalar],
    samples: Sequence[Point],
) -> SeparationResult:
    """Split the zero sets of f and g by thresholding h = f / (f + g).

    Each sample's side is decided on the values of f and g that decided its
    zero set, so f and g are evaluated once per sample."""
    f_side = []  # (p, f(p), g(p)) at the zero points of f
    g_side = []
    for p in samples:
        fv, gv = f(p), g(p)
        if is_zero(fv) and is_zero(gv):
            raise ValueError(f"f and g both vanish at {p!r}: zero sets not disjoint")
        if is_zero(fv):
            f_side.append((p, fv, gv))
        elif is_zero(gv):
            g_side.append((p, fv, gv))

    low = lambda p: _ratio(f(p), g(p)) < 0.5
    high = lambda p: _ratio(f(p), g(p)) > 0.5
    # the sides are strict sublevel and superlevel sets of one h: they cannot overlap
    for p, fv, gv in f_side:
        if not _ratio(fv, gv) < 0.5:
            raise AssertionError(f"zero point of f landed on the high side: {p!r}")
    for p, fv, gv in g_side:
        if not _ratio(fv, gv) > 0.5:
            raise AssertionError(f"zero point of g landed on the low side: {p!r}")
    return SeparationResult(low, high, len(f_side), len(g_side))


def _ratio(fv: Scalar, gv: Scalar) -> float:
    """h = f / (f + g) in binary64 from the values fv of f and gv of g."""
    fv, gv = as_float(fv), as_float(gv)
    return fv / (fv + gv)


def _fails(construction, *args) -> bool:
    """Whether a separation construction rejects its input (``ValueError``:
    values that contradict membership) or fails to split it."""
    try:
        construction(*args)
    except (ValueError, AssertionError):
        return True
    return False


class _HausdorffSplit(NamedTuple):
    """The point-vs-set separation of x in U from y off U."""

    kind = "hausdorff"
    count_key = "hausdorff_configs"
    S: Stratification
    U: RegularOpenSet
    x: Point
    y: Point

    def violates(self) -> bool:
        return _fails(hausdorff_witness, self.S, self.x, self.y, self.U)

    def witness(self) -> dict:
        f_U = self.S.at(self.U)
        return {
            "kind": self.kind,
            "family": self.S.label,
            "set": encode_roset(self.U),
            "x": encode_point(self.x),
            "y": encode_point(self.y),
            "x_value": encode_scalar(f_U(self.x)),
            "y_value": encode_scalar(f_U(self.y)),
        }

    @classmethod
    def decode(cls, w: dict) -> _HausdorffSplit:
        U, x, y = decode_set(w["set"]), decode_point(w["x"]), decode_point(w["y"])
        stored = lambda: {U: [(x, decode_scalar(w["x_value"])), (y, decode_scalar(w["y_value"]))]}
        return cls(_replay_family(w, U.space, stored), U, x, y)


class _RatioSplit(NamedTuple):
    """The set-vs-set separation of the zero sets of f = f_U1 and g = f_U2 by
    h = f/(f+g) at samples that lie in exactly one of the sets."""

    kind = "ratio_separation"
    count_key = "ratio_configs"
    S: Stratification
    U1: RegularOpenSet
    U2: RegularOpenSet
    samples: tuple[Point, ...]

    def violates(self) -> bool:
        # f and g bound once per set, inside the rejection test
        S = self.S
        return _fails(lambda: separate_regular_closed(S.at(self.U1), S.at(self.U2), self.samples))

    def witness(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.S.label,
            "set_f": encode_roset(self.U1),
            "set_g": encode_roset(self.U2),
            "samples": [encode_point(p) for p in self.samples],
            "f_values": [encode_scalar(f) for f in map(self.S.at(self.U1), self.samples)],
            "g_values": [encode_scalar(g) for g in map(self.S.at(self.U2), self.samples)],
        }

    @classmethod
    def decode(cls, w: dict) -> _RatioSplit:
        U1, U2 = decode_set(w["set_f"]), decode_set(w["set_g"])
        samples = tuple(decode_point(p) for p in w["samples"])
        values = lambda key: list(zip(samples, map(decode_scalar, w[key])))
        stored = lambda: {U1: values("f_values"), U2: values("g_values")}
        return cls(_replay_family(w, U1.space, stored), U1, U2, samples)


def _separation_cases(S: Stratification, plan: SamplePlan):
    """Point-vs-set configurations, then set pairs, from one seeded stream:
    up to max(4, n_points // 4) of each kind whose points qualify, within 50
    draws per configuration."""
    rng = plan.rng("separations")
    target = max(4, plan.n_points // 4)

    def hausdorff() -> Optional[_HausdorffSplit]:
        U = sample_family_set(S, rng)
        x, y = sample_point_near_set(U, rng), sample_point(S.space, rng)
        return _HausdorffSplit(S, U, x, y) if member(U, x) and not member(U, y) else None

    def ratio() -> Optional[_RatioSplit]:
        U1, U2 = sample_family_set(S, rng), sample_family_set(S, rng)
        pts1 = [sample_point_near_set(U1, rng) for _ in range(4)]
        pts2 = [sample_point_near_set(U2, rng) for _ in range(4)]
        samples = [p for p in pts1 if member(U1, p) and not member(U2, p)]
        samples += [p for p in pts2 if member(U2, p) and not member(U1, p)]
        return _RatioSplit(S, U1, U2, tuple(samples)) if samples else None

    for draw in (hausdorff, ratio):
        yield from itertools.islice(filter(None, (draw() for _ in range(50 * target))), target)


def check_separations(S: Stratification, plan: SamplePlan) -> CheckReport:
    """Sampled separation constructions: point-vs-set and set-vs-set.

    Point-vs-set: an inside point and an outside point are split by the
    half-value threshold neighborhoods.  Set-vs-set: for two index sets, the
    ratio f/(f+g) splits their zero sets across 1/2 on every sample drawn
    near them that lies in exactly one.  Values that contradict membership
    fail either construction.
    """
    cases = _separation_cases(S, plan)
    return _run("separations", (_HausdorffSplit, _RatioSplit), S.label, S.space, {}, cases)


def continuity_negative_control() -> tuple[Stratification, list]:
    """The classic discontinuous family: indicators of the Euclidean interiors.

    chi_U(x) = 1 when a < x < b for a component [a, b) of U, else 0.  On
    U = [0, 1) it is 1 along 1/n^2 -> 0 (a right approach, so the sequence
    converges) but 0 at the limit; the continuity check must fail.
    """
    from .sampling import sorgenfrey_certificate

    def chi(U, p):
        return Fraction(1) if any(c.a < p.x < c.b for c in U.components) else Fraction(0)

    S = user_supplied(Space.SORGENFREY, chi)
    U = validate_regular_open(Space.SORGENFREY, [HalfOpen(Fraction(0), Fraction(1))])
    cert = sorgenfrey_certificate(Fraction(0), Fraction(1, 4))
    return S, [(U, cert)]


# ---------------------------------------------------------------------------
# witness replay


_REPLAYABLE = {
    cond.kind: cond
    for cond in (_Support, _Monotone, _Continuity, _ChainInf)
    + (_ApproxUnion, _ApproxMonotone, _ApproxClosure, _ChainClosure, _HausdorffSplit, _RatioSplit)
}


def replay_witness(witness: dict) -> bool:
    """Re-evaluate a fail witness standalone with its check's own predicate;
    True when it still violates."""
    kind = witness["kind"]
    if kind not in _REPLAYABLE:
        raise ValueError(f"cannot replay witness kind {kind!r}")
    return _REPLAYABLE[kind].decode(witness).violates()
