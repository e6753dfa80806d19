"""Batch front door: scenario runner, refuter subcommands, CSV sampling.

Exit codes: 0 all expected verdicts matched; 2 malformed scenario/schema;
3 a check produced an unexpected verdict; 4 internal failure (a tolerance or
consistency assertion broke inside the machinery, or a process running checks
ended without sending their outcomes).

KAPPALAB_MODE=exact|float selects the numeric mode where a choice is legal:
grid sampling and the stratifiability refuter accept binary64 inputs; the
Sorgenfrey and double arrow computations are exact by construction and
ignore the variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from bisect import bisect_left
from fractions import Fraction
from functools import partial
from importlib import resources
from itertools import islice
from pathlib import Path
from typing import Callable, Sequence

from .approximations import QGrid, stratification_to_approximation
from .basesets import basic_member
from .families import LABEL_G, Stratification, UnindexedSetError, tabulated_evaluator, user_supplied
from .harness import (
    BRIDGE_PAIRS,
    D_PAIRS,
    BoundChain,
    CheckReport,
    SamplePlan,
    bind_chain,
    bridge_4_iff_d,
    check_condition_1,
    check_condition_2,
    check_condition_3,
    check_condition_4,
    check_condition_d,
    check_separations,
    chain_check_points,
    continuity_negative_control,
    grid_pairs,
)
from .numerics import as_float
from .refuters import (
    NOT_FOUND,
    REFUTED,
    RefutationResult,
    characteristic_candidate,
    clopen_only_candidate,
    doublearrow_not_kappa_default,
    g_family_not_extendable,
    niemytzki_not_stratifiable,
    refute_sorgenfrey_A,
    right_gap_candidate,
)
from .sampling import (
    double_arrow_pinch_chain,
    sample_chain,
    sample_condition3_pairs,
    sample_condition3_pairs_g,
)
from .serialize import (
    SchemaError,
    _expect_fields,
    _int_field,
    _invalid,
    decode_chain,
    decode_family,
    decode_point,
    decode_scalar,
    decode_set,
    dumps_canonical,
)
from .spaces import SorgenfreyPoint, Space

_CANDIDATES = {
    "characteristic": characteristic_candidate,
    "right_gap": right_gap_candidate,
    "clopen_only": clopen_only_candidate,
}


def _mode() -> str:
    mode = os.environ.get("KAPPALAB_MODE", "exact")
    if mode not in ("exact", "float"):
        raise SchemaError(f"KAPPALAB_MODE must be exact or float, got {mode!r}")
    return mode


def _user_family(spec: dict) -> tuple[Stratification, list]:
    """A tabulated family: per set, (point, value) samples with
    nearest-sample evaluation semantics.  Returns the family and its sets."""
    unknown = set(spec) - {"label", "space", "table"}
    if unknown:
        raise SchemaError(f"unknown family fields {sorted(unknown)}")
    try:
        space = Space(spec["space"])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"bad family space {spec.get('space')!r}") from exc
    table = {}
    for row in _list_field(spec, "table"):
        _expect_fields(row, {"set", "samples"})
        for s in _list_field(row, "samples"):
            _expect_fields(s, {"point", "value"})
        key = decode_set(row["set"])
        if any(type(getattr(c, "r", None)) is float for c in key.components):
            raise SchemaError(f"a table set is exact, got the binary64 set {key!r}")
        samples = [
            (decode_point(s["point"]), decode_scalar(s["value"])) for s in row["samples"]
        ]
        if any(obj.space is not space for obj in (key, *(p for p, _ in samples))):
            raise SchemaError(f"a table row outside the family's {space.value} space")
        if not samples:
            raise SchemaError(f"the table row of {key!r} has no samples to evaluate by")
        table[key] = samples
    if not table:
        raise SchemaError("user-supplied families need a non-empty table")
    return user_supplied(space, tabulated_evaluator(table)), list(table)


def _list_field(obj: dict, key: str) -> list:
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{key!r} is a list, got {value!r}")
    return value


def _count_field(obj: dict, key: str, default=None) -> int:
    """``obj[key]`` (or ``default``) as a JSON integer of at least 1: a count
    of 0 would run no samples and pass."""
    value = _int_field(obj, key, default)
    if value < 1:
        raise SchemaError(f"{key!r} must be at least 1, got {value}")
    return value


def _plan_from(obj: dict, seed=None, grid_m=None) -> SamplePlan:
    if not isinstance(obj, dict):
        raise SchemaError(f"a plan is an object, got {obj!r}")
    unknown = set(obj) - {"seed", "n_points", "n_set_pairs", "n_sequences", "grid_m"}
    if unknown:
        raise SchemaError(f"unknown plan fields {sorted(unknown)}")
    merged = {key: _int_field(obj, key) for key in obj}
    if seed is not None:
        merged["seed"] = seed
    if grid_m is not None:
        merged["grid_m"] = grid_m
    with _invalid("plan"):
        return SamplePlan(**merged)


def _chain_from(entry: dict, plan: SamplePlan, S: Stratification) -> list[BoundChain]:
    """The entry's chains, each bound once to S (``bind_chain``) for every
    check of the entry: a set S does not index is a schema error before any
    check runs."""
    spec = entry.get("chain", {"sampled": 1})
    if isinstance(spec, dict) and "sampled" in spec:
        extra = {k for k in spec if k != "sampled"}
        if extra:
            raise SchemaError(f"unknown chain fields {sorted(extra)}")
        rng = plan.rng(f"chains:{S.label}:0")
        chains = [sample_chain(S.space, rng) for _ in range(_count_field(spec, "sampled"))]
    elif spec == "pinch":
        chains = [double_arrow_pinch_chain()]
    elif isinstance(spec, dict):
        chains = [decode_chain(spec)]
        if any(type(getattr(c, "r", None)) is float for c in chains[0].at(1).components):
            raise SchemaError(f"a chain is exact, got the binary64 chain {spec!r}")
    else:
        raise SchemaError(f"bad chain spec {spec!r}")
    if chains[0].space is not S.space:
        raise SchemaError(f"a {chains[0].space.value} chain for the {S.space.value} family {S.label}")
    try:
        return [bind_chain(S, chain) for chain in chains]
    except UnindexedSetError as exc:
        raise SchemaError(f"the {S.label} family cannot index a set: {exc}") from exc


def _report(rep: CheckReport | RefutationResult) -> tuple[dict, bool]:
    """A report's payload, and whether its check held: the check passed, or
    the refuter found its counterexample."""
    return rep.payload(), rep.refuted if isinstance(rep, RefutationResult) else rep.passed


def _on_family(check, tables=False):
    """The build of a kind that runs ``check(S, sets, plan)`` once on its
    family: a named one or, with ``tables``, a user table with the sets ``sets``."""

    def build(entry: dict, plan: SamplePlan) -> list:
        family = entry.get("family")
        S, sets = _user_family(family) if tables and isinstance(family, dict) else (decode_family(family), None)
        return [(f"{entry['check']}:{S.label}", lambda: _report(check(S, sets, plan)))]

    return build


def _build_condition_3(entry: dict, plan: SamplePlan) -> list:
    S = decode_family(entry.get("family"))
    n = _count_field(entry, "n_certificates", plan.n_sequences)

    def run():
        rng = plan.rng(f"cond3:{S.label}")
        pairs = sample_condition3_pairs_g(rng, n) if S.label == LABEL_G else sample_condition3_pairs(S.space, rng, n)
        return _report(check_condition_3(S, pairs))

    return [(f"condition_3:{S.label}", run)]


def _on_chains(prefix: str, divisors, check):
    """The build of a chain kind: ``check(bound, i, pairs, plan)`` on each
    bound chain i of the entry, with the grid pairs of ``divisors`` when given."""

    def build(entry: dict, plan: SamplePlan) -> list:
        S = decode_family(entry.get("family"))
        with _invalid("plan"):
            pairs = divisors and grid_pairs(plan.grid_m, divisors)
        chains = enumerate(_chain_from(entry, plan, S))
        return [(f"{prefix}:{S.label}:{i}", partial(check, bound, i, pairs, plan)) for i, bound in chains]

    return build


def _condition_4(bound, i, pairs, plan) -> tuple[dict, bool]:
    return _report(check_condition_4(bound, chain_check_points(bound.chain, plan)))


def _condition_d(bound, i, pairs, plan) -> tuple[dict, bool]:
    A = stratification_to_approximation(bound.S, QGrid(plan.grid_m))
    return _report(check_condition_d(A, bound.chain, pairs, chain_check_points(bound.chain, plan), plan))


def _bridge(bound, i, pairs, plan) -> tuple[dict, bool]:
    # bridge_4_iff_d takes its own grid pairs: ``pairs`` only showed they exist
    rep4, rep_d, agree = bridge_4_iff_d(bound, plan)
    parts = {"condition_4": rep4.payload(), "condition_d": rep_d.payload(), "agree": agree}
    return {"check_id": "bridge_4_iff_d", "family": bound.S.label, "chain_index": i, **parts}, agree


def _build_refute(entry: dict, plan: SamplePlan) -> list:
    target, candidate = entry.get("target"), entry.get("candidate", "characteristic")
    refute = _refuter(target, candidate, _count_field(entry, "n", _default_n(target)))
    key = f"refute:{target}:{candidate}" if target == "sorgenfrey-a" else f"refute:{target}"
    return [(key, lambda: _report(refute(plan.seed)))]


#: a check's verdicts: the first when it holds, and the default expectation
_PASS_FAIL = ("pass", "fail")

#: each check kind: (the fields it reads besides "check" and "expect", its
#: verdicts, build).  build(entry, plan) decodes the entry and returns its
#: cases as (key, run) pairs, where run() runs one check and returns
#: ``_report``'s pair.  A run calls the check functions by their module-level
#: names, so that a tracer which rebinds those names sees every call.
_KINDS = {
    "condition_1": (
        {"family"}, _PASS_FAIL, _on_family(lambda S, sets, plan: check_condition_1(S, plan, sets=sets), tables=True)
    ),
    "condition_2": ({"family"}, _PASS_FAIL, _on_family(lambda S, sets, plan: check_condition_2(S, plan))),
    "condition_3": ({"family", "n_certificates"}, _PASS_FAIL, _build_condition_3),
    "condition_3_negative_control": (set(), _PASS_FAIL, lambda entry, plan: [(
        "condition_3:negative_control", lambda: _report(check_condition_3(*continuity_negative_control())))]),
    "condition_4": ({"family", "chain"}, _PASS_FAIL, _on_chains("condition_4", None, _condition_4)),
    "condition_d": ({"family", "chain"}, _PASS_FAIL, _on_chains("condition_d", D_PAIRS, _condition_d)),
    "bridge_4_iff_d": ({"family", "chain"}, _PASS_FAIL, _on_chains("bridge", BRIDGE_PAIRS, _bridge)),
    "separations": ({"family"}, _PASS_FAIL, _on_family(lambda S, sets, plan: check_separations(S, plan))),
    "refute": ({"target", "n", "candidate"}, (REFUTED, NOT_FOUND), _build_refute),
}


def _build_entry(entry: dict, plan: SamplePlan) -> list[tuple]:
    """An entry's cases as (key, expected verdict, verdicts, run)."""
    kind = entry.get("check")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise SchemaError(f"unknown check {kind!r}")
    fields, verdicts, build = _KINDS[kind]
    unknown = set(entry) - fields - {"check", "expect"}
    if unknown:
        raise SchemaError(f"unknown {kind} fields {sorted(unknown)}")
    expected = entry.get("expect", verdicts[0])
    if expected not in verdicts:
        raise SchemaError(f"'expect' of a {kind} entry is one of {verdicts}, got {expected!r}")
    return [(key, expected, verdicts, run) for key, run in build(entry, plan)]


_SCENARIO_KEYS = {"name", "plan", "checks"}


def _build_scenario(scenario: dict, seed_override=None, grid_m=None) -> tuple[str, SamplePlan, list]:
    """A scenario's name, plan and the cases of all its entries, in order."""
    if not isinstance(scenario, dict):
        raise SchemaError(f"a scenario is an object, got {scenario!r}")
    unknown = set(scenario) - _SCENARIO_KEYS
    if unknown:
        raise SchemaError(f"unknown scenario fields {sorted(unknown)}")
    if "name" not in scenario or "checks" not in scenario:
        raise SchemaError("scenario needs 'name' and 'checks'")
    name = scenario["name"]
    if not isinstance(name, str) or name in ("", ".", "..") or {"/", "\\", "\0"} & set(name):
        raise SchemaError(f"a scenario name is a plain file name, got {name!r}")
    checks = scenario["checks"]
    if not isinstance(checks, list) or not all(isinstance(e, dict) for e in checks):
        raise SchemaError(f"'checks' is a list of objects, got {checks!r}")
    plan = _plan_from(scenario.get("plan", {}), seed_override, grid_m)
    return name, plan, [case for entry in checks for case in _build_entry(entry, plan)]


def run_scenario(scenario: tuple[str, SamplePlan, list], outcomes: list, out_dir: str | None = None) -> int:
    """Report a built scenario from its cases' outcomes (``_run_cases``), in
    case order; 0 when every verdict is the expected one, else 3.  The first
    outcome that is an exception is raised, and nothing of the scenario is
    reported."""
    name, plan, cases = scenario
    results = []
    for (key, expected, verdicts, _), outcome in zip(cases, outcomes):
        if isinstance(outcome, BaseException):
            raise outcome
        payload, held = outcome
        verdict = verdicts[0] if held else verdicts[1]
        results.append({"key": key, "expected": expected, "verdict": verdict, "report": payload})
    all_expected = all(r["verdict"] == r["expected"] for r in results)
    doc = {"scenario": name, "plan": plan.payload(), "results": results, "all_expected": all_expected}
    text_lines = [f"scenario {name} (seed {plan.seed})"]
    for r in results:
        mark = "ok " if r["verdict"] == r["expected"] else "XX "
        text_lines.append(f"  {mark}{r['key']}: verdict={r['verdict']} expected={r['expected']}")
    text_lines.append("all verdicts as expected" if all_expected else "UNEXPECTED VERDICTS")
    text = "\n".join(text_lines) + "\n"
    if out_dir:
        _write(Path(out_dir) / f"{name}.json", dumps_canonical(doc) + "\n")
        _write(Path(out_dir) / f"{name}.txt", text)
    sys.stdout.write(text)
    return 0 if all_expected else 3


def _usable_cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _share(runs: list, first: int, step: int) -> dict:
    """The outcomes of runs[first], runs[first + step], ... by index: what
    run() returns, or the exception it raised.  The share stops at its first
    exception, since no case after it in case order is reported."""
    outcomes = {}
    for i in range(first, len(runs), step):
        try:
            outcomes[i] = runs[i]()
        except Exception as exc:
            outcomes[i] = exc
            break
    return outcomes


def _run_cases(runs: list) -> list:
    """The outcome of each of ``runs``, in order, run on every usable core.

    Case i runs in process i mod n: process 0 is this one, and each other is
    a child forked before any case runs, which pickles its share's outcomes
    back through a pipe.  n is the number of usable cores, at most one per
    case, and 1 where fork is missing or other threads run; with n = 1 no
    process is forked.  Every outcome up to the first exception in case
    order is present; a later one may be None.  A child that ends without
    sending its outcomes is a ``ChildProcessError``, and no child outlives
    the call.
    """
    n = max(1, min(len(runs), _usable_cores()))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        n = 1
    if n > 1:  # imported only by a run that forks: a one-core run pays nothing
        import pickle
        import signal
    children = {}  # pid: (k, the read end of its pipe)
    try:
        for k in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: its share, out through the pipe, and no return
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pickle.dump(_share(runs, k, n), pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children[pid] = (k, open(read, "rb"))
        outcomes = _share(runs, 0, n)
        for pid, (k, pipe) in list(children.items()):
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pipe.close()
            del children[pid]
            if code != 0:
                raise ChildProcessError(f"check process {k} of {n} ended with code {code} before sending its outcomes")
            outcomes.update(pickle.loads(data))
    finally:
        for pid, (k, pipe) in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    return [outcomes.get(i) for i in range(len(runs))]


def _write(path: Path, text: str) -> None:
    """Write an --out file.  A path the command cannot write (a missing
    directory, a directory where the file goes) is a schema error, and
    nothing is written to it."""
    try:
        path.write_text(text)
    except OSError as exc:
        raise SchemaError(f"cannot write --out {str(path)!r}: {exc.strerror}") from None


def _load_scenario_file(path: str) -> dict:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read scenario {path!r}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON in {path!r}: {exc}") from exc


def shipped_scenarios() -> list[str]:
    base = resources.files("kappalab").joinpath("scenarios")
    return sorted(p.name for p in base.iterdir() if p.name.endswith(".json"))


def _load_shipped(name: str) -> dict:
    base = resources.files("kappalab").joinpath("scenarios")
    return json.loads(base.joinpath(name).read_text())


def cmd_check(args) -> int:
    if not (args.corpus or args.scenario):
        raise SchemaError("check needs --scenario <path> or --corpus")
    if args.corpus:
        scenarios = [_load_shipped(name) for name in shipped_scenarios()]
    else:
        scenarios = [_load_scenario_file(args.scenario)]
    # every entry of every scenario is built before --out is made and any check runs
    built = [_build_scenario(scenario, args.seed, args.grid_m) for scenario in scenarios]
    if args.out:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SchemaError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    outcomes = iter(_run_cases([run for _, _, cases in built for *_, run in cases]))
    return max(run_scenario(scenario, list(islice(outcomes, len(scenario[2]))), args.out) for scenario in built)


#: refute targets as functions of (candidate, seed, n);
#: niemytzki-strat reads n as its sequence length
_REFUTERS = {
    "sorgenfrey-a": lambda cand, seed, n: refute_sorgenfrey_A(_CANDIDATES[cand](), seed=seed),
    "doublearrow-d": lambda cand, seed, n: doublearrow_not_kappa_default(),
    "niemytzki-strat": lambda cand, seed, n: niemytzki_not_stratifiable(
        0.0 if _mode() == "float" else Fraction(0), 2, 10, n
    ),
    "g-extend": lambda cand, seed, n: g_family_not_extendable(n),
}


def _default_n(target) -> int:
    return 50 if target == "niemytzki-strat" else 1


def _refuter(target, candidate, n: int) -> Callable[[int], RefutationResult]:
    """A valid target's refuter as a function of the plan seed."""
    if target not in _REFUTERS:
        raise SchemaError(f"unknown refute target {target!r}")
    if target == "sorgenfrey-a" and candidate not in _CANDIDATES:
        raise SchemaError(f"unknown candidate {candidate!r}")
    return lambda seed: _REFUTERS[target](candidate, seed, n)


def cmd_refute(args) -> int:
    plan_seed = args.seed if args.seed is not None else 0
    n = args.n if args.n is not None else _default_n(args.target)
    if n < 1:
        raise SchemaError(f"--n must be at least 1, got {n}")
    res = _refuter(args.target, args.candidate, n)(plan_seed)
    doc = dumps_canonical(res.payload()) + "\n"
    if args.out:
        _write(Path(args.out), doc)
    sys.stdout.write(f"{args.target}: {res.verdict}\n")
    expected = args.expect
    if expected and res.verdict != expected:
        return 3
    return 0


def _parse_bbox(text: str) -> list[Fraction]:
    try:
        return [decode_scalar(p) for p in text.split(",")]
    except SchemaError as exc:
        raise SchemaError(f"malformed --bbox {text!r}: {exc}") from None


def _parse_res(text: str, count: int) -> list[int]:
    """``count`` lattice sizes joined by 'x', none negative."""
    try:
        sizes = [int(v) for v in text.split("x")]
    except ValueError:
        sizes = []
    if len(sizes) != count or min(sizes) < 0:
        raise SchemaError(f"malformed --res {text!r}: need {count} integer(s) >= 0 joined by 'x'")
    return sizes


def _axis(lo: Fraction, hi: Fraction, n: int, exact: bool) -> tuple[tuple[Sequence[int], int], list, list[str]]:
    """The lattice coordinates lo + (hi - lo) i/n, i < n, three ways: as
    integer terms (nums, den), nums[i] = base + step i and den > 0 over the
    integer terms of lo and hi; as Fractions with ``exact``, else binary64;
    and as CSV text, written from the exact coordinate in either mode."""
    den = lo.denominator * hi.denominator * n
    base = lo.numerator * hi.denominator * n
    step = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    nums = range(base, base + step * n, step) if step else [base] * n
    try:
        floats = [num / den for num in nums]  # float(): docs/derivations.md, "Exact kernel"
    except OverflowError:
        raise SchemaError("a lattice coordinate is too large for binary64") from None
    coords = [Fraction(num, den) for num in nums] if exact else floats
    return (nums, den), coords, [_csv_num(f) for f in floats]


def _first_reaching(nums: Sequence[int], den: int, c) -> int:
    """The first index i at which the lattice coordinate nums[i] / den reaches
    c, a Fraction or a float compared exactly: x >= c on an ascending or
    constant lattice, x <= c on a descending one; len(nums) if none does."""
    cn, cd = c.as_integer_ratio()
    sign = -1 if len(nums) > 1 and nums[-1] < nums[0] else 1
    return bisect_left(nums, True, key=lambda num: sign * (num * cd - cn * den) >= 0)


def _runs(n: int, components) -> list[tuple[int, int, int]]:
    """(lo, hi, k): the runs [lo, hi) of indices i < n at which U's
    components hold, disjoint and in order.  ``components`` pairs each
    component's membership test ``inside(i)`` with a seed: the indices
    inside it are contiguous and, when there are any, seed - 1 or seed is
    one of them (docs/derivations.md, "Row spans").  A run is component k's
    own, except that runs which overlap, as only an overlapping union's can,
    merge into one with the first run's k."""
    runs = []
    for k, (inside, seed) in enumerate(components):
        for m in (seed - 1, seed):
            if 0 <= m < n and inside(m):
                lo = bisect_left(range(m), True, key=inside)
                hi = m + bisect_left(range(m, n), True, key=lambda i: not inside(i))
                runs.append((lo, hi, k))
                break
    spans = []
    for run in sorted(runs):
        if spans and run[0] < spans[-1][1]:
            lo, hi, k = spans[-1]
            spans[-1] = (lo, max(hi, run[1]), k)
        else:
            spans.append(run)
    return spans


def _segments(n: int, runs: list[tuple[int, int, int]]):
    """(lo, hi, k): [0, n) cut at the ends of the disjoint ``runs``, in
    order; k is None between runs."""
    start = 0
    for lo, hi, k in runs:
        yield start, lo, None
        yield lo, hi, k
        start = hi
    yield start, n, None


def cmd_sample_grid(args) -> int:
    use_float = _mode() == "float"
    try:
        set_obj = json.loads(args.set)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed set JSON: {exc}") from exc
    target = decode_set(set_obj)
    S = decode_family(args.family)
    if target.space is not S.space:
        raise SchemaError(f"{S.label} is not indexed by {target.space.value} sets")
    try:
        f_U = S.at(target)  # bound once per lattice
    except UnindexedSetError as exc:
        raise SchemaError(f"{S.label} cannot index the given set: {exc}") from exc
    bbox = _parse_bbox(args.bbox)
    # members(y): each component's membership test inside(i) on the row y,
    # with its run's seed column (docs/derivations.md, "Row spans")
    if S.space is Space.NIEMYTZKI:
        if len(bbox) != 4:
            raise SchemaError("niemytzki bbox is x0,x1,y0,y1")
        nx, ny = _parse_res(args.res, 2)
        x0, x1, y0, y1 = bbox
        # the rows y0 and y0 + (y1 - y0)(ny - 1)/ny bound the lattice's heights
        if ny and min(y0, y0 + (y1 - y0) * Fraction(ny - 1, ny)) < 0:
            raise SchemaError(f"the lattice of --bbox {args.bbox} has rows below the axis y = 0")
        header = "x,y,value"
        # every coordinate in the one mode, each built once per axis value
        xterms, xs, xtexts = _axis(x0, x1, nx, not use_float)
        yterms, ys, ytexts = _axis(y0, y1, ny, not use_float)
        ytexts = ["," + yt for yt in ytexts]  # the y column, after x
        # a disc's run on a row is where |x - cx| is small enough: it holds at
        # the column reaching cx, or at the one before, when it is not empty
        seeds = [(c.terms_at, _first_reaching(*xterms, c.center.x)) for c in target.components]

        def members(y):
            return [(lambda i, at=at: at(xs[i], y) is not None, seed) for at, seed in seeds]

    elif S.space is Space.SORGENFREY:
        if len(bbox) != 2:
            raise SchemaError("sorgenfrey bbox is x0,x1")
        (nx,) = _parse_res(args.res, 1)
        header = "x,value"
        # exact by construction: the gap and [a, b)'s test read the terms, so
        # the coordinates are binary64, with no Fraction per column
        xterms, xs, xtexts = _axis(*bbox, nx, False)
        yterms, ys, ytexts = None, [None], [""]  # one row, with no y column
        nums, den = xterms

        def members(y):
            return [
                (lambda i, c=c: basic_member(c, SorgenfreyPoint(Fraction(nums[i], den))),
                 _first_reaching(nums, den, c.a))
                for c in target.components
            ]

    else:
        raise SchemaError("sample-grid supports niemytzki and sorgenfrey families")
    # values are computed only on the runs of U's components; every named
    # kernel is 0 off U, written "0" (docs/derivations.md, "Row spans"), and
    # a run is evaluated by the kernel's staged form (docs/derivations.md,
    # "Separable terms")
    values = f_U.kernel.lattice(xs, ys, xterms, yterms)
    rows = []
    for j, (y, yt) in enumerate(zip(ys, ytexts)):
        for lo, hi, k in _segments(nx, _runs(nx, members(y))):
            if k is None:
                rows += [f"{xt}{yt},0" for xt in xtexts[lo:hi]]
            else:
                rows += [f"{xt}{yt},{_csv_num(v)}" for xt, v in zip(xtexts[lo:hi], values(k, j, lo, hi))]
    text = header + "\n" + "\n".join(rows) + ("\n" if rows else "")
    _write(Path(args.out), text)
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """A malformed command line, an unknown option included, is a schema
    error (exit 2), as malformed JSON is."""

    def error(self, message):
        raise SchemaError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="kappalab", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a scenario file (or the shipped corpus)")
    p_check.add_argument("--scenario", help="path to a scenario JSON file")
    p_check.add_argument("--corpus", action="store_true", help="run every shipped scenario")
    p_check.add_argument("--seed", type=int, default=None, help="override the plan seed")
    p_check.add_argument("--grid-m", type=int, default=None, help="override the dyadic grid depth")
    p_check.add_argument("--out", help="directory for JSON/text reports")
    p_check.set_defaults(fn=cmd_check)

    p_ref = sub.add_parser("refute", help="run one refuter")
    p_ref.add_argument("target", choices=list(_REFUTERS))
    p_ref.add_argument("--candidate", default="characteristic", choices=sorted(_CANDIDATES))
    p_ref.add_argument("--n", type=int, default=None, help="default 50 for niemytzki-strat, else 1")
    p_ref.add_argument("--seed", type=int, default=None)
    p_ref.add_argument("--expect", choices=_KINDS["refute"][1])
    p_ref.add_argument("--out", help="path for the witness bundle JSON")
    p_ref.set_defaults(fn=cmd_refute)

    p_grid = sub.add_parser("sample-grid", help="CSV of family values over a lattice")
    p_grid.add_argument("--family", required=True)
    p_grid.add_argument("--set", required=True, help="base set or union as JSON")
    p_grid.add_argument("--bbox", required=True, help="x0,x1[,y0,y1] (rationals)")
    p_grid.add_argument("--res", required=True, help="NX x NY (e.g. 300x220) or N")
    p_grid.add_argument("--out", required=True)
    p_grid.set_defaults(fn=cmd_sample_grid)
    return ap


def _csv_num(v) -> str:
    f = v if type(v) is float else as_float(v)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 2
    except (AssertionError, ArithmeticError) as exc:
        sys.stderr.write(f"internal tolerance/consistency failure: {exc}\n")
        return 4
    except ChildProcessError as exc:
        sys.stderr.write(f"internal failure: {exc}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
