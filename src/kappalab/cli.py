"""Batch front door: scenario runner, refuter subcommands, CSV sampling.

Exit codes: 0 all expected verdicts matched; 2 malformed scenario/schema;
3 a check produced an unexpected verdict; 4 internal failure (a tolerance or
consistency assertion broke inside the machinery).

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
from bisect import bisect_left
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Sequence

from .approximations import QGrid, stratification_to_approximation
from .basesets import basic_member
from .families import LABEL_G, Stratification, UnindexedSetError
from .harness import (
    BRIDGE_PAIRS,
    D_PAIRS,
    CheckReport,
    SamplePlan,
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
from .rosets import DecreasingChain
from .sampling import sample_chain, sample_condition3_pairs, double_arrow_pinch_chain
from .serialize import (
    SchemaError,
    _expect_fields,
    _int_field,
    _invalid,
    decode_chain,
    decode_family,
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
    from .families import tabulated_evaluator
    from .serialize import decode_point, decode_scalar

    _known = {"label", "space", "table"}
    unknown = set(spec) - _known
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
    from .families import user_supplied

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
    allowed = {"seed", "n_points", "n_set_pairs", "n_sequences", "grid_m"}
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"unknown plan fields {sorted(unknown)}")
    merged = {key: _int_field(obj, key) for key in obj}
    if seed is not None:
        merged["seed"] = seed
    if grid_m is not None:
        merged["grid_m"] = grid_m
    with _invalid("plan"):
        return SamplePlan(**merged)


def _chain_from(entry: dict, plan: SamplePlan, S: Stratification) -> list[DecreasingChain]:
    spec = entry.get("chain", {"sampled": 1})
    if isinstance(spec, dict) and "sampled" in spec:
        extra = {k for k in spec if k != "sampled"}
        if extra:
            raise SchemaError(f"unknown chain fields {sorted(extra)}")
        rng = plan.rng(f"chains:{S.label}:0")
        return [sample_chain(S.space, rng) for _ in range(_count_field(spec, "sampled"))]
    if spec == "pinch":
        chain = double_arrow_pinch_chain()
    elif isinstance(spec, dict):
        chain = decode_chain(spec)
    else:
        raise SchemaError(f"bad chain spec {spec!r}")
    if chain.space is not S.space:
        raise SchemaError(f"a {chain.space.value} chain for the {S.space.value} family {S.label}")
    return [chain]


#: the fields each check kind reads, besides "check" and "expect"
_CHECK_FIELDS = {
    "condition_1": {"family"},
    "condition_2": {"family"},
    "condition_3": {"family", "n_certificates"},
    "condition_3_negative_control": set(),
    "condition_4": {"family", "chain"},
    "condition_d": {"family", "chain"},
    "bridge_4_iff_d": {"family", "chain"},
    "separations": {"family"},
    "refute": {"target", "n", "candidate"},
}
#: each kind's verdicts, its default expectation first
_VERDICTS = ("pass", "fail")
_REFUTE_VERDICTS = (REFUTED, NOT_FOUND)


def _expected(entry: dict) -> str:
    """Check an entry's kind and fields; its expected verdict, one of its
    kind's verdicts: "pass" for a check and "refuted" for a refute entry
    unless it gives another."""
    kind = entry.get("check")
    if not isinstance(kind, str) or kind not in _CHECK_FIELDS:
        raise SchemaError(f"unknown check {kind!r}")
    unknown = set(entry) - _CHECK_FIELDS[kind] - {"check", "expect"}
    if unknown:
        raise SchemaError(f"unknown {kind} fields {sorted(unknown)}")
    verdicts = _REFUTE_VERDICTS if kind == "refute" else _VERDICTS
    if "expect" in entry and entry["expect"] not in verdicts:
        raise SchemaError(f"'expect' of a {kind} entry is one of {verdicts}, got {entry['expect']!r}")
    return entry.get("expect", verdicts[0])


def _grid_pairs(plan: SamplePlan, divisors) -> list:
    with _invalid("plan"):
        return grid_pairs(plan.grid_m, divisors)


def _run_check_entry(entry: dict, plan: SamplePlan) -> list[tuple[str, CheckReport | dict, str]]:
    """Run one entry that ``_expected`` accepted; returns (key, report-or-payload, verdict)."""
    kind = entry["check"]
    out = []
    if kind == "condition_1":
        if isinstance(entry.get("family"), dict):
            S, sets = _user_family(entry["family"])
        else:
            S, sets = decode_family(entry.get("family")), None
        rep = check_condition_1(S, plan, sets=sets)
        out.append((f"condition_1:{S.label}", rep, "pass" if rep.passed else "fail"))
    elif kind == "condition_2":
        S = decode_family(entry.get("family"))
        rep = check_condition_2(S, plan)
        out.append((f"condition_2:{S.label}", rep, "pass" if rep.passed else "fail"))
    elif kind == "condition_3":
        S = decode_family(entry.get("family"))
        n = _count_field(entry, "n_certificates", plan.n_sequences)
        rng = plan.rng(f"cond3:{S.label}")
        if S.label == LABEL_G:
            from .sampling import sample_condition3_pairs_g

            pairs = sample_condition3_pairs_g(rng, n)
        else:
            pairs = sample_condition3_pairs(S.space, rng, n)
        rep = check_condition_3(S, pairs)
        out.append((f"condition_3:{S.label}", rep, "pass" if rep.passed else "fail"))
    elif kind == "condition_3_negative_control":
        S, pairs = continuity_negative_control()
        rep = check_condition_3(S, pairs)
        out.append(("condition_3:negative_control", rep, "pass" if rep.passed else "fail"))
    elif kind == "condition_4":
        S = decode_family(entry.get("family"))
        for i, chain in enumerate(_chain_from(entry, plan, S)):
            points = chain_check_points(chain, plan)
            rep = check_condition_4(S, chain, points, plan)
            out.append((f"condition_4:{S.label}:{i}", rep, "pass" if rep.passed else "fail"))
    elif kind == "condition_d":
        S = decode_family(entry.get("family"))
        pairs = _grid_pairs(plan, D_PAIRS)
        A = stratification_to_approximation(S, QGrid(plan.grid_m))
        for i, chain in enumerate(_chain_from(entry, plan, S)):
            points = chain_check_points(chain, plan)
            rep = check_condition_d(A, chain, pairs, points, plan)
            out.append((f"condition_d:{S.label}:{i}", rep, "pass" if rep.passed else "fail"))
    elif kind == "bridge_4_iff_d":
        S = decode_family(entry.get("family"))
        _grid_pairs(plan, BRIDGE_PAIRS)  # the pairs bridge_4_iff_d checks
        for i, chain in enumerate(_chain_from(entry, plan, S)):
            rep4, rep_d, agree = bridge_4_iff_d(S, chain, plan)
            payload = {
                "check_id": "bridge_4_iff_d",
                "family": S.label,
                "chain_index": i,
                "condition_4": rep4.payload(),
                "condition_d": rep_d.payload(),
                "agree": agree,
            }
            out.append((f"bridge:{S.label}:{i}", payload, "pass" if agree else "fail"))
    elif kind == "separations":
        S = decode_family(entry.get("family"))
        rep = check_separations(S, plan)
        out.append((f"separations:{S.label}", rep, "pass" if rep.passed else "fail"))
    elif kind == "refute":
        target = entry.get("target")
        cand_name = entry.get("candidate", "characteristic")
        n = _count_field(entry, "n", _default_n(target))
        res = _refute(target, cand_name, plan.seed, n)
        key = f"refute:{target}:{cand_name}" if target == "sorgenfrey-a" else f"refute:{target}"
        out.append((key, res.payload(), res.verdict))
    return out


_SCENARIO_KEYS = {"name", "plan", "checks"}


def run_scenario(
    scenario: dict,
    seed_override=None,
    out_dir: str | None = None,
    grid_m=None,
) -> int:
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
    results = []
    mismatches = []
    for entry in checks:
        expected = _expected(entry)
        try:
            ran = _run_check_entry(entry, plan)
        except UnindexedSetError as exc:
            raise SchemaError(f"the {entry.get('family')} family cannot index a set: {exc}") from exc
        for key, rep, verdict in ran:
            payload = rep.payload() if isinstance(rep, CheckReport) else rep
            results.append({"key": key, "expected": expected, "verdict": verdict, "report": payload})
            if verdict != expected:
                mismatches.append((key, expected, verdict))
    doc = {
        "scenario": scenario["name"],
        "plan": plan.payload(),
        "results": results,
        "all_expected": not mismatches,
    }
    text_lines = [f"scenario {scenario['name']} (seed {plan.seed})"]
    for r in results:
        mark = "ok " if r["verdict"] == r["expected"] else "XX "
        text_lines.append(
            f"  {mark}{r['key']}: verdict={r['verdict']} expected={r['expected']}"
        )
    text_lines.append("all verdicts as expected" if not mismatches else "UNEXPECTED VERDICTS")
    text = "\n".join(text_lines) + "\n"
    if out_dir:
        out_path = Path(out_dir)
        _write(out_path / f"{scenario['name']}.json", dumps_canonical(doc) + "\n", make_dirs=True)
        _write(out_path / f"{scenario['name']}.txt", text)
    sys.stdout.write(text)
    return 0 if not mismatches else 3


def _write(path: Path, text: str, make_dirs: bool = False) -> None:
    """Write an --out file, after its missing directories with ``make_dirs``.
    A path the command cannot write (a missing directory, a directory where
    the file goes, a file where a directory goes) is a schema error, and
    nothing is written to it."""
    try:
        if make_dirs:
            path.parent.mkdir(parents=True, exist_ok=True)
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
    worst = 0
    if args.corpus:
        for name in shipped_scenarios():
            code = run_scenario(_load_shipped(name), args.seed, args.out, args.grid_m)
            worst = max(worst, code)
        return worst
    if not args.scenario:
        raise SchemaError("check needs --scenario <path> or --corpus")
    scenario = _load_scenario_file(args.scenario)
    return run_scenario(scenario, args.seed, args.out, args.grid_m)


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


def _refute(target, candidate: str, seed: int, n: int) -> RefutationResult:
    if target not in _REFUTERS:
        raise SchemaError(f"unknown refute target {target!r}")
    if target == "sorgenfrey-a" and candidate not in _CANDIDATES:
        raise SchemaError(f"unknown candidate {candidate!r}")
    with _invalid(f"{target} parameters"):
        return _REFUTERS[target](candidate, seed, n)


def cmd_refute(args) -> int:
    plan_seed = args.seed if args.seed is not None else 0
    n = args.n if args.n is not None else _default_n(args.target)
    if n < 1:
        raise SchemaError(f"--n must be at least 1, got {n}")
    res = _refute(args.target, args.candidate, plan_seed, n)
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
        return [Fraction(p) for p in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"malformed --bbox {text!r}") from exc


def _parse_res(text: str, count: int) -> list[int]:
    """``count`` lattice sizes joined by 'x', none negative."""
    try:
        sizes = [int(v) for v in text.split("x")]
    except ValueError:
        sizes = []
    if len(sizes) != count or min(sizes) < 0:
        raise SchemaError(f"malformed --res {text!r}: need {count} integer(s) >= 0 joined by 'x'")
    return sizes


def _lattice(lo: Fraction, hi: Fraction, n: int) -> tuple[Sequence[int], int]:
    """(nums, den): the lattice coordinates lo + (hi - lo) i/n, i < n, are
    nums[i] / den, with nums[i] = base + step i and den > 0 over the integer
    terms of lo and hi.  Each has CSV text when the first and the last fit
    binary64, since the others lie between them."""
    den = lo.denominator * hi.denominator * n
    base = lo.numerator * hi.denominator * n
    step = hi.numerator * lo.denominator - lo.numerator * hi.denominator
    nums = range(base, base + step * n, step) if step else [base] * n
    try:
        if n:
            nums[0] / den, nums[-1] / den  # float(): docs/derivations.md, "Exact kernel"
    except OverflowError:
        raise SchemaError("a lattice coordinate is too large for binary64") from None
    return nums, den


def _axis(lo: Fraction, hi: Fraction, n: int, use_float: bool) -> list[tuple]:
    """The lattice coordinates lo + (hi - lo) i/n, i < n, as (coordinate, CSV text)
    pairs; the text is written from the exact coordinate in either mode."""
    nums, den = _lattice(lo, hi, n)
    return [
        (num / den if use_float else Fraction(num, den), _csv_num(num / den)) for num in nums
    ]


def _first_reaching(nums: Sequence[int], den: int, c) -> int:
    """The first index i at which the lattice coordinate nums[i] / den reaches
    c, a Fraction or a float compared exactly: x >= c on an ascending or
    constant lattice, x <= c on a descending one; len(nums) if none does."""
    cn, cd = c.as_integer_ratio()
    sign = -1 if len(nums) > 1 and nums[-1] < nums[0] else 1
    return bisect_left(nums, True, key=lambda num: sign * (num * cd - cn * den) >= 0)


def _runs(n: int, components, merge: bool) -> list[tuple[int, int, int]]:
    """(lo, hi, k): the run [lo, hi) of indices i < n at which component k
    holds, for each component whose run is not empty, in order.
    ``components`` pairs each component's membership test ``inside(i)`` with
    a seed: the indices inside it are contiguous and, when there are any,
    seed - 1 or seed is one of them (docs/derivations.md, "Row spans").  With
    ``merge`` the runs of components that may overlap are merged into
    disjoint, non-adjacent spans, each with the component index 0."""
    runs = []
    for k, (inside, seed) in enumerate(components):
        for m in (seed - 1, seed):
            if 0 <= m < n and inside(m):
                lo = bisect_left(range(m), True, key=inside)
                hi = m + bisect_left(range(m, n), True, key=lambda i: not inside(i))
                runs.append((lo, hi, k))
                break
    runs.sort()
    if not merge:
        return runs
    spans = []
    for lo, hi, _ in runs:
        if spans and lo <= spans[-1][1]:
            spans[-1] = (spans[-1][0], max(spans[-1][1], hi), 0)
        else:
            spans.append((lo, hi, 0))
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
    # values are computed only on the runs of U's components; every named
    # kernel is 0 off U, written "0" (docs/derivations.md, "Row spans"), and
    # a run of one component is evaluated by that component's staged form
    # (docs/derivations.md, "Separable terms")
    rows = []
    if S.space is Space.NIEMYTZKI:
        if len(bbox) != 4:
            raise SchemaError("niemytzki bbox is x0,x1,y0,y1")
        nx, ny = _parse_res(args.res, 2)
        x0, x1, y0, y1 = bbox
        header = "x,y,value"
        # every coordinate in the one mode, each built once per axis value
        xs, ys = _axis(x0, x1, nx, use_float), _axis(y0, y1, ny, use_float)
        cols, xtexts = [x for x, _ in xs], [xt for _, xt in xs]
        heights = [y for y, _ in ys]
        # the same coordinates as integer terms over one denominator per axis
        xterms, yterms = _lattice(x0, x1, nx), _lattice(y0, y1, ny)
        # the rows y0 and y0 + (y1 - y0)(ny - 1)/ny bound the lattice's heights
        if ny and min(y0, y0 + (y1 - y0) * Fraction(ny - 1, ny)) < 0:
            raise SchemaError(f"the lattice of --bbox {args.bbox} has rows below the axis y = 0")
        kernel = f_U.kernel
        overlapping = kernel.lattice is None
        if overlapping:

            def values(k, j, lo, hi):
                return [kernel(x, heights[j]) for x in cols[lo:hi]]

        else:
            values = kernel.lattice(cols, heights, xterms, yterms)
        # a disc's run on a row is where |x - cx| is small enough: it holds at
        # the column reaching cx, or at the one before, when it is not empty
        seeds = [(c.terms_at, _first_reaching(*xterms, c.center.x)) for c in target.components]
        for j, (y, yt) in enumerate(ys):
            runs = _runs(
                nx, [(lambda i, at=at: at(cols[i], y) is not None, seed) for at, seed in seeds], overlapping
            )
            for lo, hi, k in _segments(nx, runs):
                if k is None:
                    rows += [f"{xt},{yt},0" for xt in xtexts[lo:hi]]
                else:
                    rows += [f"{xt},{yt},{_csv_num(v)}" for xt, v in zip(xtexts[lo:hi], values(k, j, lo, hi))]
    elif S.space is Space.SORGENFREY:
        if len(bbox) != 2:
            raise SchemaError("sorgenfrey bbox is x0,x1")
        (n,) = _parse_res(args.res, 1)
        header = "x,value"
        nums, den = _lattice(*bbox, n)
        xtexts = [_csv_num(num / den) for num in nums]
        values = f_U.kernel.lattice(nums, den)  # docs/derivations.md, "Lattice kernel"
        members = [
            (lambda i, c=c: basic_member(c, SorgenfreyPoint(Fraction(nums[i], den))),
             _first_reaching(nums, den, c.a))
            for c in target.components
        ]
        for lo, hi, k in _segments(n, _runs(n, members, False)):
            if k is None:
                rows += [f"{xt},0" for xt in xtexts[lo:hi]]
            else:
                rows += [f"{xt},{_csv_num(v)}" for xt, v in zip(xtexts[lo:hi], values(k, lo, hi))]
    else:
        raise SchemaError("sample-grid supports niemytzki and sorgenfrey families")
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
    p_ref.add_argument("--expect", choices=_REFUTE_VERDICTS)
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


if __name__ == "__main__":
    sys.exit(main())
