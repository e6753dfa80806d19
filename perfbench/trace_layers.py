"""In-memory tracer: spans around calls into kappalab's public functions.

``install`` replaces each traced function wherever a kappalab module binds
it, including the names that ``cli``, ``harness`` and ``approximations``
re-bind through ``from ... import``, so calls made through any module go
through the wrapper. The program under ``src/`` is not modified.

Every call is a span. Spans are aggregated per name into calls, total time
and self time (the span's duration minus the time its child spans cover).
Spans of at least ``KEEP_SPAN_S`` are also kept whole, with their parent,
so the slow calls can be laid out on a timeline afterwards.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
import sys
from collections import defaultdict
from time import perf_counter

#: Spans at least this long are kept whole; shorter ones are only aggregated.
KEEP_SPAN_S = 1e-3

#: Traced functions as (module, attribute); the span name is "module.attribute".
FUNCTIONS = (
    ("basesets", "basic_member"),
    ("rosets", "member"),
    ("rosets", "validate_regular_open"),
    ("rosets", "basic_subset"),
    ("rosets", "decreasing_chain_interior"),
    ("families", "niemytzki_basic_f"),
    ("families", "disc_in_union"),
    ("families", "pairwise_separated"),
    ("sampling", "sample_point_near_set"),
    ("sampling", "sample_set"),
    ("sampling", "sample_condition3_pairs"),
    ("convergence", "verify_convergence"),
    ("harness", "check_condition_1"),
    ("harness", "check_condition_2"),
    ("harness", "check_condition_3"),
    ("harness", "check_condition_4"),
    ("harness", "check_condition_d"),
    ("harness", "check_separations"),
    ("harness", "bridge_4_iff_d"),
    ("refuters", "refute_sorgenfrey_A"),
    ("refuters", "doublearrow_not_kappa_default"),
    ("refuters", "niemytzki_not_stratifiable"),
    ("refuters", "g_family_not_extendable"),
    ("cli", "run_scenario"),
)

#: Evaluation paths of a family value, as classified from outside.
VALUE_PATHS = ("sorgenfrey", "double_arrow", "g", "niemytzki_closed", "separated", "searched")
NIEMYTZKI_PATHS = ("niemytzki_closed", "separated", "searched")

#: Span names reported as per-layer metrics.
REPORTED_SPANS = (
    *(f"{module}.{attr}" for module, attr in FUNCTIONS),
    *(f"families.value.{path}" for path in VALUE_PATHS),
    "families.niemytzki_union_f",
    "approximations.contains",
    "serialize.dumps_canonical",
    "cli.cmd_sample_grid",
)
#: Per-layer metrics that are not per-span, with their units.
DERIVED = (
    ("serialize.report_bytes", "B"),
    ("cli.csv_bytes", "B"),
    ("families.searched_share", "ratio"),
    ("families.set_reuse", "ratio"),
    ("harness.separations.accept_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in reporting order."""
    spans = [
        (f"{span}.{key}", unit)
        for span in REPORTED_SPANS
        for key, unit in (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"))
    ]
    return spans + list(DERIVED)


class Tracer:
    """Span stack plus per-name aggregates; one per traced process."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.counts = defaultdict(int)
        self.kept = []  # (span id, parent id, name, start, end)
        self.value_sets = set()
        self.stack = []  # [child seconds, name, span id]
        self._ids = itertools.count(1)

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, kept, ids = self.stack, self.kept, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else 0
            frame = [0.0, name, next(ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if dur >= KEEP_SPAN_S:
                    kept.append((frame[2], parent, name, start, end))

        return traced

    def caller(self) -> str:
        return self.stack[-1][1] if self.stack else ""

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]


def _rebind(original, replacement) -> None:
    """Point every kappalab module name bound to ``original`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if modname != "kappalab" and not modname.startswith("kappalab."):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of an imported kappalab (cli included)."""
    mods = {name: sys.modules[f"kappalab.{name}"] for name in
            ("approximations", "families", "harness", "serialize", "cli")}
    families = mods["families"]
    # classification uses the unwrapped predicate, so it adds no traced calls
    separated = families.pairwise_separated
    labels = {
        families.LABEL_SORGENFREY: "sorgenfrey",
        families.LABEL_DOUBLE_ARROW: "double_arrow",
        families.LABEL_G: "g",
        families.LABEL_USER: "user",
    }

    for modname, attr in FUNCTIONS:
        orig = getattr(sys.modules[f"kappalab.{modname}"], attr)
        _rebind(orig, tracer.wrap(f"{modname}.{attr}", orig))

    # family values, split by evaluation path; each set object is classified
    # (and hashed for the distinct-set count) once, and kept so its id stays unique
    known = {}
    value_spans = {path: tracer.wrap(f"families.value.{path}", families.Stratification.value)
                   for path in (*labels.values(), *NIEMYTZKI_PATHS)}

    def set_path(U):
        entry = known.get(id(U))
        if entry is None:
            tracer.value_sets.add(U)
            comps = getattr(U, "components", ())
            if U.space is not families.Space.NIEMYTZKI:
                path = None
            elif len(comps) < 2:
                path = "niemytzki_closed"
            else:
                path = "separated" if separated(U) else "searched"
            entry = known[id(U)] = (U, path)
        return entry[1]

    def traced_value(S, U, p):
        path = set_path(U)
        return value_spans[labels.get(S.label, path)](S, U, p)

    families.Stratification.value = functools.wraps(families.Stratification.value)(traced_value)

    # sample-grid evaluates unions through niemytzki_union_f directly; such a
    # call is a family value as well
    union_f = families.niemytzki_union_f
    traced_union = tracer.wrap("families.niemytzki_union_f", union_f)
    union_spans = {path: tracer.wrap(f"families.value.{path}", traced_union)
                   for path in NIEMYTZKI_PATHS}

    def union_value(V, p, *args, **kwargs):
        if tracer.caller().startswith("families.value."):
            return traced_union(V, p, *args, **kwargs)
        return union_spans[set_path(V)](V, p, *args, **kwargs)

    _rebind(union_f, functools.wraps(union_f)(union_value))

    # the approximation's predicate is a closure; trace it on the returned object
    to_approx = mods["approximations"].stratification_to_approximation

    def traced_to_approx(S, grid):
        A = to_approx(S, grid)
        return dataclasses.replace(A, contains=tracer.wrap("approximations.contains", A.contains))

    _rebind(to_approx, functools.wraps(to_approx)(traced_to_approx))

    # separations: configurations the precondition rejects (ValueError) are resampled
    for attr in ("hausdorff_witness", "separate_regular_closed"):
        _rebind(getattr(mods["harness"], attr), _count_rejects(tracer, getattr(mods["harness"], attr)))

    dumps = mods["serialize"].dumps_canonical
    traced_dumps = tracer.wrap("serialize.dumps_canonical", dumps)

    def counted_dumps(payload):
        text = traced_dumps(payload)
        tracer.counts["serialize.report_bytes"] += len(text)
        return text

    _rebind(dumps, functools.wraps(dumps)(counted_dumps))

    grid = mods["cli"].cmd_sample_grid
    traced_grid = tracer.wrap("cli.cmd_sample_grid", grid)

    def counted_grid(args):
        code = traced_grid(args)
        if os.path.exists(args.out):
            tracer.counts["cli.csv_bytes"] += os.path.getsize(args.out)
        return code

    # cli.main builds its parser on every call, so the parser picks this up
    _rebind(grid, functools.wraps(grid)(counted_grid))


def _count_rejects(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts["separations.attempts"] += 1
        try:
            return fn(*args, **kwargs)
        except ValueError:
            tracer.counts["separations.rejected"] += 1
            raise

    return counted


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass by name: calls, times and the
    ratios built on them."""
    out = {}
    for name, (calls, total_s, self_s) in tracer.stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_ms"] = 1e3 * total_s
        out[f"{name}.self_ms"] = 1e3 * self_s
    value_calls = sum(n for name, (n, _, _) in tracer.stats.items()
                      if name.startswith("families.value."))
    niemytzki = sum(tracer.calls(f"families.value.{path}") for path in NIEMYTZKI_PATHS)
    searched = tracer.calls("families.value.searched")
    attempts = tracer.counts["separations.attempts"]
    rejected = tracer.counts["separations.rejected"]
    distinct = len(tracer.value_sets)
    out["families.searched_share"] = searched / niemytzki if niemytzki else 0.0
    out["families.set_reuse"] = value_calls / distinct if distinct else 0.0
    out["harness.separations.accept_ratio"] = (attempts - rejected) / attempts if attempts else 0.0
    out["serialize.report_bytes"] = tracer.counts["serialize.report_bytes"]
    out["cli.csv_bytes"] = tracer.counts["cli.csv_bytes"]
    return out
