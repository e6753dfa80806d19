"""One pass of a benchmark workload in a fresh interpreter: set up, run, check.

``run.py`` starts this script once per pass, and once per set-up probe,
with ``src`` on ``PYTHONPATH``. A fresh process per pass is what a user of
the command line gets, and no state carries over from one pass to the next.
The script prints one JSON line: when it became ready (a ``time.monotonic``
reading, so the parent can time set-up from the moment it started the
interpreter), the timing and output checks of every unit and, with
``--trace``, the per-layer statistics.

Times are scaled to a reference host speed (``SpeedProbe``): a shared host
runs the same pass from 1.2 to 1.9 times as fast minutes apart, so raw times
measure the neighbours more than the program.

A pass is the workload's fixed work, run in process through ``cli.main``:

* ``corpus``: every shipped scenario at its own seed (``check --scenario``
  per file, the same work as ``check --corpus``); a unit is one scenario;
* ``checks``: the same scenarios with ``--seed 99``;
* ``grid``: four ``sample-grid`` lattices; a unit is one lattice.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import resource
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from statistics import mean

#: Plan seed of the ``checks`` workload; at 99 the corpus makes no searched-union calls.
CHECKS_PLAN_SEED = "99"
#: Largest difference allowed between a CSV value and its reference value,
#: and between the rows of the exact and float README lattices.
EPS = 1e-9


@dataclass(frozen=True)
class Lattice:
    name: str
    mode: str  # KAPPALAB_MODE
    family: str
    set_json: str
    bbox: str
    res: str


TANGENT = '{"kind": "tangent_disc", "a": "0", "r": "1"}'
SEPARATED_UNION = (
    '{"space": "niemytzki", "components": ['
    '{"kind": "tangent_disc", "a": "-3/4", "r": "1/2"}, '
    '{"kind": "interior_disc", "cx": "3/4", "cy": "1", "r": "1/2"}]}'
)
SORGENFREY_UNION = (
    '{"space": "sorgenfrey", "components": ['
    '{"kind": "half_open", "a": "-3/2", "b": "-1/3"}, '
    '{"kind": "half_open", "a": "0", "b": "5/2"}]}'
)
LATTICES = (
    Lattice("readme_exact", "exact", "niemytzki_kappa", TANGENT, "-3/2,3/2,0,11/5", "300x220"),
    Lattice("readme_float", "float", "niemytzki_kappa", TANGENT, "-3/2,3/2,0,11/5", "300x220"),
    Lattice("union_separated", "exact", "niemytzki_kappa", SEPARATED_UNION, "-3/2,3/2,0,2", "150x110"),
    Lattice("sorgenfrey", "exact", "sorgenfrey_kappa", SORGENFREY_UNION, "-2,3", "66000"),
)


# ---------------------------------------------------------------------------
# host speed


#: Seconds one burst of the speed probe takes at the reference speed; scaled
#: times are seconds at that speed. It is about the median on a 2-vCPU Xeon
#: VM at 2.1 GHz under Python 3.11.
REFERENCE_BURST_S = 6.5e-4
#: Seconds between bursts while a unit runs.
PROBE_INTERVAL_S = 0.05
#: Bursts that time the host speed after set-up.
SETUP_BURSTS = 40


def burst() -> float:
    """Seconds taken by a fixed piece of pure-Python work that shares no code
    with kappalab: rational arithmetic, dict updates and float powers."""
    t0 = time.perf_counter()
    acc, counts, total = Fraction(0), {}, 0.0
    for i in range(1, 60):
        f = Fraction(i, i + 7)
        acc += f * f - Fraction(1, i)
        counts[i % 17] = counts.get(i % 17, 0) + i
        total += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


class SpeedProbe:
    """Times units in seconds at the reference host speed.

    A burst runs when a unit starts, when it ends and every
    ``PROBE_INTERVAL_S`` in between, from a ``SIGALRM`` handler. The unit's
    time, less the bursts run inside it, is scaled by ``REFERENCE_BURST_S``
    over the mean burst. A unit that runs while the host is slow is slow by
    about as much as the bursts around and inside it.
    """

    def __init__(self):
        self.bursts: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.bursts.append(burst()))

    @contextlib.contextmanager
    def unit(self, timing: dict):
        """Fill ``timing`` with the block's raw and scaled seconds."""
        first = burst()
        self.bursts = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            raw = time.perf_counter() - t0
            inside = list(self.bursts)
            last = burst()
            timing["raw_s"] = raw
            timing["seconds"] = (raw - sum(inside)) * REFERENCE_BURST_S / mean([first, *inside, last])


def speed_scale() -> float:
    """Reference burst time over the mean of ``SETUP_BURSTS`` bursts run now."""
    return REFERENCE_BURST_S / mean(burst() for _ in range(SETUP_BURSTS))


# ---------------------------------------------------------------------------
# independent reference values for the lattices
#
# Niemytzki values are continuous across a disc's boundary except on the axis,
# so the reference decides membership in binary64 and only axis points and
# Sorgenfrey endpoints exactly.


def _disc_ref(cx: Fraction, cy: Fraction, r: Fraction):
    """r minus the distance to the centre inside the open disc, 0 outside."""
    fcx, fcy, fr = float(cx), float(cy), float(r)

    def value(x, y):
        d = math.hypot(x[1] - fcx, y[1] - fcy)
        return fr - d if d < fr else 0.0

    return value


def _tangent_ref(a: Fraction, r: Fraction):
    """B*(a, r): r at the tangency point, the disc value above the horizontal
    diameter and the chordal ratio r - r|x - a| / sqrt(2yr - y^2) below it."""
    fa, fr = float(a), float(r)
    disc = _disc_ref(a, r, r)

    def value(x, y):
        if y[0] == 0:
            return fr if x[0] == a else 0.0
        v = disc(x, y)
        if v == 0.0 or y[1] >= fr:
            return v
        return fr - fr * abs(x[1] - fa) / math.sqrt(2 * y[1] * fr - y[1] ** 2)

    return value


def _half_open_ref(a: Fraction, b: Fraction):
    """[a, b): the right gap min(b, x + 1) - x, capped at 1."""

    def value(x):
        return float(min(b, x[0] + 1) - x[0]) if a <= x[0] < b else 0.0

    return value


def _reference(lat: Lattice):
    """Value function of a lattice's set at (exact, float) coordinate pairs."""
    spec = json.loads(lat.set_json)
    refs = []
    for c in spec.get("components", [spec]):
        args = {k: Fraction(v) for k, v in c.items() if k != "kind"}
        make = {"tangent_disc": _tangent_ref, "interior_disc": _disc_ref, "half_open": _half_open_ref}
        refs.append(make[c["kind"]](**args))
    return lambda *pt: max(ref(*pt) for ref in refs)


def _lattice_points(lat: Lattice) -> list[tuple]:
    """The coordinates sample-grid visits, in row order, as (exact, float) pairs."""
    bbox = [Fraction(v) for v in lat.bbox.split(",")]
    res = [int(v) for v in lat.res.split("x")]

    def axis(lo, hi, n):
        return [(c, float(c)) for c in (lo + (hi - lo) * Fraction(i, n) for i in range(n))]

    if len(res) == 1:
        return [(x,) for x in axis(bbox[0], bbox[1], res[0])]
    xs, ys = axis(bbox[0], bbox[1], res[0]), axis(bbox[2], bbox[3], res[1])
    return [(x, y) for y in ys for x in xs]


def check_csv(lat: Lattice, data: bytes) -> list[str]:
    """Problems with one lattice's CSV: layout, coordinates, values vs. reference."""
    lines = data.decode().splitlines()
    points = _lattice_points(lat)
    header = "x,value" if len(points[0]) == 1 else "x,y,value"
    if not lines or lines[0] != header or len(lines) != len(points) + 1:
        return [f"{lat.name}: bad header or {len(lines) - 1} rows for {len(points)} points"]
    ref = _reference(lat)
    bad = 0
    for line, pt in zip(lines[1:], points):
        *coords, value = (float(v) for v in line.split(","))
        if coords != [c[1] for c in pt] or abs(value - ref(*pt)) > EPS:
            bad += 1
    return [f"{lat.name}: {bad} rows off the reference"] if bad else []


def compare_modes(exact: bytes, floats: bytes) -> tuple[list[str], float, int]:
    """Row-by-row agreement of the exact and float lattices within EPS."""
    a, b = exact.decode().splitlines(), floats.decode().splitlines()
    if len(a) != len(b):
        return [f"exact/float row counts differ: {len(a)} vs {len(b)}"], math.inf, 0
    worst, differing, bad = 0.0, 0, 0
    for ra, rb in zip(a[1:], b[1:]):
        *ca, va = ra.split(",")
        *cb, vb = rb.split(",")
        diff = abs(float(va) - float(vb))
        worst = max(worst, diff)
        differing += diff > 0
        bad += ca != cb or diff > EPS
    problems = [f"exact/float lattices disagree on {bad} rows"] if bad else []
    return problems, worst, differing


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Units of one workload; ``run_pass`` times them, ``check_pass`` checks outputs."""

    def __init__(self, name: str, seed: int, out: Path):
        from kappalab import cli

        self.cli = cli
        self.out = out
        self.first_digests = None
        if name == "grid":
            self.units = [(lat.name, lat) for lat in LATTICES]
        else:
            base = Path(str(resources.files("kappalab").joinpath("scenarios")))
            extra = ["--seed", CHECKS_PLAN_SEED] if name == "checks" else []
            self.units = []
            for fname in cli.shipped_scenarios():
                scenario = json.loads((base / fname).read_text())
                argv = ["check", "--scenario", str(base / fname), "--out", str(out), *extra]
                self.units.append((scenario["name"], argv))
        # the workload seed only orders the units; the work itself is fixed
        random.Random(seed).shuffle(self.units)

    def _output(self, name: str, unit) -> Path:
        return self.out / (f"{name}.csv" if isinstance(unit, Lattice) else f"{name}.json")

    def run_pass(self, sink) -> dict:
        """Run every unit once; their raw and scaled seconds and exit codes."""
        probe = SpeedProbe()
        times, codes = {}, {}
        for name, unit in self.units:
            if isinstance(unit, Lattice):
                os.environ["KAPPALAB_MODE"] = unit.mode
                argv = [
                    "sample-grid", "--family", unit.family, "--set", unit.set_json,
                    f"--bbox={unit.bbox}", "--res", unit.res, "--out", str(self._output(name, unit)),
                ]
            else:
                os.environ["KAPPALAB_MODE"] = "exact"
                argv = unit
            times[name] = {}
            try:
                with probe.unit(times[name]), contextlib.redirect_stdout(sink):
                    codes[name] = self.cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                codes[name] = None
        return {"unit_s": times, "codes": codes}

    def check_pass(self, codes: dict, full: bool) -> tuple[dict, list[str], dict]:
        """Per-unit outcome of one pass, the problems found and the mode comparison.

        A scenario's operations are its check results; one fails when its
        verdict differs from the scenario's expectation. A lattice is one
        operation. A unit whose command exits non-zero or, with ``full``,
        whose CSV fails its check fails at least one operation. Each unit's
        output is identified by its sha256 so passes can be compared.
        """
        outputs = {}
        for name, unit in self.units:
            path = self._output(name, unit)
            outputs[name] = path.read_bytes() if path.exists() else b""
            path.unlink(missing_ok=True)
        mode_problems, modes = [], {}
        if full and "readme_float" in outputs:
            mode_problems, worst, differing = compare_modes(
                outputs["readme_exact"], outputs["readme_float"]
            )
            modes = {"max_abs_diff": worst, "rows_differing": differing}
        units, problems = {}, []
        for name, unit in self.units:
            data = outputs[name]
            bad = [] if codes[name] == 0 else [f"{name}: exit code {codes[name]}"]
            if isinstance(unit, Lattice):
                ops = max(data.count(b"\n") - 1, 0)
                if full:
                    bad += check_csv(unit, data)
                if name == "readme_float":
                    bad += mode_problems
                attempted, failed = 1, 1 if bad else 0
            else:
                results = json.loads(data)["results"] if data else []
                mismatched = [
                    f"{name}: {r['key']} verdict {r['verdict']}, expected {r['expected']}"
                    for r in results
                    if r["verdict"] != r["expected"]
                ]
                bad += mismatched
                ops = len(results)
                attempted, failed = max(ops, 1), max(len(mismatched), 1 if bad else 0)
            units[name] = {"attempted": attempted, "failed": failed, "ops": ops,
                           "sha256": hashlib.sha256(data).hexdigest()}
            problems += bad
        return units, problems, modes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "checks", "grid"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for the program's outputs")
    ap.add_argument("--trace", action="store_true", help="record per-layer spans")
    ap.add_argument("--setup-only", action="store_true", help="exit once ready to run")
    ap.add_argument("--full-check", action="store_true",
                    help="also check each CSV against the reference values")
    ap.add_argument("--spans", help="where a traced pass writes its kept spans")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workload = Workload(args.workload, args.seed, out)
    tracer = None
    if args.trace:
        from trace_layers import Tracer, install

        tracer = Tracer()
        install(tracer)
    ready = time.monotonic()
    scale = speed_scale()
    if args.setup_only:
        print(json.dumps({"ready": ready, "speed_scale": scale}))
        return 0

    with open(os.devnull, "w") as sink:
        timing = workload.run_pass(sink)
    units, problems, modes = workload.check_pass(timing["codes"], args.full_check)
    for name, unit_timing in timing["unit_s"].items():
        units[name].update(unit_timing)
    import numpy

    result = {
        "ready": ready,
        "speed_scale": scale,
        "wall_s": sum(u["seconds"] for u in units.values()),
        "raw_wall_s": sum(u["raw_s"] for u in units.values()),
        "units": units,
        "problems": problems,
        "modes": modes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        from trace_layers import layer_metrics

        # layer times at the reference speed too, by the pass's overall scale
        scale_ms = result["wall_s"] / result["raw_wall_s"]
        result["layers"] = {
            name: value * scale_ms if name.endswith("_ms") else value
            for name, value in layer_metrics(tracer).items()
        }
        if args.spans:
            spans = [
                {"id": i, "parent": parent, "name": name, "start_s": t0, "end_s": t1}
                for i, parent, name, t0, t1 in tracer.kept
            ]
            Path(args.spans).write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
