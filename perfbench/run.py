"""kappalab benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload corpus|checks|grid --seed N \\
        --seconds S --trace 0|1

Run from the root of a kappalab source tree; the program is imported from
``src/``. Each pass of the workload's fixed work runs in a fresh interpreter
started by this script (``worker.py``), one at a time, single-threaded, and
passes repeat until their timed total reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``.
Every time is scaled to a reference host speed, measured in each worker by
bursts of fixed work (``worker.SpeedProbe``); the raw times are printed on
the ``env`` line. ``setup_s`` is the median over several fresh interpreters
of the time from starting the interpreter to the first timed call; ``wall_s`` and
``ops_per_s`` are medians over the passes, and ``slowest_unit_s`` is the
largest of the units' median times; ``peak_rss_mb`` is the largest peak
resident set size of a pass.
``--trace 1`` runs the passes untraced and then traced, and prints the
per-layer metrics of a pass plus ``trace.overhead_s``, the difference in
scaled ``wall_s``. The last traced pass writes its spans of 1 ms or more to
``.perfbench_work/spans-<workload>-seed<N>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every output check passed, 1 when one failed and 2 when the run could
not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

from trace_layers import metric_names

ROOT = Path(__file__).resolve().parent.parent
#: Interpreters per run that only set up, timed besides the passes' own set-up.
SETUP_PROBES = 10
#: Every worker must have ended this long after the run started.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def _worker(args, work: Path, started: float, *extra: str) -> tuple[dict, float]:
    """Run worker.py once; its JSON result and its scaled set-up time in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # no worker threads: one core does the workload
    cmd = [
        sys.executable, str(Path(__file__).with_name("worker.py")),
        "--workload", args.workload, "--seed", str(args.seed), "--out", str(work), *extra,
    ]
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return result, (result["ready"] - spawned) * result["speed_scale"]


def run_passes(args, work: Path, started: float, *extra: str,
               reference: dict | None = None) -> tuple[list[dict], list[float]]:
    """Passes, each in a fresh worker, until their raw timed total reaches --seconds.

    The first pass also checks every CSV against the reference values. Every
    pass must reproduce the outputs of ``reference``, by default the first
    pass, byte for byte; a unit that does not fails at least one of its
    operations.
    """
    passes, setups = [], []
    while not passes or sum(p["raw_wall_s"] for p in passes) < args.seconds:
        full_check = () if passes else ("--full-check",)
        result, setup = _worker(args, work, started, *extra, *full_check)
        reference = reference or result
        for name, unit in result["units"].items():
            if unit["sha256"] != reference["units"][name]["sha256"]:
                unit["failed"] = max(unit["failed"], 1)
                result["problems"].append(f"{name}: output bytes differ from the first pass")
        passes.append(result)
        setups.append(setup)
    return passes, setups


def end_to_end(args, work: Path, started: float) -> tuple[dict, list[dict]]:
    setups = [_worker(args, work, started, "--setup-only")[1] for _ in range(SETUP_PROBES)]
    passes, pass_setups = run_passes(args, work, started)
    names = passes[0]["units"]
    metrics = {
        "setup_s": median(setups + pass_setups),
        "wall_s": median(p["wall_s"] for p in passes),
        "ops_per_s": median(sum(u["ops"] for u in p["units"].values()) / p["wall_s"] for p in passes),
        "slowest_unit_s": max(median(p["units"][n]["seconds"] for p in passes) for n in names),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def per_layer(args, work: Path, started: float) -> tuple[dict, list[dict]]:
    plain, _ = run_passes(args, work, started)
    spans = ROOT / ".perfbench_work" / f"spans-{args.workload}-seed{args.seed}.json"
    # tracing must not change a byte of the outputs
    traced, _ = run_passes(args, work, started, "--trace", "--spans", str(spans), reference=plain[0])
    # every pass does the same work, so the counts agree and the times are averaged
    metrics = {name: mean(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    metrics["trace.overhead_s"] = median(p["wall_s"] for p in traced) - median(
        p["wall_s"] for p in plain
    )
    return metrics, plain + traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "checks", "grid"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "kappalab" / "cli.py").is_file():
        print(f"perfbench: no kappalab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace and {m["name"] for m in wanted} != {name for name, _ in metric_names()}:
        print("perfbench: BENCHMARK.json per_layer does not match the tracer", file=sys.stderr)
        return 2

    load_start = os.getloadavg()
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, passes = measure(args, work, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "pass_raw_wall_s": [round(p["raw_wall_s"], 4) for p in passes],
        "pass_speed_scale": [round(p["speed_scale"], 4) for p in passes],
    }
    print("env " + json.dumps(env))
    if passes[0]["modes"]:
        print("exact_vs_float " + json.dumps(passes[0]["modes"]))
    for problem in (problem for p in passes for problem in p["problems"]):
        print("FAILED " + problem)
    units = [u for p in passes for u in p["units"].values()]
    attempted = sum(u["attempted"] for u in units)
    failed = sum(u["failed"] for u in units)
    out = {}
    for m in wanted:
        value = metrics.get(m["name"], 0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        if not args.trace:
            print(f"{m['name']:<16} {value:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'fail_share':<16} {failed / attempted:.6g} share ({failed} of {attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
