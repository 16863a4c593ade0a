"""vcbpso benchmark: one workload, end-to-end or per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload archive-d100 --seed 0 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` (median over fresh interpreters that import vcbpso, generate
the instance and solve its DP), ``wall_s`` (median wall time of one pass),
``peak_rss_mb``, ``mean_ratio`` and ``ok_run_frac``. ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
the median traced pass (see ``layers.py``); its spans are written to
``.perfbench-work/spans-<workload>.csv``. Passes repeat until
``--seconds`` is used up. The last line of stdout is the JSON result;
the lines before it hold the environment stamp and the output digests.
``--write-pins`` records the digests of one pass at the default seed in
``pins.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import numpy as np

import layers
import workloads
from spans import SpanRecorder, instrumented

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
# Set-up probes run for SETUP_SECONDS and at least SETUP_PROBES times.
SETUP_PROBES = 7
SETUP_SECONDS = 4.0
PROBE_TIMEOUT_S = 60
# Passes a run makes at least: untraced in an end-to-end run; each kind,
# alternating, in a traced run.
MIN_PASSES = 3
MIN_PASSES_TRACED = 2

# A fresh interpreter: import vcbpso, generate the instance, solve the DP.
_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
print(workloads.setup(workloads.WORKLOADS[sys.argv[3]], int(sys.argv[4])))
"""


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
    }


def setup_probe(workload: str, seed: int) -> tuple[float, int]:
    """Wall time of one fresh set-up process and the optimum it printed."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _PROBE, SRC, BENCH_DIR, workload, str(seed)],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return perf_counter() - start, int(done.stdout)


def one_pass(workload, seed: int, traced: bool):
    """(wall seconds, PassOutput or None, SpanRecorder or None)."""
    out_dir = tempfile.mkdtemp(prefix="pass-", dir=WORK_DIR)
    spec = workloads.make_spec(workload, seed, out_dir)
    rec = SpanRecorder() if traced else None
    out = None
    try:
        if traced:
            with instrumented(rec), rec.span("bench.pass"):
                out = workloads.run_pass(spec, workload.cli_metrics)
            wall = rec.total["bench.pass"]
        else:
            start = perf_counter()
            out = workloads.run_pass(spec, workload.cli_metrics)
            wall = perf_counter() - start
    except Exception:
        traceback.print_exc()
        wall = float("nan")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return wall, out, rec


def measure(args, workload, optimum: int, pins: dict | None) -> dict:
    """Run passes until the time budget is used; check every output."""
    expected = pins
    attempted = failed = 0
    problems: list[str] = []
    untraced, traced = [], []       # (wall, recorder)
    first = None
    loads = []
    passes = 0
    start = perf_counter()
    while True:
        is_traced = bool(args.trace) and passes % 2 == 1
        load_before = os.getloadavg()[0]
        wall, out, rec = one_pass(workload, args.seed, is_traced)
        loads.append([load_before, os.getloadavg()[0]])
        passes += 1
        attempted += workload.runs
        if out is None:
            failed += workload.runs
            problems.append("a pass raised")
            break
        bad, notes = workloads.check_pass(workload, out, optimum, expected)
        failed += bad
        problems += notes
        if expected is None:
            expected = workloads.digests(out)
        if first is None:
            first = out
        (traced if is_traced else untraced).append((wall, rec))
        elapsed = perf_counter() - start
        if args.trace:
            enough = min(len(untraced), len(traced)) >= MIN_PASSES_TRACED
        else:
            enough = len(untraced) >= MIN_PASSES
        if enough and elapsed + elapsed / passes > args.seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "untraced": untraced,
        "traced": traced,
        "first": first,
        "loadavg_per_pass": loads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="pin this workload's outputs at the default seed")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vcbpso", "__init__.py")):
        return _fail(f"no vcbpso sources under {SRC}")
    sys.path[:0] = [SRC, BENCH_DIR]
    import vcbpso
    if not os.path.abspath(vcbpso.__file__).startswith(SRC + os.sep):
        return _fail(f"imported vcbpso from {vcbpso.__file__}, not {SRC}")

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.seed < 0:
        return _fail("--seed must be >= 0")
    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.write_pins:
        return write_pins(workload)

    env = environment()

    setup_times = []
    while not args.trace and (len(setup_times) < SETUP_PROBES
                              or sum(setup_times) < SETUP_SECONDS):
        seconds, probe_optimum = setup_probe(workload.name, args.seed)
        setup_times.append(seconds)
    optimum = workloads.setup(workload, args.seed)
    if setup_times and probe_optimum != optimum:
        return _fail(f"set-up probes disagree on the optimum: "
                     f"{probe_optimum} != {optimum}")
    # warm-up: first-call costs of every code path, not measured
    one_pass(dataclasses.replace(workload, iterations=20), args.seed, False)

    pins = workloads.pinned(workload, args.seed, workloads.load_pins())
    result = measure(args, workload, optimum, pins)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env["loadavg_after"] = list(os.getloadavg())
    env["loadavg_1min_per_pass"] = result["loadavg_per_pass"]
    env["pass_walls_s"] = {
        "untraced": [w for w, _ in result["untraced"]],
        "traced": [w for w, _ in result["traced"]],
    }
    env["checked_against"] = "pins" if pins is not None else "invariants"
    print("env " + json.dumps(env))
    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if not result["untraced"] or (args.trace and not result["traced"]):
        return _fail("no pass completed")
    print("digests " + json.dumps(workloads.digests(result["first"])))

    problems = list(result["problems"])
    untraced_wall = statistics.median(w for w, _ in result["untraced"])
    if args.trace:
        values = traced_metrics(result, untraced_wall, workload, problems)
        units = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": untraced_wall,
            "peak_rss_mb": peak_rss_mb,
            "mean_ratio": workloads.mean_ratio(result["first"]),
            "ok_run_frac": 1 - result["failed"] / result["attempted"],
        }
        units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    if values.keys() != units.keys():
        problems.append(f"metrics {sorted(values)} != BENCHMARK.json "
                        f"{sorted(units)}")
    print(json.dumps({
        "correct": not problems and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units.get(name, "")}
                    for name, value in values.items()},
    }))
    return 0


def traced_metrics(result, untraced_wall, workload, problems) -> dict:
    """Per-layer metrics of the median traced pass; checks that its self
    times add up to its wall time and that the exact counts repeat."""
    traced = sorted(result["traced"], key=lambda t: t[0])
    wall, rec = traced[(len(traced) - 1) // 2]
    values = layers.per_layer_values(rec, wall, untraced_wall)
    self_sum = sum(rec.self_time.values())
    if abs(self_sum - wall) > 1e-6 * max(wall, 1.0):
        problems.append(f"span self times add up to {self_sum}, "
                        f"not the traced wall {wall}")
    for other_wall, other in traced:
        counts = layers.per_layer_values(other, other_wall, untraced_wall)
        for name in layers.EXACT:
            if counts[name] != values[name]:
                problems.append(f"{name} differs between traced passes")
    print(f"self time by span, traced pass of {wall:.4f} s "
          f"({len(rec.spans)} spans):")
    for name, seconds in sorted(rec.self_time.items(), key=lambda kv: -kv[1]):
        print(f"  {name:40s} {seconds:10.4f} s")
    print(f"  {'sum':40s} {self_sum:10.4f} s")
    rec.write_csv(os.path.join(WORK_DIR, f"spans-{workload.name}.csv"))
    return values


def write_pins(workload) -> int:
    seed = workloads.DEFAULT_SEED
    optimum = workloads.setup(workload, seed)
    _, out, _ = one_pass(workload, seed, False)
    if out is None:
        return _fail("the pass raised; nothing pinned")
    failed, problems = workloads.check_pass(workload, out, optimum, None)
    if failed or problems:
        return _fail("; ".join(problems))
    try:
        pins = workloads.load_pins()
    except FileNotFoundError:
        pins = {"workloads": {}}
    if pins.get("numpy") not in (None, np.__version__):
        pins["workloads"] = {}
    pins["numpy"] = np.__version__
    pins["seed"] = seed
    pins["workloads"][workload.name] = workloads.digests(out)
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {workload.name} at seed {seed}, numpy {np.__version__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
