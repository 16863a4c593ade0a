"""The benchmark workloads, one pass of each, and its output check.

Every workload is the acceptance protocol of ``tests/test_acceptance.py``
(UCI instance, R=1000, S=0.5, m=20, c1=c2=2, T=1000, the 8 per-kind best
variants) cut to one repetition per variant, so that one pass fits
several times into a run. A pass is one ``harness.run_experiment`` call,
followed on ``archive-d100`` by ``vcbpso metrics --trace`` on every saved
trace.

The workload seed derives the instance seed and the base seed; seed 0
reproduces the acceptance seeds (20260823 / 99). At seed 0 the outputs
are compared with the digests pinned in ``pins.json``; at any other seed
every best profit must lie in (0, DP optimum] and every ratio must equal
best / optimum.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 0
INSTANCE_SEED = 20260823
BASE_SEED = 99

# Per-kind best inertia schedules, as in tests/test_acceptance.py
# (VT1..VT4; corrected variants run without vmax, uncorrected with 5.0).
BEST_D100 = {
    "corrected": ["1.0", "1.0", "1.2-0.99", "1.2-0.99"],
    "uncorrected": ["0.6", "1.0-0.4", "1.0-0.4", "1.0-0.4"],
}
BEST_D500 = {
    "corrected": ["1.0-0.99", "1.0-0.99", "1.1-0.99", "1.1-0.99"],
    "uncorrected": ["0.6", "0.9-0.4", "0.6", "0.9-0.4"],
}
UNCORRECTED_VMAX = 5.0

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")


@dataclass(frozen=True)
class Workload:
    name: str
    dimensions: int
    schedules: dict
    repetitions: int
    compute_metrics: bool
    save_traces: bool
    why: str
    iterations: int = 1000

    @property
    def cli_metrics(self) -> bool:
        return self.save_traces

    @property
    def runs(self) -> int:
        return 8 * self.repetitions


WORKLOADS = {w.name: w for w in [
    Workload("scale-d500", 500, BEST_D500, 1, False, False,
             "d=500 protocol, metrics and traces off: engine, transfer and "
             "repair do the work; metrics must not move"),
    Workload("archive-d100", 100, BEST_D100, 1, False, True,
             "d=100 protocol saving traces, then `vcbpso metrics` on each: "
             "engine, trace I/O, dist_eff_matrix from disk and the CLI"),
]}


def seeds(seed: int) -> tuple[int, int]:
    """(instance seed, base seed) of a workload seed."""
    if seed < 0:
        raise ValueError(f"workload seed must be >= 0, got {seed}")
    return INSTANCE_SEED + seed, BASE_SEED + seed


def make_spec(workload: Workload, seed: int, output_dir: str):
    from vcbpso.engine import WSchedule
    from vcbpso.harness import ExperimentSpec, InstanceSource, Variant
    from vcbpso.transfer import TransferKind

    instance_seed, base_seed = seeds(seed)
    kinds = list(TransferKind)
    variants = [Variant(k, True, WSchedule.parse(w), None)
                for k, w in zip(kinds, workload.schedules["corrected"])]
    variants += [Variant(k, False, WSchedule.parse(w), UNCORRECTED_VMAX)
                 for k, w in zip(kinds, workload.schedules["uncorrected"])]
    return ExperimentSpec(
        instance=InstanceSource(instance_type="UCI", n=workload.dimensions,
                                r=1000, s=0.5, seed=instance_seed),
        variants=variants,
        swarm_size=20,
        c1=2.0,
        c2=2.0,
        iterations=workload.iterations,
        repetitions=workload.repetitions,
        base_seed=base_seed,
        output_dir=output_dir,
        save_traces=workload.save_traces,
        compute_metrics=workload.compute_metrics,
    )


def setup(workload: Workload, seed: int) -> int:
    """The set-up a user pays once: instance generation and DP optimum."""
    from vcbpso import knapsack

    instance = make_spec(workload, seed, "").instance.load()
    return knapsack.dp_optimal(instance)[0]


@dataclass
class PassOutput:
    runs_csv: bytes
    aggregate_csv: bytes
    optimum: int
    cli: dict[str, str]   # trace file name -> digest of the CLI outputs
    cli_pujv: dict[str, int | None]


def run_pass(spec, cli_metrics: bool) -> PassOutput:
    """One pass through the user paths. Callers time this call."""
    import vcbpso.harness

    aggregates = vcbpso.harness.run_experiment(spec)
    cli, pujv = {}, {}
    if cli_metrics:
        for name in sorted(os.listdir(spec.output_dir)):
            if name.startswith("trace_") and name.endswith(".txt.gz"):
                cli[name], pujv[name] = _cli_metrics(
                    os.path.join(spec.output_dir, name))
    with open(os.path.join(spec.output_dir, "runs.csv"), "rb") as fh:
        runs_csv = fh.read()
    with open(os.path.join(spec.output_dir, "aggregate.csv"), "rb") as fh:
        aggregate_csv = fh.read()
    return PassOutput(runs_csv, aggregate_csv, aggregates[0].optimum,
                      cli, pujv)


def _cli_metrics(trace_path: str) -> tuple[str, int | None]:
    """Run ``vcbpso metrics --trace``; digest its stdout and both CSVs."""
    import vcbpso.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = vcbpso.cli.main(["metrics", "--trace", trace_path])
    if code != 0:
        return f"exit {code}", None
    base = trace_path[: -len(".txt.gz")]
    digest = hashlib.sha256(out.getvalue().encode())
    for suffix in ("_particle_metrics.csv", "_aggregate_metrics.csv"):
        with open(base + suffix, "rb") as fh:
            digest.update(fh.read())
    try:
        pujv = int(out.getvalue())
    except ValueError:
        pujv = None
    return digest.hexdigest(), pujv


# -- output check ---------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(out: PassOutput) -> dict:
    """What pins.json holds for a workload, and what every run prints."""
    rows = out.runs_csv.decode().splitlines()[1:]
    return {
        "runs_csv": sha256(out.runs_csv),
        "aggregate_csv": sha256(out.aggregate_csv),
        "rows": [sha256(row.encode()) for row in rows],
        "cli": out.cli,
    }


def load_pins() -> dict:
    with open(PINS_PATH) as fh:
        return json.load(fh)


def pinned(workload: Workload, seed: int, pins: dict) -> dict | None:
    """The pinned digests that apply to this run, or None."""
    import numpy as np

    if seed != DEFAULT_SEED or pins.get("numpy") != np.__version__:
        return None
    return pins["workloads"].get(workload.name)


def _trace_name(row: dict) -> str:
    return f"trace_{row['variant']}_rep{row['repetition']}.txt.gz"


def check_pass(workload: Workload, out: PassOutput, optimum: int,
               expected: dict | None) -> tuple[int, list[str]]:
    """(failed runs, problems) of one pass.

    Every run must have a best profit in (0, optimum] and a ratio equal to
    best / optimum, and on ``archive-d100`` a CLI call that succeeded.
    When ``expected`` digests are given (the pins, or an earlier pass of
    the same run), every run's row and CLI outputs must also match them.
    """
    problems = []
    if out.optimum != optimum:
        problems.append(f"harness optimum {out.optimum} != set-up {optimum}")
    text = out.runs_csv.decode()
    rows = list(csv.DictReader(io.StringIO(text)))
    lines = text.splitlines()[1:]
    if len(rows) != workload.runs:
        problems.append(f"runs.csv has {len(rows)} rows, "
                        f"expected {workload.runs}")
    failed = max(workload.runs - len(rows), 0)
    for i, (row, line) in enumerate(zip(rows, lines)):
        best = float(row["best_profit"])
        ok = 0 < best <= optimum and float(row["ratio"]) == best / optimum
        trace = _trace_name(row)
        if workload.cli_metrics:
            pujv = out.cli_pujv.get(trace)
            ok = ok and pujv is not None and pujv >= 0
        if expected is not None:
            ok = (ok and i < len(expected["rows"])
                  and sha256(line.encode()) == expected["rows"][i]
                  and out.cli.get(trace) == expected["cli"].get(trace))
        if not ok:
            failed += 1
            problems.append(f"run {i} ({row['variant']} rep "
                            f"{row['repetition']}) is wrong")
    if expected is not None:
        for name in ("runs_csv", "aggregate_csv"):
            if digests(out)[name] != expected[name]:
                problems.append(f"{name} digest differs")
    return failed, problems


def mean_ratio(out: PassOutput) -> float:
    rows = list(csv.DictReader(io.StringIO(out.runs_csv.decode())))
    return sum(float(r["ratio"]) for r in rows) / len(rows)
