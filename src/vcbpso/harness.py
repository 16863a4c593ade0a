"""Batch experiment orchestration.

An experiment fixes one knapsack instance, computes its exact optimum
once, then runs every (variant, repetition) pair with a seed derived from
the base seed. Results land in an output directory as CSV files:

- ``runs.csv``: one row per run
- ``aggregate.csv``: one row per variant (means over repetitions)
- ``curve_<variant>.csv``: per-iteration mean gbest profit
- ``metrics_<variant>.csv``: per-iteration mean dist / dist_eff and the
  cumulative useless jump volume, averaged over repetitions
- ``trace_<variant>_rep<k>.txt.gz``: full traces (optional)

Seed derivation uses numpy's SeedSequence with the (variant index,
repetition) spawn key, so every run owns an independent, reproducible
PCG64 stream. The runs are therefore stepped in groups, one engine
block each (:func:`group_size`), and the groups go to one forked worker
process per CPU the process may run on; the parent writes every CSV in
spec order, so the outputs are the same bytes as when each run executes
alone and in-process (``taskset -c 0`` gives the in-process path).
"""

from __future__ import annotations

import csv
import os
import re
from dataclasses import dataclass, field

import numpy as np

from . import knapsack, metrics
from .engine import RunConfig, WSchedule, check_run_settings, run_block
# not called here: perfbench/spans.py rebinds ``harness.run`` in its traced
# pass, which fails on a missing name
from .engine import run  # noqa: F401
from .errors import ConfigError, ParseError, ResourceError
from .knapsack import KnapsackInstance, KnapsackObjective
from .trace import RunTrace
from .transfer import TransferKind


@dataclass(frozen=True)
class Variant:
    kind: TransferKind
    correction: bool
    w: WSchedule
    vmax: float | None

    @property
    def label(self) -> str:
        family = "VCv" if self.correction else "VT"
        return f"{family}{self.kind.value[-1]}_w{self.w}"


@dataclass(frozen=True)
class InstanceSource:
    """Either generation parameters or a path to an instance file."""

    path: str | None = None
    instance_type: str | None = None
    n: int | None = None
    r: int | None = None
    s: float | None = None
    seed: int | None = None

    def load(self) -> KnapsackInstance:
        if self.path is not None:
            return knapsack.load_instance(self.path)
        return knapsack.generate(self.instance_type, self.n, self.r,
                                 self.s, self.seed)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, checked when built; frozen, so a changed copy comes
    from ``dataclasses.replace`` and is checked again. ``variants`` is
    stored as a tuple for the same reason."""

    instance: InstanceSource
    variants: tuple[Variant, ...]
    swarm_size: int
    c1: float
    c2: float
    iterations: int
    repetitions: int
    base_seed: int
    output_dir: str
    save_traces: bool = True
    compute_metrics: bool = True

    def __post_init__(self):
        object.__setattr__(self, "variants", tuple(self.variants))
        if not self.variants:
            raise ConfigError("at least one variant is required")
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        for variant in self.variants:
            try:
                check_run_settings(variant.correction, variant.vmax,
                                   variant.w, self.c1, self.c2,
                                   self.swarm_size, self.iterations)
            except ConfigError as exc:
                raise ConfigError(f"variant {variant.label}: {exc}") from None


@dataclass
class RunResult:
    variant: Variant
    repetition: int
    seed: int
    best_profit: float
    ratio: float
    convergence_round: int
    first_discovery_round: int
    pujv: int | None
    gbest_curve: np.ndarray
    dist_curve: np.ndarray | None
    dist_eff_curve: np.ndarray | None
    cum_pujv_curve: np.ndarray | None


@dataclass
class AggregateResult:
    variant: Variant
    optimum: int
    mean_best_profit: float
    ratio: float
    mean_convergence_round: float
    mean_first_discovery_round: float
    mean_pujv: float | None
    mean_gbest_curve: np.ndarray
    mean_dist_curve: np.ndarray | None = None
    mean_dist_eff_curve: np.ndarray | None = None
    mean_cum_pujv_curve: np.ndarray | None = None


def derive_seed(base_seed: int, variant_index: int, repetition: int) -> int:
    ss = np.random.SeedSequence(base_seed,
                                spawn_key=(variant_index, repetition))
    return int(ss.generate_state(1, np.uint64)[0])


# -- config file ---------------------------------------------------------

_KNOWN_KEYS = {
    "instance.type", "instance.n", "instance.r", "instance.s",
    "instance.seed", "instance.path",
    "swarm.size", "swarm.c1", "swarm.c2",
    "run.iterations", "run.repetitions", "run.base_seed",
    "variants", "output.dir", "output.traces", "output.metrics",
}

_BOOL = {"on": True, "true": True, "1": True,
         "off": False, "false": False, "0": False}


def _parse_variant(text: str, where: str) -> Variant:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ParseError(f"{where}: variant needs 'kind,correction,w,vmax', "
                         f"got {text!r}")
    kind_txt, corr_txt, w_txt, vmax_txt = parts
    try:
        kind = TransferKind(kind_txt.upper())
    except ValueError:
        raise ParseError(f"{where}: unknown transfer kind {kind_txt!r}") from None
    if corr_txt.lower() not in _BOOL:
        raise ParseError(f"{where}: bad correction flag {corr_txt!r}")
    correction = _BOOL[corr_txt.lower()]
    try:
        w = WSchedule.parse(w_txt)
    except ConfigError as exc:
        raise ParseError(f"{where}: {exc}") from None
    if vmax_txt.lower() in ("none", "-"):
        vmax = None
    else:
        try:
            vmax = float(vmax_txt)
        except ValueError:
            raise ParseError(f"{where}: bad vmax {vmax_txt!r}") from None
    return Variant(kind, correction, w, vmax)


def parse_config(text: str) -> ExperimentSpec:
    """Parse the line-oriented ``key = value`` experiment format.

    Unknown keys are rejected. Values may be double-quoted. ``variants``
    holds semicolon-separated ``kind,correction,w,vmax`` tuples; ``w``
    accepts "a" and "a-b" notation; ``vmax`` is a number or ``none``.
    """
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if len(value) >= 2 and value[0] == value[-1] == '"':
            value = value[1:-1]
        if key not in _KNOWN_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = (value, lineno)

    def take(key, convert, default=None, required=False):
        if key not in values:
            if required:
                raise ParseError(f"missing required key {key!r}")
            return default
        value, lineno = values[key]
        try:
            return convert(value)
        except (ValueError, ConfigError) as exc:
            raise ParseError(f"line {lineno}: key {key!r}: {exc}") from None

    if "instance.path" in values:
        for key in ("instance.type", "instance.n", "instance.r",
                    "instance.s", "instance.seed"):
            if key in values:
                raise ParseError(
                    f"line {values[key][1]}: {key!r} conflicts with instance.path")
        source = InstanceSource(path=values["instance.path"][0])
    else:
        source = InstanceSource(
            instance_type=take("instance.type", str, required=True),
            n=take("instance.n", int, required=True),
            r=take("instance.r", int, required=True),
            s=take("instance.s", float, required=True),
            seed=take("instance.seed", int, required=True),
        )

    variants_raw, vline = values.get("variants", ("", 0))
    variant_texts = [t for t in (s.strip() for s in variants_raw.split(";")) if t]
    if not variant_texts:
        raise ParseError("key 'variants' must list at least one variant")
    variants = [_parse_variant(t, f"line {vline}") for t in variant_texts]

    def boolean(value):
        if value.lower() not in _BOOL:
            raise ValueError(f"expected on/off, got {value!r}")
        return _BOOL[value.lower()]

    try:
        return ExperimentSpec(
            instance=source,
            variants=variants,
            swarm_size=take("swarm.size", int, default=20),
            c1=take("swarm.c1", float, default=2.0),
            c2=take("swarm.c2", float, default=2.0),
            iterations=take("run.iterations", int, required=True),
            repetitions=take("run.repetitions", int, required=True),
            base_seed=take("run.base_seed", int, required=True),
            output_dir=take("output.dir", str, required=True),
            save_traces=take("output.traces", boolean, default=True),
            compute_metrics=take("output.metrics", boolean, default=True),
        )
    except ConfigError as exc:
        raise ParseError(str(exc)) from None


# -- execution -----------------------------------------------------------

def _safe_label(label: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", label)


def _run_config(spec: ExperimentSpec, variant_index: int, repetition: int,
                dimensions: int) -> RunConfig:
    variant = spec.variants[variant_index]
    return RunConfig(
        kind=variant.kind,
        correction_enabled=variant.correction,
        w=variant.w,
        vmax=variant.vmax,
        c1=spec.c1,
        c2=spec.c2,
        swarm_size=spec.swarm_size,
        dimensions=dimensions,
        max_iterations=spec.iterations,
        seed=derive_seed(spec.base_seed, variant_index, repetition),
    )


def _execute_group(spec: ExperimentSpec, pairs: list[tuple[int, int]],
                   objective: KnapsackObjective,
                   optimum: int) -> list[RunResult]:
    """The (variant index, repetition) runs of one group, stepped as one
    block, in the order of ``pairs``."""
    configs = [_run_config(spec, vi, rep, objective.dimensions)
               for vi, rep in pairs]
    # only the trace files and the exploration metrics read positions
    traces = run_block(configs, objective,
                       keep_positions=spec.save_traces or spec.compute_metrics)
    return [_run_result(spec, spec.variants[vi], rep, config.seed, trace,
                        optimum)
            for (vi, rep), config, trace in zip(pairs, configs, traces)]


def _run_result(spec: ExperimentSpec, variant: Variant, repetition: int,
                seed: int, trace: RunTrace, optimum: int) -> RunResult:
    if spec.save_traces:
        name = f"trace_{_safe_label(variant.label)}_rep{repetition}.txt.gz"
        trace.save(os.path.join(spec.output_dir, name))
    best = float(trace.gbest_fitness[-1])
    dist_curve = dist_eff_curve = cum_curve = None
    total_pujv = None
    if spec.compute_metrics and spec.iterations >= 1:
        d = metrics.dist_matrix(trace)
        e = metrics.dist_eff_matrix(trace)
        dist_curve = d.mean(axis=1)
        dist_eff_curve = e.mean(axis=1)
        cum_curve = np.cumsum((d - e).sum(axis=1))
        total_pujv = int(cum_curve[-1])
    return RunResult(
        variant=variant,
        repetition=repetition,
        seed=seed,
        best_profit=best,
        ratio=best / optimum,
        convergence_round=metrics.convergence_round(trace),
        first_discovery_round=metrics.first_discovery_round(trace),
        pujv=total_pujv,
        gbest_curve=trace.gbest_fitness.copy(),
        dist_curve=dist_curve,
        dist_eff_curve=dist_eff_curve,
        cum_pujv_curve=cum_curve,
    )


def _aggregate(variant: Variant, runs: list[RunResult],
               optimum: int) -> AggregateResult:
    mean_best = float(np.mean([r.best_profit for r in runs]))
    agg = AggregateResult(
        variant=variant,
        optimum=optimum,
        mean_best_profit=mean_best,
        ratio=mean_best / optimum,
        mean_convergence_round=float(np.mean([r.convergence_round for r in runs])),
        mean_first_discovery_round=float(
            np.mean([r.first_discovery_round for r in runs])),
        mean_pujv=(float(np.mean([r.pujv for r in runs]))
                   if runs[0].pujv is not None else None),
        mean_gbest_curve=np.mean([r.gbest_curve for r in runs], axis=0),
    )
    if runs[0].dist_curve is not None:
        agg.mean_dist_curve = np.mean([r.dist_curve for r in runs], axis=0)
        agg.mean_dist_eff_curve = np.mean([r.dist_eff_curve for r in runs], axis=0)
        agg.mean_cum_pujv_curve = np.mean([r.cum_pujv_curve for r in runs], axis=0)
    return agg


def _worker_count(runs: int) -> int:
    """One worker per CPU this process may run on, at most one per run."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, runs)


# Particles x dimensions of one run group. Stepping runs as one block pays
# numpy's per-call cost once for the group: at d=100, m=20 blocks of 4
# runs stepped 1.6-1.8x faster than the same runs one by one, while at
# d=500 blocks of 2 read 0.93-1.18x across sessions (BENCH_5.json). This
# gives 4 runs at d=100, m=20 and 1 at d=500.
GROUP_ELEMENTS = 8000


def group_size(runs: int, workers: int, swarm_size: int,
               dimensions: int) -> int:
    """Runs per group: as many as fit GROUP_ELEMENTS, at least 1, and few
    enough that ``runs`` make at least ``workers`` groups."""
    return max(1, min(GROUP_ELEMENTS // (swarm_size * dimensions),
                      runs // workers))


# (spec, objective, optimum) of the experiment a forked worker serves;
# set only in the workers, by _init_worker
_worker_state = None


def _init_worker(spec: ExperimentSpec, objective: KnapsackObjective,
                 optimum: int) -> None:
    global _worker_state
    _worker_state = (spec, objective, optimum)


def _run_in_worker(pairs: list[tuple[int, int]]) -> list[RunResult]:
    spec, objective, optimum = _worker_state
    return _execute_group(spec, pairs, objective, optimum)


def _execute_runs(spec: ExperimentSpec, objective: KnapsackObjective,
                  optimum: int) -> list[RunResult]:
    """Every (variant, repetition) run, in spec order.

    Each run owns its seed, so neither the order in which they execute
    nor the block they are stepped in changes a result. The runs are
    sorted by transfer kind (so that a group's runs share ``sigm`` calls)
    and cut into groups of :func:`group_size`. With more than one CPU
    available the groups run on a pool of forked workers; the error of
    the first group, in that order, that raises is raised here, and a
    worker that dies becomes a :class:`ResourceError`.
    """
    pairs = [(vi, rep) for vi in range(len(spec.variants))
             for rep in range(spec.repetitions)]
    workers = _worker_count(len(pairs))
    size = group_size(len(pairs), workers, spec.swarm_size,
                      objective.dimensions)
    order = sorted(range(len(pairs)),
                   key=lambda i: spec.variants[pairs[i][0]].kind.value)
    groups = [order[i:i + size] for i in range(0, len(order), size)]
    tasks = [[pairs[i] for i in group] for group in groups]
    if workers == 1:
        done = [_execute_group(spec, task, objective, optimum)
                for task in tasks]
    else:
        done = _run_on_pool(workers, tasks, spec, objective, optimum)
    results = [None] * len(pairs)
    for group, group_results in zip(groups, done):
        for i, result in zip(group, group_results):
            results[i] = result
    return results


def _run_on_pool(workers: int, tasks: list[list[tuple[int, int]]],
                 spec: ExperimentSpec, objective: KnapsackObjective,
                 optimum: int) -> list[list[RunResult]]:
    """Each task's results, from a pool of ``workers`` forked workers."""
    # imported here, so that `import vcbpso` does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: the workers inherit the spec, the objective and the
    # optimum (and every name rebound in this process), so nothing is
    # pickled on the way in; the package starts no thread of its own
    with ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker,
                             initargs=(spec, objective, optimum)) as pool:
        futures = [pool.submit(_run_in_worker, task) for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException as exc:
            pool.shutdown(cancel_futures=True)
            if isinstance(exc, BrokenProcessPool):
                raise ResourceError(
                    "a worker process died before its runs finished; it "
                    "may have been killed for lack of memory") from exc
            raise


def run_experiment(spec: ExperimentSpec) -> list[AggregateResult]:
    """Execute all variants x repetitions, write CSV artifacts, return
    per-variant aggregates. Deterministic given the spec."""
    instance = spec.instance.load()
    optimum, _ = knapsack.dp_optimal(instance)
    if optimum <= 0:
        raise ConfigError("instance optimum is 0; ratios are undefined")
    objective = KnapsackObjective(instance)
    os.makedirs(spec.output_dir, exist_ok=True)

    all_runs = _execute_runs(spec, objective, optimum)
    reps = spec.repetitions
    aggregates = [
        _aggregate(variant, all_runs[vi * reps:(vi + 1) * reps], optimum)
        for vi, variant in enumerate(spec.variants)
    ]

    _write_runs_csv(os.path.join(spec.output_dir, "runs.csv"), all_runs)
    _write_aggregate_csv(os.path.join(spec.output_dir, "aggregate.csv"),
                         aggregates)
    for agg in aggregates:
        label = _safe_label(agg.variant.label)
        _write_curve_csv(
            os.path.join(spec.output_dir, f"curve_{label}.csv"), agg)
        if agg.mean_dist_curve is not None:
            metrics.write_aggregate_metrics_csv(
                agg.mean_dist_curve, agg.mean_dist_eff_curve,
                agg.mean_cum_pujv_curve,
                os.path.join(spec.output_dir, f"metrics_{label}.csv"))
    return aggregates


def paired(aggregates: list[AggregateResult]
           ) -> list[tuple[TransferKind, AggregateResult, AggregateResult]]:
    """(kind, corrected, uncorrected) per transfer kind, in the order the
    kinds first appear, when each listed kind has exactly one corrected
    and one uncorrected variant; otherwise []."""
    by_kind: dict[TransferKind, list[AggregateResult]] = {}
    for agg in aggregates:
        by_kind.setdefault(agg.variant.kind, []).append(agg)
    out = []
    for kind, aggs in by_kind.items():
        corrected = [a for a in aggs if a.variant.correction]
        uncorrected = [a for a in aggs if not a.variant.correction]
        if len(corrected) != 1 or len(uncorrected) != 1:
            return []
        out.append((kind, corrected[0], uncorrected[0]))
    return out


def _write_runs_csv(path, runs: list[RunResult]) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["variant", "repetition", "seed", "best_profit", "ratio",
                      "convergence_round", "first_discovery_round", "pujv"])
        for r in runs:
            out.writerow([
                r.variant.label, r.repetition, r.seed, repr(r.best_profit),
                repr(r.ratio), r.convergence_round, r.first_discovery_round,
                "" if r.pujv is None else r.pujv,
            ])


def _write_aggregate_csv(path, aggregates: list[AggregateResult]) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["variant", "mean_best_profit", "ratio",
                      "mean_convergence_round", "mean_first_discovery_round",
                      "mean_pujv"])
        for a in aggregates:
            out.writerow([
                a.variant.label, repr(a.mean_best_profit), repr(a.ratio),
                repr(a.mean_convergence_round),
                repr(a.mean_first_discovery_round),
                "" if a.mean_pujv is None else repr(a.mean_pujv),
            ])


def _write_curve_csv(path, agg: AggregateResult) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["iteration", "mean_gbest"])
        for k, g in enumerate(agg.mean_gbest_curve):
            out.writerow([k, repr(float(g))])

