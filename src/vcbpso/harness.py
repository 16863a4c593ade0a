"""Batch experiment orchestration: an experiment fixes one knapsack
instance, computes its exact optimum once, runs every (variant,
repetition) pair with a seed derived from the base seed and writes the
files of :mod:`vcbpso.results`.

Seed derivation uses numpy's SeedSequence with the (variant index,
repetition) spawn key, so every run owns an independent, reproducible
PCG64 stream. The runs are therefore stepped in groups, one engine
block each (:func:`group_size`), on one forked worker per CPU the
process may run on; each task carries all it reads as arguments. The
parent writes every CSV in spec order, so the outputs are the same
bytes as when each run executes alone and in-process (``taskset -c 0``
gives the in-process path).

A config file is ``key = value`` lines; :data:`KEYS` declares each key
once, with the spec field it sets and the conversion of its text, and
each default lives in its dataclass. :func:`parse_config` names the file
in every refusal.
"""

from __future__ import annotations

import os
from dataclasses import MISSING, dataclass

import numpy as np

from . import knapsack, metrics, results
from .engine import (STEP_BYTES, RunConfig, WSchedule, check_run_settings,
                     run_block)
# not called here: perfbench/spans.py rebinds ``harness.run`` in its traced
# pass, which fails on a missing name
from .engine import run  # noqa: F401
from .errors import ConfigError, ParseError, ResourceError, check_memory
from .knapsack import KnapsackInstance, KnapsackObjective
from .trace import SAVE_BYTES, RunTrace, TraceBuilder, read_lines
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
    """A path to an instance file, or all five generation parameters;
    checked when built. Its fields are the ``instance.*`` keys."""

    path: str | None = None
    instance_type: str | None = None
    n: int | None = None
    r: int | None = None
    s: float | None = None
    seed: int | None = None

    def __post_init__(self):
        keys = [key for key in KEYS if key.startswith("instance.")]
        given = [key for key in keys if getattr(self, KEYS[key][0]) is not None]
        if given != ["instance.path"] and given != list(keys[1:]):
            raise ConfigError(f"the instance needs instance.path alone or all "
                              f"of {', '.join(keys[1:])}; got "
                              f"{', '.join(given) or 'none'}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"instance.seed must be >= 0, got {self.seed}")

    def load(self) -> KnapsackInstance:
        if self.path is not None:
            return knapsack.load_instance(self.path)
        return knapsack.generate(self.instance_type, self.n, self.r,
                                 self.s, self.seed)


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """One experiment, checked when built; frozen, so a changed copy comes
    from ``dataclasses.replace`` and is checked again. ``variants`` is
    stored as a tuple for the same reason."""

    instance: InstanceSource
    variants: tuple[Variant, ...]
    swarm_size: int = 20
    c1: float = 2.0
    c2: float = 2.0
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
        if self.base_seed < 0:
            raise ConfigError(f"run.base_seed must be >= 0, got "
                              f"{self.base_seed}")
        for variant in self.variants:
            try:
                check_run_settings(variant.correction, variant.vmax,
                                   variant.w, self.c1, self.c2,
                                   self.swarm_size, self.iterations)
            except ConfigError as exc:
                raise ConfigError(f"variant {variant.label}: {exc}") from None


def derive_seed(base_seed: int, variant_index: int, repetition: int) -> int:
    ss = np.random.SeedSequence(base_seed,
                                spawn_key=(variant_index, repetition))
    return int(ss.generate_state(1, np.uint64)[0])


# -- config file ---------------------------------------------------------

_BOOL = {"on": True, "true": True, "1": True,
         "off": False, "false": False, "0": False}


def _boolean(text: str) -> bool:
    if text.lower() not in _BOOL:
        raise ValueError(f"expected on/off, got {text!r}")
    return _BOOL[text.lower()]


def _variants(text: str) -> tuple[Variant, ...]:
    """Semicolon-separated ``kind,correction,w,vmax`` tuples; ``w`` is
    "a" or an "a-b" ramp, ``vmax`` a number or ``none``."""
    variants = []
    for item in filter(None, (t.strip() for t in text.split(";"))):
        parts = [p.strip() for p in item.split(",")]
        if len(parts) != 4:
            raise ValueError(f"variant needs 'kind,correction,w,vmax', "
                             f"got {item!r}")
        kind_txt, corr_txt, w_txt, vmax_txt = parts
        try:
            kind = TransferKind(kind_txt.upper())
        except ValueError:
            raise ValueError(f"unknown transfer kind {kind_txt!r}") from None
        if corr_txt.lower() not in _BOOL:
            raise ValueError(f"bad correction flag {corr_txt!r}")
        w = WSchedule.parse(w_txt)
        vmax = None
        if vmax_txt.lower() not in ("none", "-"):
            try:
                vmax = knapsack.real(vmax_txt)
            except ValueError:
                raise ValueError(f"bad vmax {vmax_txt!r}") from None
        variants.append(Variant(kind, _BOOL[corr_txt.lower()], w, vmax))
    if not variants:
        raise ValueError("must list at least one variant")
    return tuple(variants)


# Every config key: the field it sets, on InstanceSource for ``instance.*``
# and on ExperimentSpec otherwise, and the conversion of its text; a
# number is plain decimal, as in instance files. A key is required
# exactly when its field has no default.
KEYS = {
    "instance.path": ("path", str),
    "instance.type": ("instance_type", str),
    "instance.n": ("n", knapsack.integer),
    "instance.r": ("r", knapsack.integer),
    "instance.s": ("s", knapsack.real),
    "instance.seed": ("seed", knapsack.integer),
    "swarm.size": ("swarm_size", knapsack.integer),
    "swarm.c1": ("c1", knapsack.real),
    "swarm.c2": ("c2", knapsack.real),
    "run.iterations": ("iterations", knapsack.integer),
    "run.repetitions": ("repetitions", knapsack.integer),
    "run.base_seed": ("base_seed", knapsack.integer),
    "variants": ("variants", _variants),
    "output.dir": ("output_dir", str),
    "output.traces": ("save_traces", _boolean),
    "output.metrics": ("compute_metrics", _boolean),
}


def parse_config(path) -> ExperimentSpec:
    """The experiment of the line-oriented ``key = value`` file ``path``
    (``#`` comments, values perhaps double-quoted), read with
    :func:`trace.read_lines`. Every refusal is a ParseError that reads
    ``<path>:<line>: ...`` or ``<path>: ...``."""
    given = {}
    for lineno, raw in enumerate(read_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = (part.strip() for part in line.partition("="))
        if len(value) >= 2 and value[0] == value[-1] == '"':
            value = value[1:-1]
        if key not in KEYS:
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        if key in given:
            raise ParseError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            given[key] = KEYS[key][1](value)
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: key {key!r}: {exc}") from None
    kwargs = {InstanceSource: {}, ExperimentSpec: {}}
    for key, (field, _) in KEYS.items():
        owner = InstanceSource if key.startswith("instance.") else ExperimentSpec
        if key in given:
            kwargs[owner][field] = given[key]
        elif owner.__dataclass_fields__[field].default is MISSING:
            raise ParseError(f"{path}: missing required key {key!r}")
    try:
        return ExperimentSpec(instance=InstanceSource(**kwargs[InstanceSource]),
                              **kwargs[ExperimentSpec])
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from None


# -- execution -----------------------------------------------------------

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
                   optimum: int) -> list[results.RunResult]:
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
                seed: int, trace: RunTrace, optimum: int) -> results.RunResult:
    if spec.save_traces:
        name = (f"trace_{results.safe_label(variant.label)}"
                f"_rep{repetition}.txt.gz")
        trace.save(os.path.join(spec.output_dir, name))
    best = float(trace.gbest_fitness[-1])
    dist_curve = dist_eff_curve = cum_curve = None
    if spec.compute_metrics and spec.iterations >= 1:
        dist_curve, dist_eff_curve, cum_curve = metrics.aggregate_curves(
            metrics.dist_matrix(trace), metrics.dist_eff_matrix(trace))
    return results.RunResult(
        variant=variant, repetition=repetition, seed=seed, best_profit=best,
        ratio=best / optimum,
        convergence_round=metrics.convergence_round(trace),
        first_discovery_round=metrics.first_discovery_round(trace),
        pujv=None if cum_curve is None else int(cum_curve[-1]),
        gbest_curve=trace.gbest_fitness.copy(), dist_curve=dist_curve,
        dist_eff_curve=dist_eff_curve, cum_pujv_curve=cum_curve)


def _worker_count(runs: int) -> int:
    """One worker per CPU this process may run on, at most one per run."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, runs)


# Particles x dimensions of one run group. Stepping runs as one block pays
# numpy's per-call cost once for the group, and its step allocates no
# array of the block's shape: at d=100, m=20 blocks of 4 runs stepped
# 1.6-1.8x faster than the same runs one by one (BENCH_5.json), and a
# d=500 protocol pass in two blocks of 4 ran 13-16 % faster than its
# runs one at a time (BENCH_12.json). This gives 4 runs at d=500, m=20,
# 2 at d=1000 and up to 20 at d=100.
GROUP_ELEMENTS = 40000


def group_size(runs: int, workers: int, swarm_size: int,
               dimensions: int) -> int:
    """Runs per group: as many as fit GROUP_ELEMENTS, at least 1, and few
    enough that ``runs`` make at least ``workers`` groups."""
    return max(1, min(GROUP_ELEMENTS // (swarm_size * dimensions),
                      runs // workers))


def _execute_runs(spec: ExperimentSpec, objective: KnapsackObjective,
                  optimum: int, workers: int,
                  size: int) -> list[results.RunResult]:
    """Every (variant, repetition) run, in spec order.

    Each run owns its seed, so neither the order in which they execute
    nor the block they are stepped in changes a result. The runs are
    sorted by transfer kind (so that a group's runs share ``sigm`` calls)
    and cut into groups of ``size``. With more than one worker the groups
    run on a pool of forked workers; the error of the first group, in
    that order, that raises is raised here, and a worker that dies
    becomes a :class:`ResourceError`.
    """
    pairs = [(vi, rep) for vi in range(len(spec.variants))
             for rep in range(spec.repetitions)]
    order = sorted(pairs, key=lambda pair: spec.variants[pair[0]].kind.value)
    tasks = [order[k:k + size] for k in range(0, len(order), size)]
    if workers == 1:
        done = [_execute_group(spec, task, objective, optimum)
                for task in tasks]
    else:
        done = _run_on_pool(workers, tasks, spec, objective, optimum)
    # the tasks cut ``order`` in sequence, and so do their results
    by_pair = dict(zip(order, (r for task in done for r in task)))
    return [by_pair[pair] for pair in pairs]


def _run_on_pool(workers: int, tasks: list[list[tuple[int, int]]],
                 spec: ExperimentSpec, objective: KnapsackObjective,
                 optimum: int) -> list[list[results.RunResult]]:
    """Each task's results, from a pool of ``workers`` forked workers."""
    # imported here, so that `import vcbpso` does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: the workers inherit every name rebound in this
    # process, and the package starts no thread of its own
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        futures = [pool.submit(_execute_group, spec, task, objective, optimum)
                   for task in tasks]
        try:
            return [future.result() for future in futures]
        except BaseException as exc:
            pool.shutdown(cancel_futures=True)
            if isinstance(exc, BrokenProcessPool):
                raise ResourceError(
                    "a worker process died before its runs finished; it "
                    "may have been killed for lack of memory") from exc
            raise


def group_memory(runs: int, iterations: int, swarm_size: int,
                 dimensions: int, save_traces: bool,
                 compute_metrics: bool) -> tuple[dict, list[dict]]:
    """The bytes :func:`_execute_group` holds for a group of ``runs``
    runs, for ``errors.check_memory``: the trace slabs, the runs' curves
    and the objective's scratch throughout, and as phases the stepping
    swarm, a trace file being written and one run's metric phase."""
    records = iterations + 1
    bits = runs * swarm_size * dimensions
    held = {"trace slabs": TraceBuilder.nbytes(
                dimensions, runs, swarm_size, records,
                save_traces or compute_metrics),
            # gbest, and mean dist, mean dist_eff and cumulative PUJV
            "curves": 8 * runs * (records + 3 * iterations * compute_metrics),
            "objective scratch": knapsack.EVALUATE_BYTES * bits}
    phases = [{"swarm": STEP_BYTES * bits}]
    if save_traces:
        phases.append({"trace file": SAVE_BYTES})
    if compute_metrics and iterations >= 1:
        phases.append(metrics.metric_memory(iterations, swarm_size,
                                            dimensions))
    return held, phases


def run_experiment(spec: ExperimentSpec) -> list[results.AggregateResult]:
    """Execute all variants x repetitions, write CSV artifacts, return
    per-variant aggregates. Deterministic given the spec. Before the DP
    and the output directory, ``errors.check_memory`` counts the
    instance (here and in each forked worker), the profit-only DP, every
    run's curves (collected here) and one :func:`group_memory` per
    worker, as each holds a group at once; a generated instance is
    counted before it is built too."""
    # not a spec check: a spec built only to load its instance may omit it
    if not spec.output_dir:
        raise ConfigError("output.dir must not be empty")
    n = spec.instance.n
    if n is not None:   # a generated instance, counted before it is built
        check_memory(f"the instance of instance.n = {n}",
                     {"instance": knapsack.GENERATE_BYTES * n})
    instance = spec.instance.load()
    runs = len(spec.variants) * spec.repetitions
    workers = _worker_count(runs)
    size = group_size(runs, workers, spec.swarm_size, instance.n)
    held, phases = group_memory(size, spec.iterations, spec.swarm_size,
                                instance.n, spec.save_traces,
                                spec.compute_metrics)
    # each worker holds a group at once; this process keeps all curves
    curves = held["curves"] // size * runs
    held, *phases = ({name: workers * count for name, count in terms.items()}
                     for terms in (held, *phases))
    # one worker runs in this process; a pool's workers unpickle a copy
    copies = 1 + workers if workers > 1 else 1
    check_memory(f"the experiment with {workers} worker"
                 f"{'s' if workers > 1 else ''}",
                 {"instance": knapsack.INSTANCE_BYTES * instance.n * copies}
                 | held | {"curves": curves,
                           "DP": knapsack.dp_need(instance, selection=False)},
                 phases)
    optimum, _ = knapsack.dp_optimal(instance, selection=False)
    if optimum <= 0:
        raise ConfigError("instance optimum is 0; ratios are undefined")
    objective = KnapsackObjective(instance)
    os.makedirs(spec.output_dir, exist_ok=True)

    all_runs = _execute_runs(spec, objective, optimum, workers, size)
    reps = spec.repetitions
    aggregates = [results.aggregate(v, all_runs[vi * reps:(vi + 1) * reps],
                                    optimum)
                  for vi, v in enumerate(spec.variants)]
    results.write_experiment(spec.output_dir, all_runs, aggregates)
    return aggregates
