"""Batch command line: instance generation, exact solving, experiment
execution, metric extraction and report consolidation."""

from __future__ import annotations

import argparse
import sys

from . import harness, knapsack, metrics, results
from .errors import ConfigError, ResourceError, check_memory
from .trace import RunTrace, TraceBuilder, load_memory, read_header


def _cmd_gen(args) -> int:
    instance = knapsack.generate(args.type, args.n, args.r, args.s, args.seed)
    knapsack.save_instance(instance, args.out)
    print(f"wrote {instance.instance_type} instance: n={instance.n} "
          f"capacity={instance.capacity} -> {args.out}")
    return 0


def _cmd_solve(args) -> int:
    instance = knapsack.load_instance(args.instance)
    profit, selection = knapsack.dp_optimal(instance, selection=True)
    out = args.out or args.instance + ".sol"
    with open(out, "w") as fh:
        fh.write("".join(str(int(b)) for b in selection) + "\n")
    print(profit)
    return 0


def _cmd_run(args) -> int:
    spec = harness.parse_config(args.config)
    aggregates = harness.run_experiment(spec)
    for agg in aggregates:
        print(f"{agg.variant.label}: mean profit {agg.mean_best_profit:.2f} "
              f"({100 * agg.ratio:.1f}% of optimum {agg.optimum})")
    pairs = results.paired(aggregates)
    if pairs:
        gaps = [corr.ratio - plain.ratio for _, corr, plain in pairs]
        print(f"mean corrected-vs-uncorrected gap: "
              f"{100 * sum(gaps) / len(gaps):.2f} percentage points")
    return 0


def metrics_memory(records: int, swarm_size: int,
                   dimensions: int) -> tuple[dict, list[dict]]:
    """The bytes ``vcbpso metrics`` holds on a trace whose header gives
    these values, for ``errors.check_memory``: the trace's arrays
    throughout, and as phases its load, the metric matrices with their
    workspace, the particle CSV, and the curves with their CSV."""
    iterations = records - 1
    held = {"trace": TraceBuilder.nbytes(dimensions, 1, swarm_size, records)}
    phases = [{"load workspace": load_memory(swarm_size)}]
    if iterations >= 1:
        metric = metrics.metric_memory(iterations, swarm_size, dimensions)
        matrices = {"metric matrices": metric["metric matrices"]}
        phases += [
            metric,
            matrices | {"particle CSV": results.particle_csv_memory(
                iterations, swarm_size, dimensions)},
            # computing the curves counts in the metric workspace
            matrices | {"curves": 24 * iterations,
                        "aggregate CSV": results.aggregate_csv_memory(
                            iterations)}]
    return held, phases


def _cmd_metrics(args) -> int:
    m, dimensions, records = read_header(args.trace)
    iterations = records - 1
    lo = args.from_iteration if args.from_iteration is not None else 1
    hi = args.to_iteration if args.to_iteration is not None else iterations
    if not 1 <= lo <= hi <= iterations:
        raise ValueError(f"{args.trace}: bad iteration range [{lo}, {hi}] "
                         f"for a trace of {iterations} iterations")
    check_memory(f"{args.trace}: vcbpso metrics",
                 *metrics_memory(records, m, dimensions))
    trace = RunTrace.load(args.trace)
    base = args.trace.removesuffix(".gz").removesuffix(".txt")
    d = metrics.dist_matrix(trace)
    e = metrics.dist_eff_matrix(trace)
    results.write_particle_metrics_csv(d, e, base + "_particle_metrics.csv")
    mean_d, mean_e, cum = metrics.aggregate_curves(d, e)
    results.write_aggregate_metrics_csv(mean_d, mean_e, cum,
                                        base + "_aggregate_metrics.csv")
    # the PUJV of iterations lo..hi, off the cumulative curve
    print(int(cum[hi - 1] - (cum[lo - 2] if lo > 1 else 0)))
    return 0


def _cmd_report(args) -> int:
    results.print_report(args.results_dir)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcbpso",
        description="V-shaped binary PSO benchmarks with velocity-legacy "
                    "correction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a knapsack instance file")
    gen.add_argument("--type", required=True, choices=["uci", "wci", "sci"])
    # numbers are plain decimal, as in config and instance files
    gen.add_argument("--n", required=True, type=knapsack.integer)
    gen.add_argument("--r", required=True, type=knapsack.integer)
    gen.add_argument("--s", required=True, type=knapsack.real)
    gen.add_argument("--seed", required=True, type=knapsack.integer)
    gen.add_argument("--out", required=True)
    gen.set_defaults(fn=_cmd_gen)

    solve = sub.add_parser("solve", help="print the DP optimum of an instance")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--out", help="selection file (default <instance>.sol)")
    solve.set_defaults(fn=_cmd_solve)

    runp = sub.add_parser("run", help="execute an experiment config")
    runp.add_argument("--config", required=True)
    runp.set_defaults(fn=_cmd_run)

    met = sub.add_parser("metrics", help="emit metric CSVs for a trace")
    met.add_argument("--trace", required=True)
    met.add_argument("--from", dest="from_iteration", type=knapsack.integer)
    met.add_argument("--to", dest="to_iteration", type=knapsack.integer)
    met.set_defaults(fn=_cmd_metrics)

    rep = sub.add_parser("report", help="per-variant table from aggregate.csv")
    rep.add_argument("--results-dir", required=True)
    rep.set_defaults(fn=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ResourceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # what no memory count foresaw, numpy's _ArrayMemoryError among it
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
