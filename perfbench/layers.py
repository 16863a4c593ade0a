"""Per-layer metrics of the traced run, and what each should move.

Every metric is measured from outside the package, by the spans and
counters of :mod:`spans`. The last field of each ``PER_LAYER`` entry
names the end-to-end metric and the workloads on which a change to that
layer should show; the benchmark predicts no change elsewhere. Times are inclusive span totals unless the
name says ``self``; counts repeat exactly between runs of one commit.
"""

from __future__ import annotations

import numpy as np

# name: (unit, better, definition, end-to-end metric it should move)
PER_LAYER = {
    "transfer.sigm_s": ("s", "lower", "time in sigm calls",
                        "wall_s on scale-d500"),
    "transfer.sigm_elems": ("count", "lower", "velocities passed to sigm",
                            "wall_s on scale-d500"),
    "transfer.correct_s": ("s", "lower", "time in correct calls",
                           "wall_s on scale-d500"),
    "transfer.correct_elems": ("count", "lower",
                               "velocities passed to correct",
                               "wall_s on scale-d500"),
    "engine.run_s": ("s", "lower", "time in engine.run",
                     "wall_s on scale-d500, then archive-d100"),
    "engine.run_ms_p50": ("ms", "lower", "median engine.run per run",
                          "wall_s on scale-d500, then archive-d100"),
    "engine.run_ms_p90": ("ms", "lower", "90th percentile engine.run per run",
                          "wall_s on scale-d500, then archive-d100"),
    "engine.step_swarm_s": ("s", "lower", "time in step_swarm",
                            "wall_s on scale-d500, then archive-d100"),
    "engine.self_s": ("s", "lower",
                      "step_swarm minus sigm, correct and evaluate_swarm: "
                      "RNG, velocity update, clip, flip, best tracking",
                      "wall_s on scale-d500, then archive-d100"),
    "engine.steps": ("count", "higher", "iterations stepped", "none"),
    "engine.flip_frac": ("ratio", "lower",
                         "flipped bits / bits stepped, from the traces",
                         "none"),
    "knapsack.evaluate_swarm_s": ("s", "lower",
                                  "time in evaluate_swarm, repair included",
                                  "wall_s on scale-d500"),
    "knapsack.evaluate_swarm_calls": ("count", "lower",
                                      "evaluate_swarm calls",
                                      "wall_s on scale-d500"),
    "knapsack.repair_s": ("s", "lower", "time in repair",
                          "wall_s on scale-d500"),
    "knapsack.repair_calls": ("count", "lower", "repair calls",
                              "wall_s on scale-d500"),
    "knapsack.repair_frac": ("ratio", "lower",
                             "repaired particles / particles evaluated",
                             "wall_s on scale-d500"),
    "knapsack.dp_optimal_s": ("s", "lower", "time in dp_optimal",
                              "setup_s on scale-d500"),
    "trace.record_s": ("s", "lower", "time in TraceBuilder.record",
                       "wall_s on archive-d100"),
    "trace.record_calls": ("count", "lower", "TraceBuilder.record calls",
                           "wall_s on archive-d100"),
    "trace.save_s": ("s", "lower", "time in RunTrace.save",
                     "wall_s on archive-d100"),
    "trace.save_bytes": ("B", "lower", "bytes of the saved trace files",
                         "wall_s on archive-d100"),
    "trace.load_s": ("s", "lower", "time in RunTrace.load",
                     "wall_s on archive-d100"),
    "trace.load_bytes": ("B", "lower", "bytes of the loaded trace files",
                         "wall_s on archive-d100"),
    "metrics.dist_eff_matrix_s": ("s", "lower", "time in dist_eff_matrix",
                                  "wall_s on archive-d100"),
    "metrics.dist_eff_calls_per_trace": ("ratio", "lower",
                                         "dist_eff_matrix calls per trace",
                                         "wall_s on archive-d100"),
    "metrics.dist_eff_word_ops": ("ops", "lower",
                                  "computed: m x words x records^2 "
                                  "XOR-popcounts, summed over calls",
                                  "peak_rss_mb on archive-d100"),
    "metrics.dist_eff_temp_bytes": ("B", "lower",
                                    "computed: bytes of one particle's "
                                    "(records, records) temporaries",
                                    "peak_rss_mb on archive-d100"),
    "metrics.dist_matrix_s": ("s", "lower", "time in dist_matrix",
                              "wall_s on archive-d100"),
    "metrics.csv_write_s": ("s", "lower",
                            "self time of the two metric CSV writers",
                            "wall_s on archive-d100"),
    "cli.metrics_s": ("s", "lower", "time in `vcbpso metrics` calls",
                      "wall_s on archive-d100"),
    "harness.self_s": ("s", "lower",
                       "run_experiment self time: orchestration, CSV writing",
                       "wall_s on all workloads"),
    "traced_wall_s": ("s", "lower",
                      "wall time of the reported traced pass; the span "
                      "self times add up to it", "none"),
    "trace_overhead_s": ("s", "lower",
                         "traced_wall_s minus the untraced median wall_s",
                         "none"),
}

# Counts that must repeat exactly between runs of one commit.
EXACT = [name for name, (unit, *_) in PER_LAYER.items()
         if unit not in ("s", "ms")]


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer_values(rec, traced_wall: float,
                     untraced_wall: float) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass."""
    total, own, count = rec.total, rec.self_time, rec.count
    run_ms = [(end - start) * 1e3 for _, _, _, name, start, end in rec.spans
              if name == "engine.run"]
    p50, p90 = (np.percentile(run_ms, [50, 90]) if run_ms else (0.0, 0.0))
    values = {
        "transfer.sigm_s": total["transfer.sigm"],
        "transfer.sigm_elems": count["transfer.sigm_elems"],
        "transfer.correct_s": total["transfer.correct"],
        "transfer.correct_elems": count["transfer.correct_elems"],
        "engine.run_s": total["engine.run"],
        "engine.run_ms_p50": float(p50),
        "engine.run_ms_p90": float(p90),
        "engine.step_swarm_s": total["engine.step_swarm"],
        "engine.self_s": own["engine.step_swarm"],
        "engine.steps": count["engine.steps"],
        "engine.flip_frac": _ratio(count["engine.bits_flipped"],
                                   count["engine.bits_stepped"]),
        "knapsack.evaluate_swarm_s": total["knapsack.evaluate_swarm"],
        "knapsack.evaluate_swarm_calls":
            count["knapsack.evaluate_swarm_calls"],
        "knapsack.repair_s": total["knapsack.repair"],
        "knapsack.repair_calls": count["knapsack.repair_calls"],
        "knapsack.repair_frac": _ratio(count["knapsack.repair_calls"],
                                       count["knapsack.particles_evaluated"]),
        "knapsack.dp_optimal_s": total["knapsack.dp_optimal"],
        "trace.record_s": total["trace.record"],
        "trace.record_calls": count["trace.record_calls"],
        "trace.save_s": total["trace.save"],
        "trace.save_bytes": count["trace.save_bytes"],
        "trace.load_s": total["trace.load"],
        "trace.load_bytes": count["trace.load_bytes"],
        "metrics.dist_eff_matrix_s": total["metrics.dist_eff_matrix"],
        "metrics.dist_eff_calls_per_trace": _ratio(
            count["metrics.dist_eff_calls"], count["metrics.dist_eff_traces"]),
        "metrics.dist_eff_word_ops": count["metrics.dist_eff_word_ops"],
        "metrics.dist_eff_temp_bytes": count["metrics.dist_eff_temp_bytes"],
        "metrics.dist_matrix_s": total["metrics.dist_matrix"],
        "metrics.csv_write_s": (own["metrics.write_particle_metrics_csv"]
                                + own["metrics.write_aggregate_metrics_csv"]),
        "cli.metrics_s": total["cli.main"],
        "harness.self_s": own["harness.run_experiment"],
        "traced_wall_s": traced_wall,
        "trace_overhead_s": traced_wall - untraced_wall,
    }
    assert values.keys() == PER_LAYER.keys()
    return values
