"""Self-test of the benchmark, on a tiny protocol (d=50, T=100, 2 reps,
all 8 variants, metrics, traces and the metrics CLI all on).

Checks that the exact counters repeat between two traced passes, that the
span self times add up to the traced wall time, that tracing changes no
output, that every rebound name is restored (also after a run raises),
and that BENCHMARK.json lists the workloads and per-layer metrics the code
defines. Run from the root of a checkout::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH_DIR), "src"), BENCH_DIR]

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload("tiny-d50", 50, workloads.BEST_D100, 2,
                          compute_metrics=True, save_traces=True,
                          why="self-test", iterations=100)


def _current_bindings() -> dict:
    return {(id(owner), attr): vars(owner)[attr]
            for owner, attr, *_ in spans._bindings()}


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK_DIR, exist_ok=True)
        cls.originals = _current_bindings()
        cls.optimum = workloads.setup(TINY, 0)
        cls.passes = [run.one_pass(TINY, 0, traced)
                      for traced in (False, True, True)]

    def test_passes_are_correct_and_tracing_changes_no_output(self):
        reference = None
        for _, out, _ in self.passes:
            self.assertIsNotNone(out)
            failed, problems = workloads.check_pass(TINY, out, self.optimum,
                                                    reference)
            self.assertEqual((failed, problems), (0, []))
            reference = reference or workloads.digests(out)

    def test_exact_counters_repeat(self):
        (_, _, _), (w1, _, r1), (w2, _, r2) = self.passes
        first = layers.per_layer_values(r1, w1, w1)
        second = layers.per_layer_values(r2, w2, w2)
        for name in layers.EXACT:
            self.assertEqual(first[name], second[name], name)
        self.assertEqual(first["engine.steps"], 8 * 2 * 100)
        self.assertEqual(first["metrics.dist_eff_calls_per_trace"], 2.0)
        for name in ("transfer.sigm_elems", "knapsack.repair_calls",
                     "trace.save_bytes", "trace.load_bytes",
                     "metrics.dist_eff_word_ops"):
            self.assertGreater(first[name], 0, name)

    def test_self_times_add_up_to_wall(self):
        for wall, _, rec in self.passes[1:]:
            self.assertAlmostEqual(sum(rec.self_time.values()), wall,
                                   delta=1e-9 * wall + 1e-12)
            roots = [s for s in rec.spans if s[1] == -1]
            self.assertEqual([s[3] for s in roots], ["bench.pass"])

    def test_bindings_restored_after_passes(self):
        self.assertEqual(_current_bindings(), self.originals)

    def test_bindings_restored_when_a_run_raises(self):
        from vcbpso.harness import ExperimentSpec, InstanceSource

        spec = workloads.make_spec(TINY, 0, run.WORK_DIR)
        broken = ExperimentSpec(**{**vars(spec), "instance": InstanceSource(
            path=os.path.join(run.WORK_DIR, "missing.txt"))})
        rec = spans.SpanRecorder()
        with self.assertRaises(OSError):
            with spans.instrumented(rec):
                workloads.run_pass(broken, False)
        self.assertEqual(_current_bindings(), self.originals)
        self.assertEqual([s[3] for s in rec.spans if s[1] == -1],
                         ["harness.run_experiment"])

    def test_default_seed_is_the_acceptance_protocol(self):
        self.assertEqual(workloads.seeds(workloads.DEFAULT_SEED),
                         (20260823, 99))

    def test_manifest_matches_the_code(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            manifest = json.load(fh)
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"])
             for m in manifest["per_layer"]},
            {name: (unit, better)
             for name, (unit, better, *_) in layers.PER_LAYER.items()})
        self.assertEqual(
            {w["name"]: w["why"] for w in manifest["workloads"]},
            {w.name: w.why for w in workloads.WORKLOADS.values()})
        self.assertEqual(manifest["paths"], ["perfbench"])


if __name__ == "__main__":
    unittest.main()
