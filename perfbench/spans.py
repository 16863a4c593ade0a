"""Span recorder and the traced-run bindings.

The traced run measures each layer of ``vcbpso`` from outside: while
:func:`instrumented` is active, the names that callers look up
(``vcbpso.harness.run``, ``vcbpso.engine.sigm``,
``KnapsackObjective.evaluate_swarm``, ...) are rebound to wrappers that
open a span around the original call and update exact counters. The
package source is not edited, and every binding is restored on exit,
also when the run raises.

A span is ``(id, parent, run_id, name, start, end)`` in
``time.perf_counter`` seconds. Its self time is its duration minus the
durations of its direct children, so the self times of one tree add up to
the duration of its root. ``run_id`` groups the spans of one request: it
advances at every swarm run (``engine.run``) and every CLI call
(``cli.main``); spans outside both share the run they follow.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class SpanRecorder:
    """Spans and exact counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self.run_id = 0
        self._next_id = 0
        self._stack: list[list] = []
        self._last_dist_eff_trace = None

    def enter(self, name: str, new_run: bool = False) -> None:
        if new_run:
            self.run_id += 1
        self._stack.append(
            [self._next_id, self.run_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        sid, run_id, name, start, children = self._stack.pop()
        duration = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[4] += duration
            parent_id = parent[0]
        else:
            parent_id = -1
        self.spans.append((sid, parent_id, run_id, name, start, end))
        self.total[name] += duration
        self.self_time[name] += duration - children

    @contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def write_csv(self, path: str) -> None:
        """Write every span, times in nanoseconds from the first start."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,parent,run_id,name,start_ns,end_ns\n")
            for sid, parent, run_id, name, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{run_id},{name},"
                         f"{round((start - t0) * 1e9)},"
                         f"{round((end - t0) * 1e9)}\n")


# -- counter hooks: (recorder, call args, result) -> None ----------------

def _count_elems(key):
    def hook(rec, args, result):
        rec.count[key] += int(np.size(args[1]))
    return hook


def _count_calls(key):
    def hook(rec, args, result):
        rec.count[key] += 1
    return hook


def _on_evaluate(rec, args, result):
    rec.count["knapsack.evaluate_swarm_calls"] += 1
    rec.count["knapsack.particles_evaluated"] += len(args[1])


def _on_run(rec, args, trace):
    m, d = trace.swarm_size, trace.dimensions
    rec.count["engine.steps"] += trace.iterations
    rec.count["engine.bits_stepped"] += trace.iterations * m * d
    rec.count["engine.bits_flipped"] += int(trace.flip_counts[1:].sum())


def _on_save(rec, args, result):
    rec.count["trace.save_calls"] += 1
    rec.count["trace.save_bytes"] += os.path.getsize(args[1])


def _on_load(rec, args, result):
    rec.count["trace.load_calls"] += 1
    rec.count["trace.load_bytes"] += os.path.getsize(args[1])  # (cls, path)


# Bytes per (records, records) element that one particle's pass of
# ``dist_eff_matrix`` allocates for each 64-bit word: the uint64 XOR outer
# product, its uint8 popcount and the int32 cast; plus, once per particle,
# the int32 running minimum.
_DIST_EFF_BYTES_PER_WORD = 8 + 1 + 4
_DIST_EFF_BYTES_PER_PARTICLE = 4


def _on_dist_eff(rec, args, result):
    trace = args[0]
    records, m, words = trace.positions.shape
    rec.count["metrics.dist_eff_calls"] += 1
    if trace is not rec._last_dist_eff_trace:
        rec._last_dist_eff_trace = trace
        rec.count["metrics.dist_eff_traces"] += 1
    rec.count["metrics.dist_eff_word_ops"] += m * words * records * records
    temp = records * records * (words * _DIST_EFF_BYTES_PER_WORD
                                + _DIST_EFF_BYTES_PER_PARTICLE)
    rec.count["metrics.dist_eff_temp_bytes"] = max(
        rec.count["metrics.dist_eff_temp_bytes"], temp)


def _wrap(rec: SpanRecorder, name: str, fn, hook=None, new_run=False):
    def traced(*args, **kwargs):
        rec.enter(name, new_run)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit()
        if hook is not None:
            hook(rec, args, result)
        return result
    traced.__wrapped__ = fn
    return traced


def _bindings():
    """(owner, attribute, span name, counter hook, starts a new run)."""
    from vcbpso import cli, engine, harness, knapsack, metrics
    from vcbpso.knapsack import KnapsackObjective
    from vcbpso.trace import RunTrace, TraceBuilder

    out = [
        (harness, "run_experiment", "harness.run_experiment", None, False),
        (harness, "run", "engine.run", _on_run, True),
        (engine, "step_swarm", "engine.step_swarm", None, False),
        (engine, "sigm", "transfer.sigm", _count_elems("transfer.sigm_elems"),
         False),
        (engine, "correct", "transfer.correct",
         _count_elems("transfer.correct_elems"), False),
        (KnapsackObjective, "evaluate_swarm", "knapsack.evaluate_swarm",
         _on_evaluate, False),
        (knapsack, "repair", "knapsack.repair",
         _count_calls("knapsack.repair_calls"), False),
        (knapsack, "dp_optimal", "knapsack.dp_optimal", None, False),
        (knapsack, "generate", "knapsack.generate", None, False),
        (TraceBuilder, "record", "trace.record",
         _count_calls("trace.record_calls"), False),
        (RunTrace, "save", "trace.save", _on_save, False),
        (RunTrace, "load", "trace.load", _on_load, False),
        (cli, "main", "cli.main", None, True),
    ]
    for attr, value in vars(metrics).items():
        if (callable(value) and not attr.startswith("_")
                and getattr(value, "__module__", None) == metrics.__name__):
            hook = _on_dist_eff if attr == "dist_eff_matrix" else None
            out.append((metrics, attr, f"metrics.{attr}", hook, False))
    return out


@contextmanager
def instrumented(rec: SpanRecorder):
    """Rebind the traced names to span-recording wrappers; restore them
    on exit, also when the body raises."""
    saved = []
    try:
        for owner, attr, name, hook, new_run in _bindings():
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                bound = classmethod(
                    _wrap(rec, name, original.__func__, hook, new_run))
            else:
                bound = _wrap(rec, name, original, hook, new_run)
            saved.append((owner, attr, original))
            setattr(owner, attr, bound)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
