"""Config parsing, seed derivation and experiment orchestration."""

import csv
import glob
import os
import time
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import CONFIGS_DIR, load_config
from vcbpso import harness, knapsack
from vcbpso.cli import main
from vcbpso.engine import WSchedule
from vcbpso.errors import ConfigError, ParseError
from vcbpso.harness import (
    GROUP_ELEMENTS,
    ExperimentSpec,
    InstanceSource,
    Variant,
    derive_seed,
    group_size,
    paired,
    parse_config,
    run_experiment,
)
from vcbpso.transfer import TransferKind

GOOD_CONFIG = """
# three-variant smoke experiment
instance.type = uci
instance.n = 30
instance.r = 100
instance.s = 0.5
instance.seed = 11

swarm.size = 6
swarm.c1 = 2.0
swarm.c2 = 2.0
run.iterations = 25
run.repetitions = 2
run.base_seed = 42

variants = vt2, on, 1.0, none; vt2, off, 1.0-0.4, 5; vt1, off, 0.6, 5
output.dir = "{out}"
"""


def good_config(out_dir):
    return GOOD_CONFIG.format(out=out_dir)


class TestVariantLabel:
    def test_corrected_label(self):
        v = Variant(TransferKind.VT2, True, WSchedule(1.0, 1.0), None)
        assert v.label == "VCv2_w1"

    def test_uncorrected_ramp_label(self):
        v = Variant(TransferKind.VT3, False, WSchedule(1.0, 0.4), 5.0)
        assert v.label == "VT3_w1-0.4"


class TestParseConfig:
    def test_full_round_trip(self, tmp_path):
        spec = parse_config(good_config(tmp_path))
        assert spec.instance.instance_type == "uci"
        assert spec.swarm_size == 6
        assert spec.iterations == 25
        assert len(spec.variants) == 3
        assert spec.variants[0] == Variant(
            TransferKind.VT2, True, WSchedule(1.0, 1.0), None)
        assert spec.variants[1].w == WSchedule(1.0, 0.4)
        assert spec.variants[2].vmax == 5.0
        assert spec.output_dir == str(tmp_path)

    def test_w_notations(self, tmp_path):
        spec = parse_config(good_config(tmp_path))
        assert str(spec.variants[2].w) == "0.6"
        assert str(spec.variants[1].w) == "1-0.4"

    def test_unknown_key_names_line(self, tmp_path):
        text = good_config(tmp_path) + "\nbogus.key = 3\n"
        with pytest.raises(ParseError, match=r"bogus\.key"):
            parse_config(text)

    def test_duplicate_key(self, tmp_path):
        text = good_config(tmp_path) + "\nswarm.size = 7\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_config(text)

    def test_missing_required_key(self, tmp_path):
        text = good_config(tmp_path).replace("run.base_seed = 42", "")
        with pytest.raises(ParseError, match="run.base_seed"):
            parse_config(text)

    def test_zero_repetitions(self, tmp_path):
        text = good_config(tmp_path).replace("run.repetitions = 2",
                                             "run.repetitions = 0")
        with pytest.raises(ParseError, match="repetitions"):
            parse_config(text)

    def test_ramp_with_one_iteration_rejected(self, tmp_path):
        text = good_config(tmp_path).replace("run.iterations = 25",
                                             "run.iterations = 1")
        with pytest.raises(ParseError, match=r"VT2_w1-0\.4: .*2 iterations"):
            parse_config(text)

    def test_ramp_with_zero_iterations_accepted(self, tmp_path):
        text = good_config(tmp_path).replace("run.iterations = 25",
                                             "run.iterations = 0")
        assert parse_config(text).iterations == 0

    def test_bad_value_names_key_and_line(self, tmp_path):
        text = good_config(tmp_path).replace("instance.n = 30",
                                             "instance.n = many")
        with pytest.raises(ParseError, match=r"instance\.n"):
            parse_config(text)

    def test_empty_variants(self, tmp_path):
        text = good_config(tmp_path).replace(
            "variants = vt2, on, 1.0, none; vt2, off, 1.0-0.4, 5; "
            "vt1, off, 0.6, 5",
            "variants = ")
        with pytest.raises(ParseError, match="variants"):
            parse_config(text)

    @pytest.mark.parametrize("variant", [
        "vt9, on, 1.0, none",
        "vt2, maybe, 1.0, none",
        "vt2, on, fast, none",
        "vt2, on, 1.0, wide",
        "vt2, on, 1.0",
        "vt2, on, 1.0, 5",   # corrected variants must not carry a vmax
        "vt2, off, 1.0, none",
    ])
    def test_bad_variant_tuples(self, tmp_path, variant):
        text = good_config(tmp_path).replace(
            "vt2, on, 1.0, none", variant)
        with pytest.raises(ParseError):
            parse_config(text)

    def test_path_conflicts_with_generation_keys(self, tmp_path):
        text = good_config(tmp_path) + "\ninstance.path = inst.txt\n"
        with pytest.raises(ParseError, match="instance.path"):
            parse_config(text)

    def test_path_only_source(self, tmp_path):
        text = """
instance.path = some/instance.txt
run.iterations = 5
run.repetitions = 1
run.base_seed = 1
variants = vt1, on, 1.0, none
output.dir = out
"""
        spec = parse_config(text)
        assert spec.instance.path == "some/instance.txt"
        assert spec.swarm_size == 20  # default

    def test_non_keyvalue_line(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config("just some words\n")

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# leading comment\n\n" + good_config(tmp_path)
        parse_config(text)

    def test_output_flags(self, tmp_path):
        text = good_config(tmp_path) + "\noutput.traces = off\noutput.metrics = off\n"
        spec = parse_config(text)
        assert spec.save_traces is False
        assert spec.compute_metrics is False


class TestSpecValidation:
    """A spec built in code fails at construction, before the DP or the
    output directory, through the same rule as :class:`RunConfig`."""

    def _spec(self, tmp_path, **kw):
        base = dict(
            instance=InstanceSource(instance_type="UCI", n=10, r=100, s=0.5,
                                    seed=1),
            variants=[Variant(TransferKind.VT2, True, WSchedule(1.0, 1.0),
                              None)],
            swarm_size=4, c1=2.0, c2=2.0, iterations=5, repetitions=1,
            base_seed=1, output_dir=str(tmp_path / "out"),
        )
        base.update(kw)
        return ExperimentSpec(**base)

    @pytest.mark.parametrize("kw, message", [
        (dict(c1=-1.0), "c1 and c2"),
        (dict(c2=-1.0), "c1 and c2"),
        (dict(swarm_size=0), "swarm size"),
        (dict(iterations=-1), "iterations must be >= 0"),
    ])
    def test_bad_swarm_settings(self, tmp_path, kw, message):
        with pytest.raises(ConfigError, match=message):
            self._spec(tmp_path, **kw)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("variant, message", [
        (Variant(TransferKind.VT2, True, WSchedule(1.0, 1.0), 5.0),
         r"variant VCv2_w1: .*without a vmax"),
        (Variant(TransferKind.VT3, False, WSchedule(1.0, 0.4), None),
         r"variant VT3_w1-0\.4: .*positive vmax"),
        (Variant(TransferKind.VT1, False, WSchedule(0.6, 0.6), 0.0),
         r"variant VT1_w0\.6: .*positive vmax"),
    ])
    def test_bad_variant_names_it(self, tmp_path, variant, message):
        good = Variant(TransferKind.VT2, True, WSchedule(1.0, 1.0), None)
        with pytest.raises(ConfigError, match=message):
            self._spec(tmp_path, variants=[good, variant])
        assert not (tmp_path / "out").exists()

    def test_fields_cannot_be_assigned(self, tmp_path):
        spec = self._spec(tmp_path)
        with pytest.raises(FrozenInstanceError):
            spec.c1 = -1.0
        assert spec.c1 == 2.0
        # nor can a variant be added past the check
        assert isinstance(spec.variants, tuple)

    def test_replace_is_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="c1 and c2"):
            replace(self._spec(tmp_path), c1=-1.0)
        assert not (tmp_path / "out").exists()


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(
        glob.glob(os.path.join(CONFIGS_DIR, "*.cfg"))),
        ids=os.path.basename)
    def test_parses(self, path):
        with open(path) as fh:
            spec = parse_config(fh.read())
        assert spec.output_dir.startswith("results/")

    @pytest.mark.parametrize("name", ["low_dim.cfg", "scaling.cfg"])
    def test_table_configs_pair_every_kind(self, name):
        variants = load_config(name).variants
        pairs = paired([SimpleNamespace(variant=v) for v in variants])
        assert [kind for kind, _, _ in pairs] == list(TransferKind)
        for kind, corr, plain in pairs:
            assert corr.variant.correction and not plain.variant.correction


class TestPaired:
    @staticmethod
    def _aggs(*flags):
        return [SimpleNamespace(variant=Variant(
                    kind, corr, WSchedule(1.0, 1.0), None if corr else 5.0))
                for kind, corr in flags]

    def test_one_pair(self):
        aggs = self._aggs((TransferKind.VT2, False), (TransferKind.VT2, True))
        assert paired(aggs) == [(TransferKind.VT2, aggs[1], aggs[0])]

    @pytest.mark.parametrize("flags", [
        [(TransferKind.VT2, True)],
        [(TransferKind.VT2, True), (TransferKind.VT2, False),
         (TransferKind.VT2, False)],
        [(TransferKind.VT1, True), (TransferKind.VT1, False),
         (TransferKind.VT2, True)],
    ])
    def test_incomplete_pairs_give_none(self, flags):
        assert paired(self._aggs(*flags)) == []


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 3, 7) == derive_seed(42, 3, 7)

    def test_distinct_over_full_grid(self):
        seeds = {derive_seed(42, v, r) for v in range(8) for r in range(20)}
        assert len(seeds) == 160

    def test_base_seed_matters(self):
        assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)


class TestRunExperiment:
    def _spec(self, tmp_path, **kw):
        return replace(parse_config(good_config(tmp_path / "out")), **kw)

    def test_artifacts_written(self, tmp_path):
        spec = self._spec(tmp_path)
        aggregates = run_experiment(spec)
        out = tmp_path / "out"
        assert (out / "runs.csv").exists()
        assert (out / "aggregate.csv").exists()
        for agg in aggregates:
            label = agg.variant.label.replace("-", "-")
            assert (out / f"curve_{label}.csv").exists()
            assert (out / f"metrics_{label}.csv").exists()
        assert (out / "trace_VCv2_w1_rep0.txt.gz").exists()
        assert len(list(out.glob("trace_*.txt.gz"))) == 6

    def test_aggregate_matches_runs(self, tmp_path):
        run_experiment(self._spec(tmp_path))
        out = tmp_path / "out"
        with open(out / "runs.csv", newline="") as fh:
            runs = list(csv.DictReader(fh))
        with open(out / "aggregate.csv", newline="") as fh:
            aggs = {row["variant"]: row for row in csv.DictReader(fh)}
        assert len(runs) == 6 and len(aggs) == 3
        by_variant = {}
        for row in runs:
            by_variant.setdefault(row["variant"], []).append(row)
        for variant, rows in by_variant.items():
            mean_best = np.mean([float(r["best_profit"]) for r in rows])
            assert float(aggs[variant]["mean_best_profit"]) == \
                pytest.approx(mean_best, abs=1e-9)
            mean_pujv = np.mean([int(r["pujv"]) for r in rows])
            assert float(aggs[variant]["mean_pujv"]) == \
                pytest.approx(mean_pujv, abs=1e-9)

    def test_ratio_bounded_by_one(self, tmp_path):
        aggregates = run_experiment(self._spec(tmp_path))
        for agg in aggregates:
            assert 0.0 < agg.ratio <= 1.0

    def test_deterministic_bytes(self, tmp_path):
        run_experiment(self._spec(tmp_path))
        first = (tmp_path / "out" / "aggregate.csv").read_bytes()
        spec2 = parse_config(good_config(tmp_path / "out2"))
        run_experiment(spec2)
        second = (tmp_path / "out2" / "aggregate.csv").read_bytes()
        assert first == second

    def test_zero_iterations_degenerate_ratio(self, tmp_path):
        spec = self._spec(tmp_path, iterations=0, repetitions=1,
                          variants=[Variant(TransferKind.VT2, True,
                                            WSchedule(1.0, 1.0), None)])
        aggregates = run_experiment(spec)
        agg = aggregates[0]
        instance = spec.instance.load()
        optimum, _ = knapsack.dp_optimal(instance)
        # ratio must equal best initial repaired profit over the optimum
        rng = np.random.Generator(
            np.random.PCG64(derive_seed(spec.base_seed, 0, 0)))
        init = (rng.random((spec.swarm_size, instance.n)) < 0.5).astype(int)
        best = max(knapsack.evaluate(instance, row) for row in init)
        assert agg.ratio == pytest.approx(best / optimum)

    def test_metrics_optional(self, tmp_path):
        spec = self._spec(tmp_path, compute_metrics=False, save_traces=False)
        aggregates = run_experiment(spec)
        out = tmp_path / "out"
        assert not list(out.glob("trace_*"))
        assert not list(out.glob("metrics_*"))
        assert all(a.mean_pujv is None for a in aggregates)
        with open(out / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["pujv"] == "" for r in rows)

    def test_instance_from_file(self, tmp_path, three_items):
        path = tmp_path / "inst.txt"
        knapsack.save_instance(three_items, path)
        spec = ExperimentSpec(
            instance=InstanceSource(path=str(path)),
            variants=[Variant(TransferKind.VT2, True,
                              WSchedule(1.0, 1.0), None)],
            swarm_size=4, c1=2.0, c2=2.0, iterations=20, repetitions=2,
            base_seed=5, output_dir=str(tmp_path / "out"),
        )
        aggregates = run_experiment(spec)
        assert aggregates[0].optimum == 7
        assert aggregates[0].mean_best_profit == 7.0

    def test_curve_csv_layout(self, tmp_path):
        run_experiment(self._spec(tmp_path))
        with open(tmp_path / "out" / "curve_VCv2_w1.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "mean_gbest"]
        assert len(rows) == 27  # header + initial record + 25 iterations
        assert rows[1][0] == "0"


class TestGroupSize:
    def test_d500_runs_alone(self):
        assert group_size(160, 2, 20, 500) == 1
        assert group_size(160, 1, 20, 500) == 1

    def test_d100_groups_of_four(self):
        assert group_size(8, 2, 20, 100) == 4
        assert group_size(160, 2, 20, 100) == 4

    def test_at_most_the_runs_per_worker(self):
        assert group_size(3, 1, 1, 1) == 3
        assert group_size(9, 4, 1, 1) == 2

    def test_never_fewer_groups_than_workers(self):
        for runs in range(1, 41):
            for workers in range(1, min(runs, 8) + 1):
                for m, d in ((1, 1), (6, 30), (20, 40), (20, 100),
                             (20, 500), (100, 100)):
                    size = group_size(runs, workers, m, d)
                    assert size >= 1
                    assert size * m * d <= max(GROUP_ELEMENTS, m * d)
                    assert -(-runs // size) >= workers


class TestWorkerPool:
    """Runs on the worker pool, forced by reporting two CPUs. The fakes of
    ``harness.run_block``, which steps each group of runs, reach the
    workers through fork."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)

    def _spec(self, tmp_path, **kw):
        return replace(parse_config(good_config(tmp_path / "out")), **kw)

    def test_one_cpu_runs_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        pids = []
        real_run_block = harness.run_block

        def recording_run_block(configs, objective, **kw):
            pids.extend([os.getpid()] * len(configs))
            return real_run_block(configs, objective, **kw)

        monkeypatch.setattr(harness, "run_block", recording_run_block)
        run_experiment(self._spec(tmp_path))
        assert pids == [os.getpid()] * 6

    def test_run_error_is_raised_and_no_table_written(self, tmp_path,
                                                      monkeypatch):
        real_run_block = harness.run_block

        def refusing_run_block(configs, objective, **kw):
            if any(config.kind is TransferKind.VT1 for config in configs):
                raise ConfigError(f"VT1 refused in process {os.getpid()}")
            return real_run_block(configs, objective, **kw)

        monkeypatch.setattr(harness, "run_block", refusing_run_block)
        with pytest.raises(ConfigError,
                           match=r"^VT1 refused in process \d+$") as info:
            run_experiment(self._spec(tmp_path))
        assert str(info.value) != f"VT1 refused in process {os.getpid()}"
        assert not (tmp_path / "out" / "runs.csv").exists()
        assert not (tmp_path / "out" / "aggregate.csv").exists()

    def test_runs_not_started_are_dropped_after_an_error(self, tmp_path,
                                                         monkeypatch):
        spec = self._spec(tmp_path, repetitions=6)
        # one run per group, so that every run is its own task; the runs
        # execute sorted by transfer kind, so the VT1 variant's come first
        monkeypatch.setattr(harness, "GROUP_ELEMENTS", 1)
        first_seed = derive_seed(spec.base_seed, 2, 0)
        started = tmp_path / "started"
        started.mkdir()

        def slow_run_block(configs, objective, **kw):
            seeds = [config.seed for config in configs]
            if first_seed in seeds:
                raise ConfigError("first run refused")
            for seed in seeds:
                (started / str(seed)).touch()
            time.sleep(0.2)
            raise ConfigError("later run refused")

        monkeypatch.setattr(harness, "run_block", slow_run_block)
        with pytest.raises(ConfigError, match="first run refused"):
            run_experiment(spec)
        # 17 runs follow the first; only those already handed to a
        # worker may start
        assert len(list(started.iterdir())) < 17

    def test_dead_worker_is_an_error_exit(self, tmp_path, monkeypatch,
                                          capsys):
        test_pid = os.getpid()

        def dying_run_block(configs, objective, **kw):
            # a run that missed the pool must not kill the test process
            assert os.getpid() != test_pid
            os._exit(3)

        monkeypatch.setattr(harness, "run_block", dying_run_block)
        config = tmp_path / "exp.cfg"
        config.write_text(good_config(tmp_path / "out"))
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a worker process died")
        assert not (tmp_path / "out" / "runs.csv").exists()
