"""Config parsing, seed derivation and experiment orchestration."""

import csv
import glob
import math
import os
import pickle
import re
import time
from dataclasses import MISSING, FrozenInstanceError, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import CONFIGS_DIR, evaluate, load_config, traced
import vcbpso
from vcbpso import errors, harness, knapsack
from vcbpso.cli import main
from vcbpso.engine import WSchedule
from vcbpso.errors import ConfigError, ParseError, ResourceError
from vcbpso.harness import (
    GROUP_ELEMENTS,
    ExperimentSpec,
    InstanceSource,
    Variant,
    derive_seed,
    group_memory,
    group_size,
    parse_config,
    run_experiment,
)
from vcbpso.results import paired
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


def parse_text(tmp_path, text):
    """The spec of config ``text``, written to a file in ``tmp_path``."""
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return parse_config(path)


class TestVariantLabel:
    def test_corrected_label(self):
        v = Variant(TransferKind.VT2, True, WSchedule(1.0, 1.0), None)
        assert v.label == "VCv2_w1"

    def test_uncorrected_ramp_label(self):
        v = Variant(TransferKind.VT3, False, WSchedule(1.0, 0.4), 5.0)
        assert v.label == "VT3_w1-0.4"


class TestParseConfig:
    def test_full_round_trip(self, tmp_path):
        spec = parse_text(tmp_path, good_config(tmp_path))
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
        spec = parse_text(tmp_path, good_config(tmp_path))
        assert str(spec.variants[2].w) == "0.6"
        assert str(spec.variants[1].w) == "1-0.4"

    def test_unknown_key_names_line(self, tmp_path):
        text = good_config(tmp_path) + "\nbogus.key = 3\n"
        with pytest.raises(ParseError, match=r"bogus\.key"):
            parse_text(tmp_path, text)

    def test_duplicate_key(self, tmp_path):
        text = good_config(tmp_path) + "\nswarm.size = 7\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_text(tmp_path, text)

    def test_missing_required_key(self, tmp_path):
        text = good_config(tmp_path).replace("run.base_seed = 42", "")
        with pytest.raises(ParseError, match="run.base_seed"):
            parse_text(tmp_path, text)

    def test_zero_repetitions(self, tmp_path):
        text = good_config(tmp_path).replace("run.repetitions = 2",
                                             "run.repetitions = 0")
        with pytest.raises(ParseError, match="repetitions"):
            parse_text(tmp_path, text)

    def test_ramp_with_one_iteration_rejected(self, tmp_path):
        text = good_config(tmp_path).replace("run.iterations = 25",
                                             "run.iterations = 1")
        with pytest.raises(ParseError, match=r"VT2_w1-0\.4: .*2 iterations"):
            parse_text(tmp_path, text)

    def test_ramp_with_zero_iterations_accepted(self, tmp_path):
        text = good_config(tmp_path).replace("run.iterations = 25",
                                             "run.iterations = 0")
        assert parse_text(tmp_path, text).iterations == 0

    def test_bad_value_names_key_and_line(self, tmp_path):
        text = good_config(tmp_path).replace("instance.n = 30",
                                             "instance.n = many")
        with pytest.raises(ParseError, match=r"instance\.n"):
            parse_text(tmp_path, text)

    def test_empty_variants(self, tmp_path):
        text = good_config(tmp_path).replace(
            "variants = vt2, on, 1.0, none; vt2, off, 1.0-0.4, 5; "
            "vt1, off, 0.6, 5",
            "variants = ")
        with pytest.raises(ParseError, match="variants"):
            parse_text(tmp_path, text)

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
            parse_text(tmp_path, text)

    @pytest.mark.parametrize("old, new, message", [
        # "nan" and "inf" are no plain decimal numbers; 1e999 reads as inf
        ("swarm.c1 = 2.0", "swarm.c1 = nan",
         "key 'swarm.c1': not a plain decimal number: 'nan'"),
        ("swarm.c2 = 2.0", "swarm.c2 = inf",
         "key 'swarm.c2': not a plain decimal number: 'inf'"),
        ("swarm.c2 = 2.0", "swarm.c2 = 1e999", "c2=inf"),
        ("vt1, off, 0.6, 5", "vt1, off, 0.6, 1e999",
         r"VT1_w0\.6: .*vmax=inf"),
        ("vt1, off, 0.6, 5", "vt1, off, 1e999, 5", "w=inf"),
        ("vt1, off, 0.6, 5", "vt1, off, 1.0-nan, 5",
         "key 'variants': bad w schedule: '1.0-nan'"),
    ])
    def test_nonfinite_settings_name_the_key(self, tmp_path, old, new,
                                             message):
        text = good_config(tmp_path).replace(old, new)
        with pytest.raises(ParseError, match=message):
            parse_text(tmp_path, text)

    def test_path_conflicts_with_generation_keys(self, tmp_path):
        text = good_config(tmp_path) + "\ninstance.path = inst.txt\n"
        with pytest.raises(ParseError, match="instance.path"):
            parse_text(tmp_path, text)

    def test_path_only_source(self, tmp_path):
        text = """
instance.path = some/instance.txt
run.iterations = 5
run.repetitions = 1
run.base_seed = 1
variants = vt1, on, 1.0, none
output.dir = out
"""
        spec = parse_text(tmp_path, text)
        assert spec.instance.path == "some/instance.txt"
        assert spec.swarm_size == 20  # default

    @pytest.mark.parametrize("spelling", ["1_0", "+3", "\u0663"])
    def test_integers_are_plain_decimal(self, tmp_path, spelling):
        # int() reads each spelling; instance files refuse them, and so
        # does every integer key
        keys = [key for key, (_, convert) in harness.KEYS.items()
                if convert is knapsack.integer]
        assert len(keys) == 7
        for key in keys:
            text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {spelling}",
                          good_config(tmp_path), flags=re.M)
            with pytest.raises(ParseError) as info:
                parse_text(tmp_path, text)
            assert str(info.value).endswith(
                f": key {key!r}: not a plain decimal integer: {spelling!r}")

    @pytest.mark.parametrize("spelling", ["1_0.5", "+2", "\u0663", "inf"])
    def test_reals_are_plain_decimal(self, tmp_path, spelling):
        # float() reads each spelling; every real-valued key refuses them,
        # and so do a variant's w and vmax
        keys = [key for key, (_, convert) in harness.KEYS.items()
                if convert is knapsack.real]
        assert keys == ["instance.s", "swarm.c1", "swarm.c2"]
        for key in keys:
            text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {spelling}",
                          good_config(tmp_path), flags=re.M)
            with pytest.raises(ParseError) as info:
                parse_text(tmp_path, text)
            assert str(info.value).endswith(
                f": key {key!r}: not a plain decimal number: {spelling!r}")
        for new, refusal in ((f"vt1, off, {spelling}, 5", "bad w schedule: "),
                             (f"vt1, off, 0.6, {spelling}", "bad vmax ")):
            text = good_config(tmp_path).replace("vt1, off, 0.6, 5", new)
            with pytest.raises(ParseError) as info:
                parse_text(tmp_path, text)
            assert str(info.value).endswith(
                f": key 'variants': {refusal}{spelling!r}")

    def test_reals_may_carry_an_exponent(self, tmp_path):
        text = (good_config(tmp_path)
                .replace("swarm.c1 = 2.0", "swarm.c1 = 1e-3")
                .replace("swarm.c2 = 2.0", "swarm.c2 = 2")
                .replace("instance.s = 0.5", "instance.s = .5")
                .replace("vt1, off, 0.6, 5", "vt1, off, 1.2-1E-2, 5e0"))
        spec = parse_text(tmp_path, text)
        assert (spec.c1, spec.c2, spec.instance.s) == (1e-3, 2.0, 0.5)
        assert spec.variants[2].w == WSchedule(1.2, 0.01)
        assert spec.variants[2].vmax == 5.0

    def test_non_keyvalue_line(self, tmp_path):
        with pytest.raises(ParseError, match=":1: expected 'key = value'"):
            parse_text(tmp_path, "just some words\n")

    def test_comments_and_blanks_ignored(self, tmp_path):
        text = "# leading comment\n\n" + good_config(tmp_path)
        parse_text(tmp_path, text)

    def test_output_flags(self, tmp_path):
        text = good_config(tmp_path) + "\noutput.traces = off\noutput.metrics = off\n"
        spec = parse_text(tmp_path, text)
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
        (dict(c1=math.nan), "c1=nan"),
        (dict(c2=math.inf), "c2=inf"),
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
        (Variant(TransferKind.VT1, False, WSchedule(0.6, 0.6), math.inf),
         r"variant VT1_w0\.6: .*vmax=inf"),
    ])
    def test_bad_variant_names_it(self, tmp_path, variant, message):
        good = Variant(TransferKind.VT2, True, WSchedule(1.0, 1.0), None)
        with pytest.raises(ConfigError, match=message):
            self._spec(tmp_path, variants=[good, variant])
        assert not (tmp_path / "out").exists()

    def test_an_update_that_can_overflow_names_the_variant(self, tmp_path):
        fast = Variant(TransferKind.VT2, False, WSchedule(1.0, 1.0), 5.0)
        with pytest.raises(ConfigError) as refusal:
            self._spec(tmp_path, variants=[fast], c1=1e308, c2=1e308)
        assert str(refusal.value) == (
            "variant VT2_w1: c1=1e+308, c2=1e+308, w=1 and a velocity bound "
            "of 5.0 can overflow the velocity update")
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

    @pytest.mark.parametrize("source, given", [
        (dict(), "none"),
        (dict(path="inst.txt", instance_type="UCI", n=5),
         "instance.path, instance.type, instance.n"),
        (dict(instance_type="UCI", n=10, r=100, s=0.5),
         "instance.type, instance.n, instance.r, instance.s"),
    ])
    def test_instance_source_is_a_path_or_all_generation_keys(
            self, tmp_path, source, given):
        with pytest.raises(ConfigError, match=re.escape(
                "needs instance.path alone or all of instance.type, "
                f"instance.n, instance.r, instance.s, instance.seed; "
                f"got {given}")):
            self._spec(tmp_path, instance=InstanceSource(**source))
        assert not (tmp_path / "out").exists()

    def test_negative_base_seed(self, tmp_path):
        with pytest.raises(ConfigError,
                           match="run.base_seed must be >= 0, got -1"):
            self._spec(tmp_path, base_seed=-1)
        assert not (tmp_path / "out").exists()

    def test_negative_instance_seed(self):
        with pytest.raises(ConfigError,
                           match="instance.seed must be >= 0, got -3"):
            InstanceSource(instance_type="UCI", n=10, r=100, s=0.5, seed=-3)


def test_task_arguments_survive_pickling(tmp_path):
    """The worker pool pickles the spec and the objective into each task;
    the copies must evaluate a swarm exactly as the originals, through
    the instance's cached drop order and sums matrix."""
    spec = parse_text(tmp_path, good_config(tmp_path))
    objective = knapsack.KnapsackObjective(spec.instance.load())
    spec_copy, objective_copy = pickle.loads(pickle.dumps((spec, objective)))
    assert spec_copy == spec
    inst = objective.instance
    rng = np.random.Generator(np.random.PCG64(3))
    batch = rng.integers(0, 2, size=(40, inst.n), dtype=np.uint8)
    infeasible = batch @ inst.weights > inst.capacity
    assert 0 < infeasible.sum() < len(batch)
    fitness, stored = objective.evaluate_swarm(batch)
    fitness_copy, stored_copy = objective_copy.evaluate_swarm(batch)
    np.testing.assert_array_equal(fitness_copy, fitness)
    np.testing.assert_array_equal(stored_copy, stored)
    assert not (stored[infeasible] == batch[infeasible]).all()


class TestShippedConfigs:
    @pytest.mark.parametrize("name", sorted(
        os.path.basename(path)
        for path in glob.glob(os.path.join(CONFIGS_DIR, "*.cfg"))))
    def test_parses(self, name):
        spec = load_config(name)
        assert isinstance(spec, ExperimentSpec)
        assert spec.output_dir.startswith("results/")

    @pytest.mark.parametrize("name", ["low_dim.cfg", "scaling.cfg"])
    def test_table_configs_pair_every_kind(self, name):
        variants = load_config(name).variants
        pairs = paired([SimpleNamespace(variant=v) for v in variants])
        assert [kind for kind, _, _ in pairs] == list(TransferKind)
        for kind, corr, plain in pairs:
            assert corr.variant.correction and not plain.variant.correction


def test_readme_example_config_lists_every_key():
    """The README's example config (``instance.path`` in its comment)
    names every key ``parse_config`` knows, and no other."""
    with open(os.path.join(CONFIGS_DIR, os.pardir, "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"Config files are line-oriented.*?```\n(.*?)```",
                      readme, re.S).group(1)
    keys = set(re.findall(r"^([a-z0-9_.]+) =", block, re.M))
    keys |= set(re.findall(r"#.*?\b([a-z]+\.[a-z0-9_]+) =", block))
    assert keys == set(harness.KEYS)


REQUIRED_ONLY = """instance.path = inst.txt
run.iterations = 5
run.repetitions = 1
run.base_seed = 1
variants = vt1, on, 1.0, none
output.dir = out
"""


def test_keys_set_each_spec_field_once(tmp_path):
    """Each ``KEYS`` field exists on its dataclass (InstanceSource for
    ``instance.*``), each field but ``ExperimentSpec.instance`` has exactly
    one key, a config of the required keys alone gets the dataclass
    defaults, and each of those keys is required."""
    owners = {cls: sorted(field for key, (field, _) in harness.KEYS.items()
                          if key.startswith("instance.")
                          == (cls is InstanceSource))
              for cls in (InstanceSource, ExperimentSpec)}
    for cls, keyed in owners.items():
        assert keyed == sorted(f.name for f in fields(cls)
                               if f.name != "instance")
    spec = parse_text(tmp_path, REQUIRED_ONLY)
    defaults = {f.name: f.default for f in fields(ExperimentSpec)
                if f.default is not MISSING}
    assert defaults == {"swarm_size": 20, "c1": 2.0, "c2": 2.0,
                        "save_traces": True, "compute_metrics": True}
    assert {name: getattr(spec, name) for name in defaults} == defaults
    assert spec.instance == InstanceSource(path="inst.txt")
    for line in REQUIRED_ONLY.splitlines()[1:]:
        key = line.partition(" =")[0]
        with pytest.raises(ParseError, match=re.escape(
                f"exp.cfg: missing required key '{key}'")):
            parse_text(tmp_path, REQUIRED_ONLY.replace(line + "\n", ""))


class TestPackage:
    def test_every_exported_name_resolves(self):
        for name in vcbpso.__all__:
            assert getattr(vcbpso, name) is not None, name


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
        return replace(parse_text(tmp_path, good_config(tmp_path / "out")), **kw)

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

    def test_an_empty_output_dir_is_refused_before_the_dp(self, tmp_path,
                                                          monkeypatch):
        def no_dp(*args, **kwargs):
            raise AssertionError("the DP ran")

        monkeypatch.setattr(knapsack, "dp_optimal", no_dp)
        with pytest.raises(ConfigError,
                           match="^output.dir must not be empty$"):
            run_experiment(self._spec(tmp_path, output_dir=""))

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
        spec2 = parse_text(tmp_path, good_config(tmp_path / "out2"))
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
        best = max(evaluate(instance, row) for row in init)
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


def group_need(*args) -> dict[str, int]:
    """The terms ``errors.check_memory`` counts for ``group_memory(*args)``."""
    return errors.check_memory("a run group", *group_memory(*args))


class TestMemoryCheck:
    """The bytes of a run group and of the DP, checked before either."""

    # 25 iterations peak in the swarm phase; at 200 and 400 the metric
    # phase peaks on top of the objective's scratch
    @pytest.mark.parametrize("iterations", [25, 200, 400])
    @pytest.mark.parametrize("config, runs, save_traces, compute_metrics", [
        ("low_dim.cfg", 4, False, False),
        ("low_dim.cfg", 4, True, True),
        ("low_dim.cfg", 1, True, False),
        ("low_dim.cfg", 1, False, True),
        ("scaling.cfg", 1, False, False),
        ("scaling.cfg", 1, True, True),
    ])
    def test_group_memory_bounds_the_traced_peak(
            self, tmp_path, config, runs, save_traces, compute_metrics,
            iterations):
        spec = replace(load_config(config), iterations=iterations,
                       save_traces=save_traces,
                       compute_metrics=compute_metrics,
                       output_dir=str(tmp_path))
        objective = knapsack.KnapsackObjective(spec.instance.load())
        need = sum(group_need(runs, spec.iterations, spec.swarm_size,
                              objective.dimensions, save_traces,
                              compute_metrics).values())
        # every variant, since the step's temporaries differ by kind
        peaks = [traced(harness._execute_group, spec,
                        [(vi, rep) for rep in range(runs)], objective, 1)[2]
                 for vi in range(len(spec.variants))]
        assert max(peaks) <= need <= 1.35 * max(peaks), (need, peaks)

    def test_terms(self):
        # d=100, m=20, T=1000: two 64-bit words per position
        terms = group_need(4, 1000, 20, 100, True, True)
        assert terms["trace slabs"] == 4 * 1001 * 8 * (1 + 20 * 2)
        assert terms["curves"] == 4 * 8 * (1001 + 3 * 1000)
        assert terms["objective scratch"] == 9 * 4 * 20 * 100
        # dist and dist_eff
        assert terms["metric matrices"] == 2 * 8 * 1000 * 20
        assert "swarm" not in terms
        # no positions kept, nothing but the swarm steps
        terms = group_need(1, 10, 20, 500, False, False)
        assert terms == {"trace slabs": 1 * 11 * 8, "curves": 8 * 11,
                         "objective scratch": 9 * 20 * 500,
                         "swarm": 71 * 20 * 500}

    def test_refusal_names_the_terms(self, tmp_path, monkeypatch):
        def no_dp(*args, **kw):
            raise AssertionError("the DP ran before the check")

        monkeypatch.setattr(errors, "MEMORY_LIMIT", 10**5)
        monkeypatch.setattr(knapsack, "dp_optimal", no_dp)
        spec = parse_text(tmp_path, good_config(tmp_path / "out"))
        with pytest.raises(ResourceError) as info:
            run_experiment(spec)
        message = str(info.value)
        assert re.match(r"the experiment with \d+ workers? needs ", message)
        assert message.endswith("limit is 100000")
        for term in ("trace slabs", "curves", "DP"):
            assert re.search(term + r" \d+", message), message
        assert not (tmp_path / "out").exists()

    def test_counts_a_run_group_per_worker(self, tmp_path, monkeypatch):
        def no_dp(*args, **kw):
            raise AssertionError("the DP ran before the check")

        def refusal(workers):
            monkeypatch.setattr(harness, "_worker_count",
                                lambda runs: workers)
            with pytest.raises(ResourceError) as info:
                run_experiment(spec)
            message = str(info.value)
            assert message.startswith(
                f"the experiment with {workers} worker"), message
            return message

        def need(workers):
            return int(re.search(r"needs (\d+) bytes", refusal(workers))[1])

        out = tmp_path / "out"
        spec = parse_text(tmp_path, good_config(out))
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 0)
        # the generated instance's own check comes first; at a limit of 0
        # it passes only when it counts nothing
        monkeypatch.setattr(knapsack, "GENERATE_BYTES", 0)
        one, two = need(1), need(2)
        assert one < two
        # the instance of 30 items, here and in each of two workers
        assert [int(re.search(r"\(instance (\d+),", refusal(workers))[1])
                for workers in (1, 2)] == [56 * 30, 3 * 56 * 30]
        monkeypatch.setattr(errors, "MEMORY_LIMIT", (one + two) // 2)
        monkeypatch.setattr(knapsack, "dp_optimal", no_dp)
        assert need(2) == two
        assert not out.exists()
        monkeypatch.undo()
        monkeypatch.setattr(errors, "MEMORY_LIMIT", (one + two) // 2)
        monkeypatch.setattr(harness, "_worker_count", lambda runs: 1)
        run_experiment(spec)
        assert (out / "runs.csv").exists()

    def test_a_huge_instance_n_is_refused_before_generating(
            self, tmp_path, monkeypatch):
        def no_generate(*args, **kw):
            raise AssertionError("the instance was generated")

        monkeypatch.setattr(knapsack, "generate", no_generate)
        out = tmp_path / "out"
        spec = parse_text(tmp_path, good_config(out).replace(
            "instance.n = 30", f"instance.n = {10**30}"))
        with pytest.raises(ResourceError) as info:
            run_experiment(spec)
        assert str(info.value) == (
            f"the instance of instance.n = {10**30} needs {80 * 10**30} "
            f"bytes (instance {80 * 10**30}), limit is {errors.MEMORY_LIMIT}")
        assert not out.exists()

    def test_run_asks_the_dp_for_no_selection(self, tmp_path, monkeypatch):
        calls = []
        real_dp_optimal = knapsack.dp_optimal

        def recording_dp_optimal(instance, *args, **kw):
            calls.append((args, kw))
            return real_dp_optimal(instance, *args, **kw)

        monkeypatch.setattr(knapsack, "dp_optimal", recording_dp_optimal)
        aggregates = run_experiment(parse_text(tmp_path, good_config(tmp_path)))
        assert calls == [((), {"selection": False})]
        instance = parse_text(tmp_path, good_config(tmp_path)).instance.load()
        assert aggregates[0].optimum == real_dp_optimal(instance)[0]


class TestGroupSize:
    def test_d500_groups_of_four(self):
        # the 8 runs of a d=500 protocol pass make two blocks of four
        assert group_size(8, 2, 20, 500) == 4
        assert group_size(160, 2, 20, 500) == 4
        assert group_size(160, 1, 20, 500) == 4
        assert group_size(160, 2, 20, 1000) == 2

    def test_d100_groups_of_twenty(self):
        assert group_size(160, 2, 20, 100) == 20
        # 8 runs on 2 CPUs: the runs per worker cap the group at 4
        assert group_size(8, 2, 20, 100) == 4

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
        return replace(parse_text(tmp_path, good_config(tmp_path / "out")), **kw)

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
