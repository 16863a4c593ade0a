"""Command line surface: gen, solve, run, metrics, report."""

import contextlib
import csv
import gzip
import io
import os
import re
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CONFIGS_DIR, brute_force_optimal, pool_trace, traced
from test_trace import (
    BAD_RECORDS,
    OVERSIZED_HEADER,
    VERSION_1,
    build_trace,
    save_bad_trace,
)
from vcbpso import cli, errors, harness, knapsack, results
from vcbpso.cli import main
from vcbpso.errors import check_memory
from vcbpso.knapsack import load_instance
from vcbpso.trace import RunTrace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def three_item_file(tmp_path, three_items):
    path = tmp_path / "three.txt"
    knapsack.save_instance(three_items, path)
    return str(path)


@pytest.fixture
def config_file(tmp_path):
    out = tmp_path / "results"
    path = tmp_path / "exp.cfg"
    path.write_text(f"""
instance.type = uci
instance.n = 30
instance.r = 100
instance.s = 0.5
instance.seed = 11
swarm.size = 6
run.iterations = 20
run.repetitions = 2
run.base_seed = 42
variants = vt2, on, 1.0, none; vt2, off, 1.0-0.4, 5
output.dir = {out}
""")
    return str(path), out


class TestGen:
    def test_writes_instance(self, tmp_path, capsys):
        out = tmp_path / "inst.txt"
        code, stdout, _ = run_cli(
            capsys, "gen", "--type", "sci", "--n", "100", "--r", "1000",
            "--s", "0.5", "--seed", "7", "--out", str(out))
        assert code == 0
        inst = load_instance(out)
        assert inst.n == 100
        assert np.array_equal(inst.profits, inst.weights + 100)
        assert "n=100" in stdout

    def test_bad_type_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--type", "xci", "--n", "10", "--r", "100",
                  "--s", "0.5", "--seed", "1", "--out", str(tmp_path / "x")])
        assert exc.value.code != 0
        assert "invalid choice" in capsys.readouterr().err

    def test_sci_with_bad_r(self, capsys, tmp_path):
        code, _, stderr = run_cli(
            capsys, "gen", "--type", "sci", "--n", "10", "--r", "1005",
            "--s", "0.5", "--seed", "1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "error:" in stderr

    def test_negative_seed_names_the_seed(self, capsys, tmp_path):
        out = tmp_path / "x"
        code, stdout, stderr = run_cli(
            capsys, "gen", "--type", "uci", "--n", "10", "--r", "100",
            "--s", "0.5", "--seed", "-1", "--out", str(out))
        assert code == 2 and stdout == ""
        assert stderr == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestSolve:
    def test_prints_optimum(self, capsys, three_item_file):
        code, stdout, _ = run_cli(capsys, "solve", "--instance",
                                  three_item_file)
        assert code == 0
        assert stdout.strip() == "7"

    def test_writes_selection(self, capsys, three_item_file, tmp_path):
        sol = tmp_path / "sel.txt"
        code, _, _ = run_cli(capsys, "solve", "--instance", three_item_file,
                             "--out", str(sol))
        assert code == 0
        assert sol.read_text().strip() == "110"

    def test_default_selection_path(self, capsys, three_item_file, tmp_path):
        run_cli(capsys, "solve", "--instance", three_item_file)
        assert (tmp_path / "three.txt.sol").exists()

    def test_missing_file(self, capsys):
        code, _, stderr = run_cli(capsys, "solve", "--instance", "/nope.txt")
        assert code == 2 and "error:" in stderr

    @pytest.mark.parametrize("damage", ["cut in half", "not UTF-8"])
    def test_a_damaged_instance_names_the_file(self, capsys, tmp_path,
                                               damage):
        path = tmp_path / "cut.txt.gz"
        knapsack.save_instance(knapsack.generate("UCI", 50, 100, 0.5, 1),
                               path)
        if damage == "cut in half":
            data = path.read_bytes()
            path.write_bytes(data[:len(data) // 2])
        else:
            with gzip.open(path, "ab") as fh:
                fh.write(b"\xff\xfe 1\n")
        code, stdout, stderr = run_cli(capsys, "solve", "--instance",
                                       str(path))
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: {path}: ")
        assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr
        assert not os.path.exists(f"{path}.sol")

    def test_a_dp_over_the_limit_is_refused(self, capsys, tmp_path):
        path = tmp_path / "big.txt"
        knapsack.save_instance(knapsack.KnapsackInstance(
            np.array([10**9, 10**9 + 1]), np.array([1, 2]), 2 * 10**9), path)
        code, stdout, stderr = run_cli(capsys, "solve", "--instance",
                                       str(path))
        assert code == 2 and stdout == ""
        assert stderr.startswith(
            "error: the DP (n=2, capacity=2000000000) needs ")
        assert stderr.endswith(f"limit is {errors.MEMORY_LIMIT}\n")
        assert len(stderr.splitlines()) == 1
        for term in ("value rows", "item arrays", "choices"):
            assert re.search(term + r" \d+", stderr), stderr
        assert not os.path.exists(f"{path}.sol")

    def test_a_capacity_above_the_total_weight_is_solved(self, capsys,
                                                         tmp_path):
        # the value row ends at the total weight 8, not at the capacity
        path = tmp_path / "loose.txt"
        path.write_text(f"2 {10**12} EXTERNAL\n3 1\n5 2\n")
        code, stdout, stderr = run_cli(capsys, "solve", "--instance",
                                       str(path))
        assert (code, stdout, stderr) == (0, "3\n", "")
        assert (tmp_path / "loose.txt.sol").read_text() == "11\n"


class TestRun:
    def test_executes_config(self, capsys, config_file):
        path, out = config_file
        code, stdout, _ = run_cli(capsys, "run", "--config", path)
        assert code == 0
        assert (out / "runs.csv").exists()
        assert "VCv2_w1:" in stdout and "% of optimum" in stdout
        with open(out / "aggregate.csv", newline="") as fh:
            ratio = {r["variant"]: float(r["ratio"])
                     for r in csv.DictReader(fh)}
        gap = 100 * (ratio["VCv2_w1"] - ratio["VT2_w1-0.4"])
        assert stdout.splitlines()[-1] == (
            f"mean corrected-vs-uncorrected gap: {gap:.2f} percentage points")

    def test_no_gap_line_without_a_pair(self, capsys, config_file):
        path, _ = config_file
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace("vt2, on, 1.0, none; ", ""))
        code, stdout, _ = run_cli(capsys, "run", "--config", path)
        assert code == 0 and "gap" not in stdout

    def test_empty_variants_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("""
instance.type = uci
instance.n = 10
instance.r = 100
instance.s = 0.5
instance.seed = 1
run.iterations = 5
run.repetitions = 1
run.base_seed = 1
variants =
output.dir = out
""")
        code, _, stderr = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and "variants" in stderr


    def test_ramp_with_one_iteration_fails_before_any_run(self, capsys,
                                                          tmp_path):
        out = tmp_path / "results"
        out.mkdir()
        cfg = tmp_path / "ramp.cfg"
        cfg.write_text(f"""
instance.type = uci
instance.n = 10
instance.r = 100
instance.s = 0.5
instance.seed = 1
run.iterations = 1
run.repetitions = 3
run.base_seed = 1
variants = vt1, off, 0.6, 5; vt2, off, 1.0-0.4, 5
output.dir = {out}
""")
        code, _, stderr = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and "w ramp needs at least 2 iterations" in stderr
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("line, key", [
        ("run.base_seed = -1", "run.base_seed"),
        ("instance.seed = -1", "instance.seed"),
    ])
    def test_negative_seed_names_its_key(self, capsys, config_file, line,
                                         key):
        path, out = config_file
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace(key + " = ", "# ") + line + "\n")
        code, stdout, stderr = run_cli(capsys, "run", "--config", path)
        assert code == 2 and stdout == ""
        assert stderr == f"error: {path}: {key} must be >= 0, got -1\n"
        assert not out.exists()

    def test_a_duplicate_key_names_the_file_and_line(self, capsys,
                                                     config_file):
        path, out = config_file
        with open(path, "a") as fh:
            fh.write("instance.n = 40\n")
        code, stdout, stderr = run_cli(capsys, "run", "--config", path)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {path}:13: duplicate key 'instance.n'\n"
        assert not out.exists()

    @pytest.mark.parametrize("old, new, message", [
        ("instance.n = 30", "instance.n = many",
         ":3: key 'instance.n': not a plain decimal integer: 'many'"),
        ("vt2, on, 1.0, none", "vt9, on, 1.0, none",
         ":11: key 'variants': unknown transfer kind 'vt9'"),
        ("vt2, on, 1.0, none", "vt2, on, 1.0",
         ":11: key 'variants': variant needs 'kind,correction,w,vmax', "
         "got 'vt2, on, 1.0'"),
    ])
    def test_a_bad_value_names_the_file_line_and_key(self, capsys,
                                                     config_file, old, new,
                                                     message):
        path, out = config_file
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace(old, new))
        code, stdout, stderr = run_cli(capsys, "run", "--config", path)
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {path}{message}\n"
        assert not out.exists()

    def test_a_missing_key_names_the_file(self, capsys, config_file):
        path, out = config_file
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace("run.iterations = 20", ""))
        code, stdout, stderr = run_cli(capsys, "run", "--config", path)
        assert (code, stdout) == (2, "")
        assert stderr == (f"error: {path}: missing required key "
                          f"'run.iterations'\n")

    @pytest.mark.parametrize("value", ["", '""'])
    def test_an_empty_output_dir_fails_before_the_dp(self, capsys,
                                                     config_file,
                                                     monkeypatch, value):
        def no_dp(*args, **kwargs):
            raise AssertionError("the DP ran")

        monkeypatch.setattr(knapsack, "dp_optimal", no_dp)
        path, _ = config_file
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(f"output.dir = {value}"
                               if ln.startswith("output.dir") else ln
                               for ln in lines) + "\n")
        code, stdout, stderr = run_cli(capsys, "run", "--config", path)
        assert (code, stdout) == (2, "")
        assert stderr == "error: output.dir must not be empty\n"

    def test_trillion_iterations_refused_before_any_work(self, capsys,
                                                         tmp_path):
        with open(os.path.join(CONFIGS_DIR, "low_dim.cfg")) as fh:
            lines = fh.read().splitlines()
        out = tmp_path / "results"
        cfg = tmp_path / "long.cfg"
        cfg.write_text("\n".join(
            "run.iterations = 1000000000000" if ln.startswith("run.iterations")
            else f"output.dir = {out}" if ln.startswith("output.dir")
            else ln for ln in lines) + "\n")
        code, stdout, stderr = run_cli(capsys, "run", "--config", str(cfg))
        assert code == 2 and stdout == ""
        assert re.match(r"error: the experiment with \d+ workers? needs ",
                        stderr)
        assert len(stderr.splitlines()) == 1 and "trace slabs" in stderr
        assert not out.exists()

    def test_an_update_that_can_overflow_fails_before_any_run(self, capsys,
                                                              config_file):
        path, out = config_file
        with open(path, "a") as fh:
            fh.write("swarm.c1 = 1e308\nswarm.c2 = 1e308\n")
        code, stdout, stderr = run_cli(capsys, "run", "--config", path)
        assert (code, stdout) == (2, "")
        # the first variant is corrected, so its bound is the clamp
        assert stderr == (f"error: {path}: variant VCv2_w1: c1=1e+308, "
                          "c2=1e+308, w=1 "
                          "and a velocity bound of 1000000000000.0 can "
                          "overflow the velocity update\n")
        assert not out.exists()

    def test_a_config_that_is_not_utf8_names_the_path(self, capsys,
                                                      tmp_path):
        path = tmp_path / "latin.cfg"
        path.write_bytes("# r\xe9sultats\n".encode("latin-1"))
        code, stdout, stderr = run_cli(capsys, "run", "--config", str(path))
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: {path}: 'utf-8' codec can't "
                                 f"decode byte 0xe9")
        assert len(stderr.splitlines()) == 1

    def test_a_huge_instance_n_is_an_error_line(self, capsys, config_file):
        path, out = config_file
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text.replace("instance.n = 30", f"instance.n = {10**30}"))
        code, stdout, stderr = run_cli(capsys, "run", "--config", path)
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: the instance of instance.n = "
                                 f"{10**30} needs ")
        assert len(stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}],
                             ids=["in-process", "worker pool"])
    def test_memory_error_is_an_error_line(self, capsys, config_file,
                                           monkeypatch, cpus):
        def exhausted_run_block(configs, objective, **kw):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        monkeypatch.setattr(harness, "run_block", exhausted_run_block)
        path, out = config_file
        code, stdout, stderr = run_cli(capsys, "run", "--config", path)
        assert code == 2 and stdout == ""
        assert stderr == ("error: out of memory: Unable to allocate 7.28 TiB "
                          "for an array\n")
        assert not (out / "runs.csv").exists()


class TestMetrics:
    def test_emits_csvs_and_pujv(self, capsys, config_file, tmp_path):
        path, out = config_file
        run_cli(capsys, "run", "--config", path)
        trace = str(out / "trace_VCv2_w1_rep0.txt.gz")
        code, stdout, _ = run_cli(capsys, "metrics", "--trace", trace)
        assert code == 0
        total = int(stdout.strip())
        assert total >= 0
        base = trace[:-len(".txt.gz")]
        assert (out / f"{base.rsplit('/', 1)[1]}_particle_metrics.csv").exists()
        agg = out / "trace_VCv2_w1_rep0_aggregate_metrics.csv"
        with open(agg, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "mean_dist", "mean_dist_eff",
                           "cum_pujv"]
        assert int(rows[-1][3]) == total

    def test_range_flags(self, capsys, config_file):
        path, out = config_file
        run_cli(capsys, "run", "--config", path)
        trace = str(out / "trace_VCv2_w1_rep0.txt.gz")
        _, full, _ = run_cli(capsys, "metrics", "--trace", trace)
        _, head, _ = run_cli(capsys, "metrics", "--trace", trace,
                             "--from", "1", "--to", "10")
        _, tail, _ = run_cli(capsys, "metrics", "--trace", trace,
                             "--from", "11", "--to", "20")
        assert int(head) + int(tail) == int(full)

    def test_bad_range_fails_before_writing(self, capsys, config_file):
        path, out = config_file
        run_cli(capsys, "run", "--config", path)
        trace = str(out / "trace_VCv2_w1_rep0.txt.gz")
        code, stdout, stderr = run_cli(capsys, "metrics", "--trace", trace,
                                       "--from", "5", "--to", "5000")
        assert code == 2 and stdout == "" and "[5, 5000]" in stderr
        for suffix in ("_particle_metrics.csv", "_aggregate_metrics.csv"):
            assert not (out / f"trace_VCv2_w1_rep0{suffix}").exists()

    def test_bad_record_fails_before_writing(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        save_bad_trace(path, BAD_RECORDS["padding bit"][0])
        code, stdout, stderr = run_cli(capsys, "metrics", "--trace",
                                       str(path))
        assert code == 2 and stdout == ""
        assert stderr.startswith("error:") and "record 1" in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]

    def test_oversized_header_fails_with_one_error_line(self, capsys,
                                                        tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(OVERSIZED_HEADER)
        code, stdout, stderr = run_cli(capsys, "metrics", "--trace",
                                       str(path))
        assert code == 2 and stdout == ""
        assert stderr.startswith("error:") and len(stderr.splitlines()) == 1
        assert "m=1000000, d=100" in stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt"]


# a 4-record trace of m=2, d=70: two words per position, 58 padding bits
# in the last
BASE_RECORDS = build_trace(
    list(np.random.Generator(np.random.PCG64(12)).integers(
        0, 2, size=(4, 2, 70))), gbest=[1.0, 2.5, 2.5, 3.0])
BASE_BODY = (BASE_RECORDS.gbest_fitness.tobytes()
             + BASE_RECORDS.positions.tobytes())

# header tokens that are bad counts, huge counts or no numbers at all
HEADER_TOKENS = st.one_of(st.integers(-2, 8).map(str),
                          st.sampled_from(["1000000", "10" + "0" * 11,
                                           "1" + "0" * 30, "x", "2.0", "",
                                           "+3", "1_0", "\u0663"]))


@st.composite
def mutated_traces(draw):
    """(file name, file bytes): the base trace with one mutation, gzipped
    or not, perhaps truncated."""
    header = ["2", "70", "4"]
    body = BASE_BODY
    kind = draw(st.sampled_from(["none", "header", "cut", "append",
                                 "padding", "byte", "version 1"]),
                label="mutation")
    if kind == "header":
        header[draw(st.integers(0, 2))] = draw(HEADER_TOKENS)
    elif kind == "cut":
        body = body[:draw(st.integers(0, len(body) - 1))]
    elif kind == "append":
        body += draw(st.binary(min_size=1, max_size=40))
    elif kind == "padding":
        # a bit past d=70 in the last word of one of the 8 positions, which
        # follow the 32 bytes of gbest values
        bit = draw(st.integers(6, 63))
        at = 32 + 16 * draw(st.integers(0, 7)) + 8 + bit // 8
        body = body[:at] + bytes([body[at] | 1 << bit % 8]) + body[at + 1:]
    elif kind == "byte":
        at = draw(st.integers(0, len(body) - 1))
        body = body[:at] + bytes([draw(st.integers(0, 255))]) + body[at + 1:]
    data = (VERSION_1 if kind == "version 1"
            else ("vcbpso-trace 2\n" + " ".join(header) + "\n").encode()
            + body)
    if not draw(st.booleans(), label="gzip"):
        return "t.txt", data
    data = gzip.compress(data, mtime=0)
    if draw(st.booleans(), label="truncate"):
        data = data[:draw(st.integers(0, len(data) - 1))]
    return "t.txt.gz", data


class TestMetricsInput:
    @given(mutated_traces())
    @settings(max_examples=300, deadline=None)
    def test_mutated_trace_exits_0_or_names_the_fault(self, case):
        name, data = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "wb") as fh:
                fh.write(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["metrics", "--trace", path])
            written = os.path.exists(os.path.join(tmp,
                                                  "t_particle_metrics.csv"))
        stderr = err.getvalue()
        if code == 0:
            assert written and int(out.getvalue()) >= 0
        else:
            assert code == 2 and out.getvalue() == "" and not written
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            assert "Traceback" not in stderr

    @pytest.mark.parametrize("records", [1001, 4001])
    @pytest.mark.parametrize("d", [100, 500])
    def test_memory_count_bounds_the_traced_peak(self, tmp_path, d, records):
        # m=10 at T=1000 and T=4000, 300 distinct positions per particle
        path = tmp_path / "t.txt.gz"
        pool_trace(records, 10, d).save(path)
        args = cli.build_parser().parse_args(["metrics", "--trace",
                                              str(path)])
        with contextlib.redirect_stdout(io.StringIO()):
            code, _, peak = traced(cli._cmd_metrics, args)
        assert code == 0
        need = sum(check_memory("a trace",
                                *cli.metrics_memory(records, 10, d)).values())
        assert peak <= need <= 1.35 * peak, (need, peak)

    def test_refused_before_the_trace_is_read(self, capsys, tmp_path,
                                              monkeypatch):
        def no_load(path):
            raise AssertionError("the trace was read before the check")

        path = tmp_path / "t.txt.gz"
        pool_trace(101, 4, 100).save(path)
        monkeypatch.setattr(errors, "MEMORY_LIMIT", 10**5)
        monkeypatch.setattr(RunTrace, "load", no_load)
        code, stdout, stderr = run_cli(capsys, "metrics", "--trace",
                                       str(path))
        assert code == 2 and stdout == ""
        assert stderr.startswith(f"error: {path}: vcbpso metrics needs ")
        assert stderr.endswith("limit is 100000\n")
        assert len(stderr.splitlines()) == 1
        for term in ("trace", "metric matrices"):
            assert re.search(term + r" \d+", stderr), stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.txt.gz"]


BASE_INSTANCE = knapsack.generate("UCI", 10, 100, 0.5, 4)

# item fields that are not integers, are out of range or are huge
FIELD_TOKENS = st.sampled_from(["", "0", "-1", "1.5", "x", "1e3", "+3", "1_0",
                                str(2**52), str(2**53 - 1), str(2**63),
                                "-" + "9" * 20, "9" * 20])


@st.composite
def mutated_instances(draw):
    """(file name, file bytes): the base instance's text with one
    mutation, then perhaps gzip, perhaps truncated."""
    weights = BASE_INSTANCE.weights.tolist()
    items = [[str(w), str(p)] for w, p in zip(weights,
                                              BASE_INSTANCE.profits.tolist())]
    head = [str(len(items)), str(BASE_INSTANCE.capacity), "UCI"]
    total = sum(weights)
    kind = draw(st.sampled_from(["none", "count", "drop line", "extra line",
                                 "field", "capacity", "sum to 2**53",
                                 "type"]), label="mutation")
    at = draw(st.integers(0, len(items) - 1), label="item")
    if kind == "count":
        head[0] = draw(st.sampled_from(["0", "-1", "9", "11", "2.0", "x",
                                        "1" + "0" * 30]))
    elif kind == "drop line":
        del items[at]
    elif kind == "extra line":
        items.insert(at, draw(st.sampled_from([items[at], ["7"], []])))
    elif kind == "field":
        items[at][draw(st.integers(0, 1))] = draw(FIELD_TOKENS)
    elif kind == "capacity":
        head[1] = draw(st.sampled_from([
            str(total), str(total + 1), str(total - 1), "0", "-1",
            str(2**63 - 1), str(2**63), str(10**30), "x", "1.5"]))
    elif kind == "sum to 2**53":
        # one weight takes the total to 2**53 (refused) or just below it
        items[at][0] = str(2**53 - total + weights[at]
                           - draw(st.integers(0, 1)))
    elif kind == "type":
        head[2] = draw(st.sampled_from(["XYZ", "", "WCI"]))
    lines = [" ".join(head)] + [" ".join(item) for item in items]
    data = "".join(line + "\n" for line in lines).encode()
    if not draw(st.booleans(), label="gzip"):
        return "i.txt", data
    data = gzip.compress(data, mtime=0)
    if draw(st.booleans(), label="truncate"):
        data = data[:draw(st.integers(0, len(data) - 1))]
    return "i.txt.gz", data


class TestSolveInput:
    @given(mutated_instances())
    @settings(max_examples=300, deadline=None)
    def test_mutated_instance_exits_0_or_names_the_fault(self, case):
        name, data = case
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "wb") as fh:
                fh.write(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["solve", "--instance", path])
            sol = path + ".sol"
            if code == 0:
                inst = load_instance(path)
                with open(sol) as fh:
                    bits = fh.read()
            else:
                assert not os.path.exists(sol)
        stderr = err.getvalue()
        if code == 0:
            assert stderr == ""
            assert re.fullmatch(f"[01]{{{inst.n}}}\n", bits), bits
            chosen = np.array([b == "1" for b in bits[:-1]], dtype=bool)
            profit = int(out.getvalue())
            assert int(inst.weights[chosen].sum()) <= inst.capacity
            assert int(inst.profits[chosen].sum()) == profit
            assert profit == brute_force_optimal(inst)
        else:
            assert code == 2 and out.getvalue() == ""
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            assert "Traceback" not in stderr


# a run of at most 2 variants x 2 repetitions, d <= 20, m <= 20, T <= 20
BASE_CONFIG = """instance.type = uci
instance.n = 12
instance.r = 100
instance.s = 0.5
instance.seed = 3
swarm.size = 4
swarm.c1 = 2.0
swarm.c2 = 2.0
run.iterations = 10
run.repetitions = 2
run.base_seed = 5
variants = vt2, on, 1.0, none; vt1, off, 1.0-0.4, 5
output.dir = out
output.traces = on
output.metrics = on
"""

# values that are no numbers, negative, non-finite, huge, or small enough
# that any accepted config stays as cheap as the base
CONFIG_TOKENS = st.sampled_from([
    "", "x", "-1", "0", "1", "2", "20", "2.5", "-0.5", "1e-320", "nan",
    "inf", "-inf", "1e308", "1" + "0" * 30, "9" * 400, str(2**63), "on",
    "off", "none", "uci", "sci", "1.0-0.4", "\x00", "\"quoted\"", "a=b"])


@st.composite
def mutated_configs(draw):
    """The bytes of the base config with up to three mutations, perhaps
    not UTF-8."""
    lines = BASE_CONFIG.splitlines()
    for _ in range(draw(st.integers(0, 3), label="mutations")):
        at = draw(st.integers(0, len(lines) - 1), label="line")
        key, _, value = lines[at].partition(" = ")
        # most mutations change one value
        kind = draw(st.sampled_from(["drop", "duplicate", "key", "value",
                                     "value", "value", "variant",
                                     "no equals"]))
        if kind == "drop":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, f"{key} = {draw(CONFIG_TOKENS)}")
        elif kind == "key":
            cut = draw(st.integers(0, len(key)))
            lines[at] = (key[:cut] + draw(st.sampled_from(["", "x", ".", " "]))
                         + key[cut + 1:] + " = " + value)
        elif kind == "value":
            lines[at] = f"{key} = {draw(CONFIG_TOKENS)}"
        elif kind == "no equals":
            lines[at] = lines[at].replace("=", " ")
        else:
            tuples = [t.split(",") for t in
                      "vt2, on, 1.0, none; vt1, off, 1.0-0.4, 5".split(";")]
            fields = tuples[draw(st.integers(0, 1))]
            where = draw(st.integers(0, len(fields)))
            change = draw(st.sampled_from(["drop", "insert", "replace",
                                           "replace"]))
            if change == "drop" and where < len(fields):
                del fields[where]
            elif change == "replace" and where < len(fields):
                fields[where] = draw(CONFIG_TOKENS)
            else:
                fields.insert(where, draw(CONFIG_TOKENS))
            sep = draw(st.sampled_from([";", ",", " ", ";;"]))
            lines = [ln for ln in lines if not ln.startswith("variants")]
            lines.append("variants = " + sep.join(",".join(t)
                                                  for t in tuples))
    data = "".join(line + "\n" for line in lines).encode()
    if draw(st.integers(0, 4), label="not UTF-8") == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])
                                ) + data[at:]
    return data


class TestRunInput:
    @given(mutated_configs())
    @settings(max_examples=300, deadline=None)
    def test_mutated_config_exits_0_or_names_the_fault(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.cfg")
            with open(path, "wb") as fh:
                fh.write(data)
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(tmp)       # a relative output.dir lands in tmp
            try:
                # one CPU: the runs step in this process
                with mock.patch.object(os, "sched_getaffinity",
                                       lambda pid: {0}, create=True), \
                        warnings.catch_warnings(record=True) as caught, \
                        contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    warnings.simplefilter("always")
                    code = main(["run", "--config", path])
            finally:
                os.chdir(cwd)
            written = [d for d, _, names in os.walk(tmp)
                       if "runs.csv" in names]
            try:
                harness.parse_config(path)
                refusal = None
            except ValueError as exc:
                refusal = str(exc)
        stderr = err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        if code == 0:
            assert stderr == "" and len(written) == 1
            assert "% of optimum" in out.getvalue()
        else:
            assert code == 2 and out.getvalue() == "" and not written
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
            assert "Traceback" not in stderr
        # a fault of the file itself is refused naming the file
        if refusal is not None:
            assert refusal.startswith(f"{path}:")
            assert stderr == f"error: {refusal}\n"


class TestReport:
    def test_consolidates_runs(self, capsys, config_file):
        path, out = config_file
        run_cli(capsys, "run", "--config", path)
        code, stdout, _ = run_cli(capsys, "report", "--results-dir", str(out))
        assert code == 0
        rows = list(csv.reader(stdout.splitlines()))
        columns = ["variant", "ratio", "mean_convergence_round",
                   "mean_first_discovery_round", "mean_pujv"]
        assert rows[0] == columns
        with open(out / "aggregate.csv", newline="") as fh:
            want = [[r[c] for c in columns] for r in csv.DictReader(fh)]
        assert rows[1:] == want
        assert [r[0] for r in rows[1:]] == ["VCv2_w1", "VT2_w1-0.4"]

    def test_empty_aggregate(self, capsys, tmp_path):
        (tmp_path / "aggregate.csv").write_text(
            "variant,mean_best_profit,ratio,mean_convergence_round,"
            "mean_first_discovery_round,mean_pujv\n")
        code, _, stderr = run_cli(capsys, "report", "--results-dir",
                                  str(tmp_path))
        assert code == 2 and "no variant rows" in stderr

    def test_missing_column(self, capsys, tmp_path):
        (tmp_path / "aggregate.csv").write_text(
            "variant,mean_best_profit,ratio,mean_convergence_round\n"
            "VT2_w1,10,0.5,3\n")
        code, stdout, stderr = run_cli(capsys, "report", "--results-dir",
                                       str(tmp_path))
        assert code == 2 and stdout == ""
        assert ("no column mean_first_discovery_round, mean_pujv"
                in stderr)

    @pytest.mark.parametrize("row", ["VT2_w1,10,0.5", "VT2_w1,10,0.5,3,4,5,6"])
    def test_row_of_another_length(self, capsys, tmp_path, row):
        (tmp_path / "aggregate.csv").write_text(
            "variant,mean_best_profit,ratio,mean_convergence_round,"
            "mean_first_discovery_round,mean_pujv\n"
            "VCv2_w1,10,0.5,3,4,5\n\n" + row + "\n")
        code, stdout, stderr = run_cli(capsys, "report", "--results-dir",
                                       str(tmp_path))
        assert code == 2 and stdout == ""
        assert "aggregate.csv: line 4 has" in stderr
        assert "the header 6" in stderr

    def test_missing_dir(self, capsys, tmp_path):
        code, _, stderr = run_cli(capsys, "report", "--results-dir",
                                  str(tmp_path / "nope"))
        assert code == 2 and "error:" in stderr

    def test_blank_lines_before_the_header_are_skipped(self, capsys,
                                                       tmp_path):
        (tmp_path / "aggregate.csv").write_text(
            "\r\n\r\n" + "\r\n".join(BASE_AGGREGATE) + "\r\n")
        code, stdout, _ = run_cli(capsys, "report", "--results-dir",
                                  str(tmp_path))
        assert code == 0
        assert stdout.splitlines() == [
            "variant,ratio,mean_convergence_round,mean_first_discovery_round,"
            "mean_pujv", "VCv2_w1,0.987,12.5,3.0,40.5", "VT2_w1-0.4,0.96,15.0,4.5,"]

    def test_a_cell_over_the_csv_field_limit_names_the_file(self, capsys,
                                                            tmp_path):
        (tmp_path / "aggregate.csv").write_text(
            "\r\n".join(BASE_AGGREGATE[:2])
            + "\r\nVT2_w1,10,0.5,3,4," + "9" * (csv.field_size_limit() + 1)
            + "\r\n")
        code, stdout, stderr = run_cli(capsys, "report", "--results-dir",
                                       str(tmp_path))
        assert (code, stdout) == (2, "")
        assert stderr == (f"error: {tmp_path / 'aggregate.csv'}: line 3: "
                          f"field larger than field limit "
                          f"({csv.field_size_limit()})\n")

    def test_an_aggregate_that_is_not_utf8_names_the_file(self, capsys,
                                                          tmp_path):
        (tmp_path / "aggregate.csv").write_bytes(
            "\r\n".join(BASE_AGGREGATE).encode().replace(b"VT2", b"VT\xe9"))
        code, stdout, stderr = run_cli(capsys, "report", "--results-dir",
                                       str(tmp_path))
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: {tmp_path / 'aggregate.csv'}: "
                                 f"'utf-8' codec can't decode byte 0xe9")
        assert len(stderr.splitlines()) == 1


# the aggregate.csv of a two-variant experiment, one line per item
BASE_AGGREGATE = [
    "variant,mean_best_profit,ratio,mean_convergence_round,"
    "mean_first_discovery_round,mean_pujv",
    "VCv2_w1,1234.5,0.987,12.5,3.0,40.5",
    "VT2_w1-0.4,1200.0,0.96,15.0,4.5,"]

# cells that are empty, quoted, hold separators or line ends, or are not
# numbers; the header's names among them
CSV_TOKENS = st.sampled_from([
    "", "x", "1e308", "nan", "\"", "\"\"", "\"a,b\"", "a\"b", "\"a\r\nb\"",
    ",", "\x00", "\r", "\n", "\u00e9", "variant", "ratio", "mean_pujv"])


@st.composite
def mutated_aggregates(draw):
    """The bytes of the base ``aggregate.csv`` with up to three mutations,
    perhaps cut short."""
    rows = [line.split(",") for line in BASE_AGGREGATE]
    for _ in range(draw(st.integers(0, 3), label="mutations")):
        row = rows[draw(st.integers(0, len(rows) - 1), label="row")]
        at = draw(st.integers(0, len(row)), label="cell")
        kind = draw(st.sampled_from(["cell", "cell", "drop cell",
                                     "add cell", "blank line", "oversized",
                                     "drop row"]))
        if kind == "cell" and at < len(row):
            row[at] = draw(CSV_TOKENS)
        elif kind == "drop cell" and at < len(row):
            del row[at]
        elif kind == "oversized" and at < len(row):
            # at or just over the csv module's field limit
            row[at] = "7" * (csv.field_size_limit()
                             + draw(st.integers(0, 1)))
        elif kind == "blank line":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif kind == "drop row" and len(rows) > 1:
            rows.remove(row)
        else:
            row.insert(at, draw(CSV_TOKENS))
    end = draw(st.sampled_from(["\r\n", "\n"]), label="line end")
    data = "".join(",".join(row) + end for row in rows).encode()
    if draw(st.integers(0, 4), label="not UTF-8") == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])
                                ) + data[at:]
    if draw(st.integers(0, 4), label="cut") == 0:
        data = data[:draw(st.integers(0, len(data)))]
    return data


class TestReportInput:
    @given(mutated_aggregates())
    @settings(max_examples=300, deadline=None)
    def test_mutated_aggregate_exits_0_or_names_the_fault(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "aggregate.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(["report", "--results-dir", tmp])
            if code == 0:
                with open(path, newline="") as fh:
                    header, *body = filter(None, csv.reader(fh))
                want = [[dict(zip(header, cells))[c]
                         for c in results.REPORT_COLUMNS] for cells in body]
        stderr = err.getvalue()
        if code == 0:
            assert stderr == ""
            rows = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
            assert rows == [results.REPORT_COLUMNS] + want
            assert want
        else:
            assert code == 2 and out.getvalue() == ""
            assert stderr.startswith(f"error: {path}: ")
            assert stderr.count("\n") == 1 and "Traceback" not in stderr
