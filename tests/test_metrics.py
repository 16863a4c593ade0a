"""Exploration metrics: raw and effective Hamming movement, useless jump
volume, convergence statistics."""

import ast
import csv
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    dist_eff_iteration,
    dist_iteration,
    hamming,
    pool_trace,
    position_bits,
    pujv,
    traced,
    unpack_bits,
)
from test_results import MODULES, SRC_DIR
from test_trace import build_trace
from vcbpso import metrics, results
from vcbpso.metrics import (
    convergence_round,
    dist_eff_matrix,
    dist_matrix,
    first_discovery_round,
)
from vcbpso.trace import RECORD_CHUNK, RunTrace


def bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


def single_particle_trace(*rows, gbest=None):
    return build_trace([[bits(r)] for r in rows], gbest=gbest)


def random_trace(rng, records, m, d):
    pos = rng.integers(0, 2, size=(records, m, d)).astype(np.uint8)
    return build_trace(list(pos))


def revisiting_trace(rng, records, m, d):
    """Random positions where about a third of the moves return to an
    earlier position. The first move of particle 0 is a revisit, and the
    first move of particle 1 flips every bit."""
    pos = rng.integers(0, 2, size=(records, m, d)).astype(np.uint8)
    for k in range(1, records):
        for i in range(m):
            if (k, i) == (1, 1):
                pos[k, i] = 1 - pos[0, i]
            elif (k, i) == (1, 0) or rng.random() < 0.3:
                pos[k, i] = pos[rng.integers(k), i]
    return build_trace(list(pos))


def pooled_trace(rng, records, m, d, distinct):
    """Each particle visits exactly min(distinct, 2**d) positions. Their
    first visits fall at random records, every other record revisits a
    position seen before it, and the last record returns to record 0's."""
    k = min(distinct, 2**d)
    low = min(d, 20)
    pos = np.empty((records, m, d), dtype=np.uint8)
    for i in range(m):
        # distinct codes in the low bits make the pool rows distinct
        codes = rng.choice(2**low, size=k, replace=False)
        pool = rng.integers(0, 2, size=(k, d)).astype(np.uint8)
        pool[:, :low] = codes[:, None] >> np.arange(low) & 1
        firsts = set(rng.choice(np.arange(1, records - 1), size=k - 1,
                                replace=False).tolist())
        seen = 1
        pos[0, i] = pool[0]
        for r in range(1, records - 1):
            if r in firsts:
                pos[r, i] = pool[seen]
                seen += 1
            else:
                pos[r, i] = pool[rng.integers(seen)]
        pos[-1, i] = pool[0]
    return build_trace(list(pos))


def dist_eff_bruteforce(trace):
    """(iterations, swarm_size) effective gains by a scan over the unpacked
    history of every record; independent oracle."""
    bits = np.array([position_bits(trace, k)
                     for k in range(trace.n_records)], dtype=np.int64)
    out = np.empty((trace.iterations, trace.swarm_size), dtype=np.int64)
    for k in range(1, trace.n_records):
        out[k - 1] = np.abs(bits[:k] - bits[k]).sum(axis=-1).min(axis=0)
    return out


class TestHamming:
    def test_examples(self):
        assert hamming(bits("0000"), bits("0000")) == 0
        assert hamming(bits("1100"), bits("0011")) == 4
        assert hamming(bits("1100"), bits("0000")) == 2

    def test_mismatch(self):
        with pytest.raises(ValueError):
            hamming(bits("110"), bits("1100"))

    def test_wide_vectors(self):
        rng = np.random.Generator(np.random.PCG64(1))
        a = rng.integers(0, 2, 500).astype(np.uint8)
        b = rng.integers(0, 2, 500).astype(np.uint8)
        assert hamming(a, b) == int(np.abs(a.astype(int) - b.astype(int)).sum())


class TestDist:
    def test_unchanged_is_zero(self):
        t = single_particle_trace("0000", "0000")
        assert dist_iteration(t, 0, 1) == 0

    def test_single_flip(self):
        t = single_particle_trace("0000", "0001")
        assert dist_iteration(t, 0, 1) == 1

    def test_two_flips(self):
        t = single_particle_trace("0000", "1100")
        assert dist_iteration(t, 0, 1) == 2

    @pytest.mark.parametrize("iterations", [0, 1, 511, 512, 513, 1025])
    def test_tile_edges_match_whole_trace_xor(self, iterations):
        rng = np.random.Generator(np.random.PCG64(iterations))
        t = random_trace(rng, iterations + 1, 8, 512)
        x = t.positions[1:] ^ t.positions[:-1]
        d = dist_matrix(t)
        assert d.dtype == np.int64
        assert np.array_equal(d, np.bitwise_count(x).sum(axis=-1))

    @pytest.mark.parametrize("records", [2, 26, RECORD_CHUNK + 1, 1001])
    @pytest.mark.parametrize("d", [70, 500])
    def test_allocation_fits_the_metric_phase(self, records, d):
        # dist is one of the phase's two matrices, and deriving it a chunk
        # of records at a time stays within the phase's workspace
        t = pool_trace(records, 20, d)
        matrix, held, peak = traced(dist_matrix, t)
        phase = metrics.metric_memory(records - 1, 20, d)
        assert 2 * matrix.nbytes == phase["metric matrices"]
        assert matrix.nbytes <= held <= matrix.nbytes + 1024
        assert peak - held <= phase["metric workspace"], (peak - held, phase)

    def test_matches_the_scalar_reference_across_chunk_edges(self, tmp_path):
        # a built trace and the same trace loaded back: record 0 has no
        # row, row k - 1 holds the bits record k differs in from record
        # k - 1, whichever chunk of records each falls in
        trace = pool_trace(3 * RECORD_CHUNK + 5, 7, 130, pool=20)
        trace.save(tmp_path / "t.txt.gz")
        back = RunTrace.load(tmp_path / "t.txt.gz")
        bits = unpack_bits(trace.positions, 130)
        for t in (trace, back):
            d = dist_matrix(t)
            assert d.shape == (3 * RECORD_CHUNK + 4, 7)
            np.testing.assert_array_equal(
                d, (bits[1:] != bits[:-1]).sum(axis=-1))
            for k in (1, RECORD_CHUNK, RECORD_CHUNK + 1, t.iterations):
                for i in range(7):
                    assert d[k - 1, i] == dist_iteration(t, i, k)
            assert d.all(axis=1).any()

    def test_out_of_range(self):
        t = single_particle_trace("0000", "1100")
        for k in (0, 2, -1):
            with pytest.raises(ValueError):
                dist_iteration(t, 0, k)
            with pytest.raises(ValueError):
                dist_eff_iteration(t, 0, k)


def popcount_lines(name):
    """The lines of a package module that name ``bitwise_count``."""
    with open(os.path.join(SRC_DIR, name)) as fh:
        tree = ast.parse(fh.read())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "bitwise_count"
            or isinstance(node, ast.Name) and node.id == "bitwise_count"
            or isinstance(node, ast.alias) and node.name == "bitwise_count"]


def test_the_scan_sees_the_metrics_popcounts():
    assert len(popcount_lines("metrics.py")) == 3


@pytest.mark.parametrize("name", [m for m in MODULES if m != "metrics.py"])
def test_no_other_module_counts_bits(name):
    # dist and dist_eff are derived in one module; a trace holds positions
    assert popcount_lines(name) == []


class TestDistEff:
    def test_single_history(self):
        t = single_particle_trace("0000", "1100")
        assert dist_eff_iteration(t, 0, 1) == 2

    def test_min_over_history(self):
        t = single_particle_trace("0000", "1100", "0011")
        assert dist_eff_iteration(t, 0, 2) == 2

    def test_revisit_is_zero(self):
        t = single_particle_trace("0000", "1100", "0000")
        assert dist_eff_iteration(t, 0, 2) == 0

    def test_initial_position_counts_as_history(self):
        t = single_particle_trace("1111", "0000", "1110")
        assert dist_eff_iteration(t, 0, 2) == 1

    def test_bounded_by_dist(self):
        rng = np.random.Generator(np.random.PCG64(3))
        t = random_trace(rng, 50, 4, 40)
        for k in range(1, 50):
            for i in range(4):
                assert dist_eff_iteration(t, i, k) <= dist_iteration(t, i, k)

    def test_matrices_match_scalars(self):
        rng = np.random.Generator(np.random.PCG64(4))
        t = random_trace(rng, 30, 3, 130)
        d = dist_matrix(t)
        e = dist_eff_matrix(t)
        assert d.shape == e.shape == (29, 3)
        for k in range(1, 30):
            for i in range(3):
                assert d[k - 1, i] == dist_iteration(t, i, k)
                assert e[k - 1, i] == dist_eff_iteration(t, i, k)

    def test_matches_bruteforce_oracle(self):
        # record counts around the kernel's block edges, bit widths around
        # the 64-bit word edges, and one that needs a 16-bit accumulator
        block = metrics._BLOCK
        for records in (1, 2, block, block + 1, 2 * block + 3):
            for d in (1, 63, 64, 65, 130, 300):
                rng = np.random.Generator(np.random.PCG64(5 + records + d))
                t = revisiting_trace(rng, records, 2, d)
                e = dist_eff_matrix(t)
                assert e.dtype == np.int64
                assert np.array_equal(e, dist_eff_bruteforce(t)), (records, d)
                if records > 1:
                    assert e[0].tolist() == [0, d]

    @pytest.mark.parametrize("distinct", [1, metrics._BLOCK,
                                          metrics._BLOCK + 1,
                                          2 * metrics._BLOCK + 1])
    @pytest.mark.parametrize("d", [1, 64, 65, 130])
    def test_revisits_match_bruteforce_oracle(self, distinct, d):
        # the distinct positions are spread over 600 records, so most
        # revisits land in later record blocks than their first visit
        rng = np.random.Generator(np.random.PCG64(distinct + d))
        t = pooled_trace(rng, 600, 2, d, distinct)
        for i in range(2):
            rows = np.unique(t.positions[:, i], axis=0)
            assert len(rows) == min(distinct, 2**d)
        e = dist_eff_matrix(t)
        assert e.dtype == np.int64
        assert np.array_equal(e, dist_eff_bruteforce(t))
        assert e[-1].tolist() == [0, 0]

    def test_positions_that_differ_in_both_words(self):
        # a and b differ in both of their words, which a key that mixes
        # the words into one 64-bit value could send to one group
        a, b, c = (unpack_bits(np.array(pair, dtype=np.uint64), 128)
                   for pair in ((3, 5), (4, 0xA27B8BC9228D0FA7), (9, 6)))
        t = build_trace([[p] for p in (a, b, a, c, b, a)])
        e = dist_eff_matrix(t)
        assert np.array_equal(e, dist_eff_bruteforce(t))
        assert e[0, 0] > 0 and e[3, 0] == 0

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_small_pool_matches_bruteforce_oracle(self, data):
        d = data.draw(st.sampled_from([1, 2, 63, 64, 65, 130]), label="d")
        m = data.draw(st.integers(1, 3), label="m")
        records = data.draw(st.integers(1, 2 * metrics._BLOCK + 3),
                            label="records")
        size = data.draw(st.integers(1, 6), label="pool size")
        picks = data.draw(st.lists(st.integers(0, size - 1),
                                   min_size=records * m,
                                   max_size=records * m), label="picks")
        rng = np.random.Generator(np.random.PCG64(size + d))
        pool = rng.integers(0, 2, size=(size, d)).astype(np.uint8)
        t = build_trace(list(pool[np.reshape(picks, (records, m))]))
        e = dist_eff_matrix(t)
        assert e.shape == (records - 1, m) and e.dtype == np.int64
        assert np.array_equal(e, dist_eff_bruteforce(t))

    @pytest.mark.parametrize("cols", [255, 256, 257, 511, 513])
    @pytest.mark.parametrize("d", [64, 100, 500])
    def test_tile_edges_match_bruteforce_oracle(self, cols, d):
        # a particle with cols + 1 distinct positions compares cols later
        # positions, just below, at and above the edges of _TILE columns,
        # with 1, 2 and 8 words
        assert metrics._TILE == 256
        rng = np.random.Generator(np.random.PCG64(cols + d))
        t = pooled_trace(rng, cols + 40, 1, d, cols + 1)
        assert len(np.unique(t.positions[:, 0], axis=0)) == cols + 1
        assert np.array_equal(dist_eff_matrix(t), dist_eff_bruteforce(t))

    @pytest.mark.parametrize("d", [100, 500])
    def test_temporaries_do_not_grow_with_the_records(self, d):
        # m=20 and 300 distinct positions per particle, at T=1000 and
        # T=4000: the tiles are fixed, and finding first visits, 28 bytes
        # per record (112 kB at T=4000), peaks below the tile phase
        temps = []
        for records in (1001, 4001):
            t = pool_trace(records, 20, d)
            matrix, held, peak = traced(dist_eff_matrix, t)
            assert held >= matrix.nbytes
            temps.append(peak - held)
            assert temps[-1] <= metrics.dist_eff_workspace(records - 1, 20, d)
        assert abs(temps[1] - temps[0]) <= 64 * 1024, temps

    def test_memory_is_bounded_by_the_block(self):
        rng = np.random.Generator(np.random.PCG64(7))
        t = random_trace(rng, 2001, 1, 100)
        _, _, peak = traced(dist_eff_matrix, t)
        assert peak < 8 * 2**20


class TestPujv:
    def test_nearest_is_previous_gives_zero(self):
        # each step flips one fresh bit, so the previous position is
        # always the nearest history point
        t = single_particle_trace("0000", "1000", "1100", "1110")
        assert pujv(t, 1, 3) == 0

    def test_oscillation(self):
        t = single_particle_trace("0000", "1100", "0000", "1100", "0000")
        assert pujv(t, 1, 4) == 3 * 2

    def test_two_step_example(self):
        t = single_particle_trace("0000", "1100", "0011")
        assert pujv(t, 1, 2) == (2 - 2) + (4 - 2)

    def test_nonnegative_and_additive(self):
        rng = np.random.Generator(np.random.PCG64(6))
        t = random_trace(rng, 60, 3, 50)
        total = pujv(t, 1, 59)
        assert total >= 0
        for q in (1, 17, 30, 58):
            assert pujv(t, 1, q) + pujv(t, q + 1, 59) == total

    def test_bad_range(self):
        t = single_particle_trace("00", "01")
        for m, n in ((0, 1), (1, 2), (2, 1)):
            with pytest.raises(ValueError):
                pujv(t, m, n)


class TestConvergenceStats:
    def _trace_with_gbest(self, values):
        rows = [[bits("0")]] * len(values)
        return build_trace(rows, gbest=list(values))

    def test_constant_gbest(self):
        t = self._trace_with_gbest([5.0, 5.0, 5.0])
        assert convergence_round(t) == 0
        assert first_discovery_round(t) == 0

    def test_single_improvement(self):
        g = [1.0] * 18 + [2.0, 2.0, 2.0]
        t = self._trace_with_gbest(g)
        assert convergence_round(t) == 18
        assert first_discovery_round(t) == 18

    def test_multiple_improvements(self):
        g = [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        t = self._trace_with_gbest(g)
        assert convergence_round(t) == 5
        assert first_discovery_round(t) == 5

    def test_first_discovery_before_convergence_is_impossible(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(20):
            g = np.maximum.accumulate(rng.random(30))
            t = self._trace_with_gbest(list(g))
            assert first_discovery_round(t) <= convergence_round(t) \
                or convergence_round(t) == 0


class TestCsvWriters:
    def test_particle_csv_schema(self, tmp_path):
        t = single_particle_trace("0000", "1100", "0011")
        path = tmp_path / "particle.csv"
        results.write_particle_metrics_csv(dist_matrix(t), dist_eff_matrix(t),
                                           path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "particle", "dist", "dist_eff"]
        assert rows[1] == ["1", "0", "2", "2"]
        assert rows[2] == ["2", "0", "4", "2"]

    @pytest.mark.parametrize("iterations,m", [(0, 3), (1, 1), (7, 5),
                                              (205, 20)])
    def test_particle_csv_bytes_are_csv_writer_bytes(self, tmp_path,
                                                     iterations, m):
        # 205 x 20 rows span two of the writer's chunks
        rng = np.random.Generator(np.random.PCG64(iterations))
        d = rng.integers(0, 10**6, size=(iterations, m))
        e = rng.integers(0, 10**6, size=(iterations, m))
        path = tmp_path / "particle.csv"
        results.write_particle_metrics_csv(d, e, path)
        want = tmp_path / "want.csv"
        results.write_csv(want, ["iteration", "particle", "dist", "dist_eff"],
                          ([k + 1, i, int(d[k, i]), int(e[k, i])]
                           for k in range(iterations) for i in range(m)))
        assert path.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("dimensions", [100, 500])
    def test_particle_csv_memory_does_not_grow_with_the_rows(
            self, tmp_path, dimensions):
        # m=5, so that tracing the rows' int objects stays quick
        rng = np.random.Generator(np.random.PCG64(dimensions))
        peaks = []
        for iterations in (1000, 4000):
            d, e = rng.integers(0, dimensions + 1, size=(2, iterations, 5))
            peaks.append(traced(results.write_particle_metrics_csv, d, e,
                                tmp_path / "p.csv")[2])
            assert peaks[-1] <= results.particle_csv_memory(iterations, 5,
                                                            dimensions)
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks

    def test_aggregate_csv_bytes_are_write_csv_bytes(self, tmp_path):
        # three of the writer's chunks, the last of one row
        iterations = 2 * results._CSV_CHUNK_ROWS + 1
        rng = np.random.Generator(np.random.PCG64(5))
        curves = (rng.random(iterations) * 100, rng.random(iterations) * 100,
                  np.cumsum(rng.integers(0, 10**6, size=iterations)))
        path = tmp_path / "agg.csv"
        results.write_aggregate_metrics_csv(*curves, path)
        want = tmp_path / "want.csv"
        results.write_csv(want, results.METRICS_HEADER,
                          zip(range(1, iterations + 1),
                              *(curve.tolist() for curve in curves)))
        assert path.read_bytes() == want.read_bytes()

    def test_aggregate_csv_memory_does_not_grow_with_the_rows(self,
                                                              tmp_path):
        rng = np.random.Generator(np.random.PCG64(6))
        peaks = []
        for iterations in (results._CSV_CHUNK_ROWS,
                           3 * results._CSV_CHUNK_ROWS):
            curves = (rng.random(iterations), rng.random(iterations),
                      np.cumsum(rng.integers(0, 10**6, size=iterations)))
            peaks.append(traced(results.write_aggregate_metrics_csv,
                                *curves, tmp_path / "agg.csv")[2])
            assert peaks[-1] <= results.aggregate_csv_memory(iterations)
        assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks

    def test_aggregate_csv_schema(self, tmp_path):
        t = single_particle_trace("0000", "1100", "0011")
        path = tmp_path / "agg.csv"
        d, e = dist_matrix(t), dist_eff_matrix(t)
        results.write_aggregate_metrics_csv(*metrics.aggregate_curves(d, e),
                                            path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "mean_dist", "mean_dist_eff",
                           "cum_pujv"]
        assert rows[1] == ["1", "2.0", "2.0", "0"]
        assert rows[2] == ["2", "4.0", "2.0", "2"]
