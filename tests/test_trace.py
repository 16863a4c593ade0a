"""Bit packing and trace persistence."""

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vcbpso.trace import RunTrace, TraceBuilder, pack_bits, unpack_bits


def build_trace(positions, gbest=None, flips=None):
    """positions: list of (m, d) 0/1 arrays, one per record."""
    positions = [np.asarray(p, dtype=np.uint8) for p in positions]
    m, d = positions[0].shape
    builder = TraceBuilder(d)
    for k, pos in enumerate(positions):
        g = gbest[k] if gbest is not None else 0.0
        f = flips[k] if flips is not None else np.zeros(m, np.int64)
        builder.record(g, f, pos)
    return builder.build()


class TestPacking:
    def test_known_words(self):
        bits = np.zeros(64, dtype=np.uint8)
        bits[0] = bits[3] = 1
        assert pack_bits(bits)[0] == 0b1001

    def test_padding_beyond_word(self):
        bits = np.zeros(70, dtype=np.uint8)
        bits[69] = 1
        words = pack_bits(bits)
        assert words.shape == (2,)
        assert words[1] == 1 << 5

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 100, 128])
    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_matches_padded_concatenation(self, d, shape):
        rng = np.random.Generator(np.random.PCG64(d))
        bits = rng.integers(0, 2, size=shape + (d,)).astype(np.uint8)
        packed = np.packbits(bits, axis=-1, bitorder="little")
        pad = np.zeros(shape + ((d + 63) // 64 * 8 - packed.shape[-1],),
                       np.uint8)
        want = np.concatenate([packed, pad], axis=-1).view("<u8")
        words = pack_bits(bits)
        assert words.dtype == np.dtype("<u8")
        assert np.array_equal(words, want)
        assert np.array_equal(unpack_bits(words, d), bits)

    @given(st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_round_trip(self, d, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        bits = rng.integers(0, 2, size=d).astype(np.uint8)
        assert np.array_equal(unpack_bits(pack_bits(bits), d), bits)

    def test_round_trip_matrix(self):
        rng = np.random.Generator(np.random.PCG64(0))
        bits = rng.integers(0, 2, size=(5, 130)).astype(np.uint8)
        packed = pack_bits(bits)
        assert packed.shape == (5, 3)
        assert np.array_equal(unpack_bits(packed, 130), bits)


class TestRunTrace:
    def test_record_zero_is_initial(self):
        trace = build_trace([[[0, 0]], [[1, 0]]], gbest=[1.0, 2.0])
        assert trace.n_records == 2
        assert trace.iterations == 1
        assert trace.swarm_size == 1
        assert np.array_equal(trace.position_bits(0), [[0, 0]])
        assert np.array_equal(trace.position_bits(1, 0), [1, 0])

    def test_mismatched_records_rejected(self):
        with pytest.raises(ValueError):
            RunTrace(2, np.zeros(2), np.zeros((3, 1), np.int64),
                     np.zeros((2, 1, 1), np.uint64))

    @pytest.mark.parametrize("name", ["t.txt", "t.txt.gz"])
    def test_save_load_round_trip(self, tmp_path, name):
        rng = np.random.Generator(np.random.PCG64(5))
        positions = rng.integers(0, 2, size=(4, 3, 100)).astype(np.uint8)
        gbest = [1.0, 2.5, 2.5, 7.0]
        flips = rng.integers(0, 5, size=(4, 3))
        trace = build_trace(list(positions), gbest=gbest, flips=list(flips))
        path = tmp_path / name
        trace.save(path)
        back = RunTrace.load(path)
        assert back.dimensions == 100
        assert np.array_equal(back.gbest_fitness, trace.gbest_fitness)
        assert np.array_equal(back.flip_counts, trace.flip_counts)
        assert np.array_equal(back.positions, trace.positions)

    def test_gbest_repr_is_exact(self, tmp_path):
        gbest = [0.1 + 0.2, 1.0 / 3.0]
        trace = build_trace([[[0]], [[1]]], gbest=gbest)
        path = tmp_path / "t.txt"
        trace.save(path)
        assert np.array_equal(RunTrace.load(path).gbest_fitness, gbest)

    def test_gz_bytes_do_not_depend_on_the_clock(self, tmp_path,
                                                monkeypatch):
        trace = build_trace([[[0, 1]], [[1, 1]]], gbest=[1.0, 2.0])
        saved = []
        for now in (1.0e9, 2.0e9):
            monkeypatch.setattr(time, "time", lambda: now)
            trace.save(tmp_path / "t.txt.gz")
            saved.append((tmp_path / "t.txt.gz").read_bytes())
        assert saved[0] == saved[1]

    def test_load_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("not a trace\n")
        with pytest.raises(ValueError):
            RunTrace.load(path)

    def test_load_rejects_truncated(self, tmp_path):
        trace = build_trace([[[0]], [[1]]])
        path = tmp_path / "t.txt"
        trace.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ValueError):
            RunTrace.load(path)
