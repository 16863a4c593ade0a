"""Bit packing and trace persistence."""

import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vcbpso.trace import RunTrace, TraceBuilder, pack_bits, unpack_bits


# (record, field, edit) of the lines to spoil; fields are index, gbest,
# flip counts and position hex. The first edited record is named.
BAD_RECORDS = {
    "short position": [(1, 3, lambda f: f[:-2])],
    "long position": [(1, 3, lambda f: f + "00")],
    # the total hex length is unchanged, so only a per-line check sees it
    "short and long positions": [(1, 3, lambda f: f[:-2]),
                                 (2, 3, lambda f: f + "00")],
    "m-1 flip counts": [(1, 2, lambda f: f.rsplit(",", 1)[0])],
    "wrong index": [(1, 0, lambda f: "2")],
    "missing field": [(1, 1, lambda f: "")],
    "not hexadecimal": [(1, 3, lambda f: "zz" + f[2:])],
}


def build_trace(positions, gbest=None, flips=None):
    """positions: list of (m, d) 0/1 arrays, one per record."""
    positions = [np.asarray(p, dtype=np.uint8) for p in positions]
    m, d = positions[0].shape
    builder = TraceBuilder(d, 1, m, len(positions))
    for k, pos in enumerate(positions):
        g = gbest[k] if gbest is not None else 0.0
        f = flips[k] if flips is not None else np.zeros(m, np.int64)
        builder.record(np.array([g]), np.asarray(f), pos)
    return builder.build()[0]


def save_bad_trace(path, edits):
    """Save a 3-record, 2-particle, d=100 trace, then apply ``edits``."""
    rng = np.random.Generator(np.random.PCG64(9))
    build_trace(list(rng.integers(0, 2, size=(3, 2, 100)))).save(path)
    lines = path.read_text().splitlines()
    for k, field, edit in edits:
        fields = lines[k + 2].split()
        fields[field] = edit(fields[field])
        lines[k + 2] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")


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

    def test_builder_refuses_missing_records(self):
        builder = TraceBuilder(4, 2, 3, 3)
        for _ in range(2):
            builder.record(np.zeros(2), np.zeros(6, np.int64),
                           np.zeros((6, 4), np.uint8))
        with pytest.raises(ValueError, match="2 of 3 records"):
            builder.build()

    def test_builder_splits_a_block_by_run(self):
        rng = np.random.Generator(np.random.PCG64(3))
        bits = rng.integers(0, 2, size=(4, 6, 70)).astype(np.uint8)
        flips = rng.integers(0, 70, size=(4, 6))
        builder = TraceBuilder(70, 2, 3, 4)
        for k in range(4):
            builder.record(np.array([k, -k]), flips[k], bits[k])
        first, second = builder.build()
        assert np.array_equal(first.gbest_fitness, [0, 1, 2, 3])
        assert np.array_equal(second.gbest_fitness, [0, -1, -2, -3])
        assert np.array_equal(second.flip_counts, flips[:, 3:])
        assert np.array_equal(first.positions, pack_bits(bits[:, :3]))
        assert np.array_equal(second.positions, pack_bits(bits[:, 3:]))

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

    @pytest.mark.parametrize("header", [None, "2 100", "2 100 3 4",
                                        "2 x 3", "0 100 3", "2 100 -1"])
    def test_load_rejects_a_bad_header(self, tmp_path, header):
        path = tmp_path / "t.txt"
        path.write_text("vcbpso-trace 1\n"
                        + ("" if header is None else header + "\n"))
        with pytest.raises(ValueError, match=r"t\.txt: the second line"):
            RunTrace.load(path)

    @pytest.mark.parametrize("bad", BAD_RECORDS)
    def test_load_names_a_bad_record(self, tmp_path, bad):
        path = tmp_path / "t.txt"
        save_bad_trace(path, BAD_RECORDS[bad])
        with pytest.raises(ValueError, match=r"t\.txt: record 1: "):
            RunTrace.load(path)
