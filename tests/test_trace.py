"""Bit packing and trace persistence."""

import sys
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import pool_trace, position_bits, traced, unpack_bits
from vcbpso.trace import (
    SAVE_CHUNK,
    RunTrace,
    TraceBuilder,
    load_memory,
    pack_bits,
    read_header,
    save_memory,
)


# 51 bytes whose header claims 10**6 particles: 16 MB of flip counts and
# 16 MB of positions that the two short record lines cannot hold
OVERSIZED_HEADER = ("vcbpso-trace 1\n1000000 100 2\n"
                    "0 1.0 0 00\n1 1.0 0 00\n")

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
    "flip count off by one": [(1, 2, lambda f: _add_one(f))],
    "record 0 flips": [(0, 2, lambda f: _add_one(f))],
}


def _add_one(counts: str) -> str:
    """Flip counts ``a,b,...`` with 1 added to the first."""
    first, _, rest = counts.partition(",")
    return f"{int(first) + 1},{rest}"


def build_trace(positions, gbest=None, flips=None):
    """positions: list of (m, d) 0/1 arrays, one per record. Without
    ``flips`` each record's flip counts are the bits it differs in from
    the record before (zero for record 0), as the engine records them."""
    positions = [np.asarray(p, dtype=np.uint8) for p in positions]
    m, d = positions[0].shape
    builder = TraceBuilder(d, 1, m, len(positions))
    for k, pos in enumerate(positions):
        g = gbest[k] if gbest is not None else 0.0
        f = (flips[k] if flips is not None
             else (pos != positions[max(k - 1, 0)]).sum(axis=1))
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
        assert np.array_equal(position_bits(trace, 0), [[0, 0]])
        assert np.array_equal(position_bits(trace, 1, 0), [1, 0])

    @pytest.mark.parametrize("name", ["t.txt", "t.txt.gz"])
    def test_save_without_positions_writes_nothing(self, tmp_path, name):
        builder = TraceBuilder(4, 1, 2, 1, keep_positions=False)
        builder.record(np.zeros(1), np.zeros(2, np.int64),
                       np.zeros((2, 4), np.uint8))
        trace = builder.build()[0]
        with pytest.raises(ValueError, match="no positions"):
            trace.save(tmp_path / name)
        assert not (tmp_path / name).exists()

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
        trace = build_trace(list(positions), gbest=gbest)
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

    def test_save_memory_does_not_grow_with_the_records(self, tmp_path):
        # d=100, m=20 at T=1000 and T=4000
        rng = np.random.Generator(np.random.PCG64(3))
        peaks = []
        for records in (1001, 4001):
            trace = RunTrace(
                100, rng.random(records) * 1e4,
                rng.integers(0, 101, size=(records, 20)),
                rng.integers(0, 2**64, size=(records, 20, 2),
                             dtype=np.uint64))
            peaks.append(traced(trace.save, tmp_path / "t.txt.gz")[2])
            assert peaks[-1] <= save_memory(records, 20, 100)
        assert peaks[1] - peaks[0] <= 64 * 1024, peaks

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

    def test_load_refuses_a_header_the_text_cannot_hold(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(OVERSIZED_HEADER)
        refusal, _, peak = traced(pytest.raises, ValueError, RunTrace.load,
                                  path)
        refusal.match(r"t\.txt: 2 records of m=1000000, d=100 need")
        assert peak < 2**20

    @pytest.mark.parametrize("d, bit", [(10, 10), (10, 63), (100, 100),
                                        (100, 127)])
    def test_load_rejects_a_set_padding_bit(self, tmp_path, d, bit):
        """A bit past d would count in every Hamming distance of its
        particle, so a trace that carries one is refused."""
        trace = build_trace([np.zeros((2, d), np.uint8)] * 3)
        positions = trace.positions.copy()
        positions[2, 1, -1] |= np.uint64(1 << (bit % 64))
        path = tmp_path / "t.txt"
        RunTrace(d, trace.gbest_fitness, trace.flip_counts,
                 positions).save(path)
        with pytest.raises(ValueError,
                           match=rf"t\.txt: record 2: bits set past d={d}"):
            RunTrace.load(path)

    def test_load_keeps_the_last_bit_of_a_full_word(self, tmp_path):
        bits = np.zeros((2, 64), np.uint8)
        bits[1, 63] = 1
        trace = build_trace([np.zeros_like(bits), bits])
        path = tmp_path / "t.txt"
        trace.save(path)
        np.testing.assert_array_equal(RunTrace.load(path).positions,
                                      trace.positions)

    @pytest.mark.parametrize("bad", BAD_RECORDS)
    def test_load_names_a_bad_record(self, tmp_path, bad):
        path = tmp_path / "t.txt"
        save_bad_trace(path, BAD_RECORDS[bad])
        first = BAD_RECORDS[bad][0][0]
        with pytest.raises(ValueError, match=rf"t\.txt: record {first}: "):
            RunTrace.load(path)

    @pytest.mark.parametrize("bad", ["flip count off by one",
                                     "record 0 flips"])
    def test_load_refuses_flip_counts_the_positions_do_not_give(
            self, tmp_path, bad):
        path = tmp_path / "t.txt"
        save_bad_trace(path, BAD_RECORDS[bad])
        first = BAD_RECORDS[bad][0][0]
        with pytest.raises(ValueError,
                           match=rf"t\.txt: record {first}: flip counts "
                                 rf"differ from the positions$"):
            RunTrace.load(path)

    def test_load_compares_records_across_a_chunk_edge(self, tmp_path):
        # record SAVE_CHUNK, the first of the second chunk, differs from
        # the record before in a bit that its counts leave out; a later
        # record's counts are wrong too
        positions = np.zeros((SAVE_CHUNK + 20, 2, 100), np.uint8)
        positions[SAVE_CHUNK:, 1, 3] = 1
        trace = build_trace(list(positions))
        flips = trace.flip_counts.copy()
        assert flips[SAVE_CHUNK].tolist() == [0, 1]
        flips[SAVE_CHUNK, 1] = 0
        flips[SAVE_CHUNK + 10, 0] = 2
        path = tmp_path / "t.txt.gz"
        RunTrace(100, trace.gbest_fitness, flips, trace.positions).save(path)
        with pytest.raises(ValueError,
                           match=rf"record {SAVE_CHUNK}: flip counts"):
            RunTrace.load(path)

    @pytest.mark.parametrize("d", [100, 500])
    def test_load_memory_does_not_grow_with_the_records(self, tmp_path, d):
        # m=20 at T=1000 and T=4000: beside the arrays it returns, which
        # are allocated to their size, load holds one buffer of text
        workspace = []
        for records in (1001, 4001):
            path = tmp_path / "t.txt.gz"
            pool_trace(records, 20, d).save(path)
            trace, held, peak = traced(RunTrace.load, path)
            arrays = TraceBuilder.nbytes(d, 1, 20, records)
            assert trace.flip_counts.nbytes + trace.positions.nbytes \
                + trace.gbest_fitness.nbytes == arrays
            assert arrays <= held <= arrays + 4096
            workspace.append(peak - held)
            assert workspace[-1] <= load_memory(20, d)
        assert abs(workspace[1] - workspace[0]) <= 64 * 1024, workspace

    def test_load_under_a_tracer_that_reads_locals(self, tmp_path):
        # a debugger's view of the frame holds extra references to the
        # arrays that load grows in place
        def tracer(frame, event, arg):
            frame.f_locals
            return tracer

        rng = np.random.Generator(np.random.PCG64(6))
        trace = build_trace(list(rng.integers(0, 2, size=(9, 2, 70))))
        trace.save(tmp_path / "t.txt")
        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            back = RunTrace.load(tmp_path / "t.txt")
        finally:
            sys.settrace(previous)
        np.testing.assert_array_equal(back.positions, trace.positions)

    def test_load_reads_crlf_line_ends(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(4))
        trace = build_trace(list(rng.integers(0, 2, size=(3, 2, 70))))
        path = tmp_path / "t.txt"
        trace.save(path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        back = RunTrace.load(path)
        np.testing.assert_array_equal(back.positions, trace.positions)

    def test_load_cuts_lines_as_splitlines(self, tmp_path):
        # a form feed ends a line for str.splitlines, so the record is
        # two lines and the count is wrong, as when the whole text was
        # read and split at once
        path = tmp_path / "t.txt"
        save_bad_trace(path, [(1, 1, lambda f: f + "\f")])
        with pytest.raises(ValueError, match=r"t\.txt: expected 3 record"):
            RunTrace.load(path)

    def test_load_names_a_truncated_gz(self, tmp_path):
        path = tmp_path / "t.txt.gz"
        rng = np.random.Generator(np.random.PCG64(8))
        build_trace(list(rng.integers(0, 2, size=(40, 2, 100)))).save(path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ValueError, match=r"t\.txt\.gz: "):
            RunTrace.load(path)

    def test_read_header(self, tmp_path):
        path = tmp_path / "t.txt.gz"
        build_trace([np.zeros((3, 70), np.uint8)] * 2).save(path)
        assert read_header(path) == (3, 70, 2)
