"""Per-iteration run records with bit-packed positions.

Record 0 is the initial state (pre-step); record k holds the swarm after
iteration k. Positions are packed little-endian into 64-bit words so the
metric computations can run on whole words with population counts.

On disk a trace is line-oriented text (opened by :func:`open_text`, as
instances are): a two-line header, then one record per line with the
iteration index, the gbest fitness, comma-separated per-particle flip
counts and the hex dump of the packed position words.
"""

from __future__ import annotations

import gzip
import io
import zlib
from dataclasses import dataclass
from itertools import islice

import numpy as np

_MAGIC = "vcbpso-trace 1"

# zlib's default level; level 9 (gzip.open's default) makes d=100 traces
# about 4 % smaller at about 5x the compression time
GZIP_LEVEL = 6

# records that RunTrace.save turns into Python objects at once, and that
# RunTrace.load checks for padding bits and flip counts at once
SAVE_CHUNK = 64


def open_text(path, mode: str = "r"):
    """Open ``path`` as text to read ("r") or write ("w"). A ``.gz`` path
    is gzip text at ``GZIP_LEVEL`` with mtime 0 (``gzip.open`` stamps the
    clock), so equal text under one file name gives equal bytes (the
    header holds the name); other paths are plain text."""
    if not str(path).endswith(".gz"):
        return open(path, mode)
    return io.TextIOWrapper(gzip.GzipFile(path, mode + "b",
                                          compresslevel=GZIP_LEVEL, mtime=0))


def pack_bits(bits) -> np.ndarray:
    """Pack 0/1 values along the last axis into little-endian uint64 words."""
    b = np.ascontiguousarray(bits, dtype=np.uint8)
    d = b.shape[-1]
    out = np.zeros(b.shape[:-1] + ((d + 63) // 64 * 8,), np.uint8)
    out[..., :(d + 7) // 8] = np.packbits(b, axis=-1, bitorder="little")
    return out.view("<u8")


@dataclass
class RunTrace:
    """Immutable result of one swarm run."""

    dimensions: int
    gbest_fitness: np.ndarray   # (records,) float64
    # (records, swarm_size) int64: the bits each particle flipped since the
    # record before, none in record 0 (``RunTrace.load`` checks this)
    flip_counts: np.ndarray
    # (records, swarm_size, words) uint64, packed; None when the run kept
    # no positions (``engine.run_block`` with ``keep_positions`` false)
    positions: np.ndarray | None

    def __post_init__(self):
        lengths = {len(self.gbest_fitness), len(self.flip_counts)}
        if self.positions is not None:
            lengths.add(len(self.positions))
        if len(lengths) != 1:
            raise ValueError("record arrays must have equal length")

    @property
    def n_records(self) -> int:
        return len(self.gbest_fitness)

    @property
    def iterations(self) -> int:
        return self.n_records - 1

    @property
    def swarm_size(self) -> int:
        return self.flip_counts.shape[1]

    def save(self, path) -> None:
        if self.positions is None:
            # checked first, so that no partial file is left behind
            raise ValueError(f"{path}: the trace kept no positions to save")
        with open_text(path, "w") as fh:
            fh.write(f"{_MAGIC}\n")
            fh.write(f"{self.swarm_size} {self.dimensions} {self.n_records}\n")
            # a chunk of records at a time, so that the Python lists of
            # gbest values and flip counts do not grow with the trace
            for start in range(0, self.n_records, SAVE_CHUNK):
                stop = start + SAVE_CHUNK
                rows = zip(self.gbest_fitness[start:stop].tolist(),
                           self.flip_counts[start:stop].tolist(),
                           self.positions[start:stop])
                for k, (g, flips, words) in enumerate(rows, start):
                    fh.write(f"{k} {g!r} {','.join(map(str, flips))} "
                             f"{words.tobytes().hex()}\n")

    @classmethod
    def load(cls, path) -> "RunTrace":
        """Read a trace file in one pass that holds one buffer of its text
        at a time. The record arrays grow as records pass their checks,
        doubling up to the header's count, so a header that claims more
        than the text holds allocates at most twice what the text does,
        and a whole file leaves no slack. A faulty record is named only
        once the whole text is read, so that a wrong line count, or a text
        too short for the header, is named first."""
        m, d, records = read_header(path)
        words = (d + 63) // 64
        row_bytes = 8 * m * words
        gbest = np.empty(0)
        flips = np.empty((0, m), dtype=np.int64)
        raw = np.empty(0, dtype=np.uint8)
        view = memoryview(raw)
        fault = None
        count = length = 0
        for k, line in enumerate(islice(read_lines(path), 2, None)):
            count += 1
            length += len(line)
            if fault is not None or k >= records:
                continue
            fields = line.split()
            try:
                if len(fields) != 4:
                    raise ValueError(f"{len(fields)} fields, expected 4")
                idx, g, fl, blob = fields
                if int(idx) != k:
                    raise ValueError(f"index {idx}")
                counts = fl.split(",")
                if len(counts) != m:
                    raise ValueError(f"{len(counts)} flip counts, "
                                     f"expected {m}")
                if len(blob) != 2 * row_bytes:
                    raise ValueError(f"position of {len(blob)} hex digits, "
                                     f"expected {2 * row_bytes}")
                if k == len(gbest):
                    # in place, past nothing but the released view; a
                    # reference count check would fail under a tracer
                    size = min(records, 2 * k or 1)
                    view.release()
                    gbest.resize(size, refcheck=False)
                    flips.resize((size, m), refcheck=False)
                    raw.resize(size * row_bytes, refcheck=False)
                    view = memoryview(raw)
                gbest[k] = float(g)
                flips[k] = counts
                view[k * row_bytes:(k + 1) * row_bytes] = bytes.fromhex(blob)
            except (ValueError, OverflowError) as exc:
                fault = f"{path}: record {k}: {exc}"
        if count != records:
            raise ValueError(f"{path}: expected {records} record lines")
        # a record line holds m flip counts and 16·m·words hex digits
        if length < records * m * (1 + 16 * words):
            raise ValueError(f"{path}: {records} records of m={m}, d={d} "
                             f"need more text than the file holds")
        if fault is not None:
            raise ValueError(fault)
        view.release()
        positions = raw.view("<u8").reshape(records, m, words)
        # the bits past d in each last word are padding and must be zero; a
        # record's flip counts are its bits that differ from the record
        # before, none in record 0
        padding = np.uint64((1 << 64) - (1 << (d - 64 * (words - 1))))
        for start in range(0, records, SAVE_CHUNK):
            stop = min(start + SAVE_CHUNK, records)
            padded = (positions[start:stop, :, -1] & padding).any(axis=1)
            moved = np.zeros((stop - start, m), dtype=np.int64)
            k = max(start, 1)
            np.bitwise_count(positions[k:stop] ^ positions[k - 1:stop - 1]
                             ).sum(axis=-1, out=moved[k - start:])
            bad = np.flatnonzero(padded | (moved != flips[start:stop]).any(1))
            if bad.size:
                raise ValueError(f"{path}: record {start + bad[0]}: " + (
                    f"bits set past d={d}" if padded[bad[0]]
                    else "flip counts differ from the positions"))
        return cls(d, gbest, flips, positions)


# characters of text read and cut into lines at once
_READ_CHARS = 1 << 13

# the line breaks of str.splitlines; "\r" never reaches it, as reading in
# text mode turns it into "\n"
_BREAKS = "\n\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def read_lines(path):
    """The lines of a trace's, instance's or config's text as ``splitlines``
    cuts the whole text, read ``_READ_CHARS`` at a time; a damaged ``.gz``
    stream or text that is not UTF-8 is a ValueError naming the path."""
    try:
        with open_text(path) as fh:
            part = ""
            # a line longer than a read doubles the next one, so that
            # joining its parts stays linear in its length
            while chunk := fh.read(max(_READ_CHARS, len(part))):
                lines = (part + chunk).splitlines()
                part = "" if chunk[-1] in _BREAKS else lines.pop()
                yield from lines
            if part:
                yield part
    except (EOFError, zlib.error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_header(path) -> tuple[int, int, int]:
    """The swarm size, dimensions and record count a trace file's first
    two lines give, each checked to be >= 1."""
    lines = read_lines(path)
    if next(lines, None) != _MAGIC:
        raise ValueError(f"{path}: not a trace file")
    try:
        m, d, records = (int(x) for x in next(lines).split())
    except (StopIteration, ValueError):
        m = d = records = 0
    lines.close()
    if min(m, d, records) < 1:
        raise ValueError(f"{path}: the second line must give the swarm "
                         f"size, dimensions and record count, each >= 1")
    return m, d, records


def save_memory(records: int, swarm_size: int, dimensions: int) -> int:
    """An upper bound on the bytes :meth:`RunTrace.save` allocates: the
    compressor's state and buffers (340-410 KiB by tracemalloc), one
    chunk of at most ``SAVE_CHUNK`` records' gbest values and flip counts
    as Python lists (a count above 256 is an int object of its own) and
    one record line."""
    words = (dimensions + 63) // 64
    per_count = 8 + 32 * (dimensions > 256)
    return ((416 << 10)
            + min(records, SAVE_CHUNK) * (96 + per_count * swarm_size)
            + 48 * swarm_size * words)


def load_memory(swarm_size: int, dimensions: int) -> int:
    """An upper bound on the bytes :meth:`RunTrace.load` allocates beside
    the arrays it returns: the decompressor's state and buffers (at most
    72 KiB by tracemalloc), one record line cut into its fields, flip
    counts and decoded position, and the larger of a read of text with
    its line list and the line carried over (six reads' worth) and the
    checks of ``SAVE_CHUNK`` records (9 bytes a word and a count)."""
    words = (dimensions + 63) // 64
    line = swarm_size * (16 * words + 21) + 48
    return (80 << 10) + 4 * line + 64 * swarm_size + max(
        6 * max(_READ_CHARS, line), SAVE_CHUNK * swarm_size * (9 * words + 9))


class TraceBuilder:
    """Accumulates the records of a block of runs, one record per call to
    :meth:`record`; produces one RunTrace per run."""

    def __init__(self, dimensions: int, runs: int, swarm_size: int,
                 records: int, keep_positions: bool = True):
        self.dimensions = dimensions
        self._count = 0
        # one contiguous slab per run, so that its trace is a view
        self._gbest = np.empty((runs, records))
        self._flips = np.empty((runs, records, swarm_size), dtype=np.int64)
        self._positions = (
            np.empty((runs, records, swarm_size, (dimensions + 63) // 64),
                     dtype="<u8") if keep_positions else None)

    @staticmethod
    def nbytes(dimensions: int, runs: int, swarm_size: int, records: int,
               keep_positions: bool = True) -> int:
        """The bytes of the slabs a builder of these arguments allocates."""
        words = (dimensions + 63) // 64 if keep_positions else 0
        return runs * records * 8 * (1 + swarm_size * (1 + words))

    def record(self, gbest_fitness: np.ndarray, flip_counts: np.ndarray,
               position_bits: np.ndarray) -> None:
        """gbest_fitness (runs,); flip_counts (runs*m,); position_bits
        (runs*m, d), run r in rows r*m:(r+1)*m."""
        k = self._count
        self._gbest[:, k] = gbest_fitness
        self._flips[:, k] = flip_counts.reshape(self._flips[:, k].shape)
        if self._positions is not None:
            slot = self._positions[:, k]
            slot[...] = pack_bits(position_bits).reshape(slot.shape)
        self._count += 1

    def build(self) -> list[RunTrace]:
        if self._count != self._gbest.shape[1]:
            raise ValueError(f"{self._count} of {self._gbest.shape[1]} "
                             f"records written")
        return [RunTrace(self.dimensions, self._gbest[r], self._flips[r],
                         None if self._positions is None
                         else self._positions[r])
                for r in range(len(self._gbest))]
