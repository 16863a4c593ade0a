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
from dataclasses import dataclass

import numpy as np

_MAGIC = "vcbpso-trace 1"

# zlib's default level; level 9 (gzip.open's default) makes d=100 traces
# about 4 % smaller at about 5x the compression time
GZIP_LEVEL = 6

# records that RunTrace.save turns into Python objects at once
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
    flip_counts: np.ndarray     # (records, swarm_size) int64; row 0 is zeros
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
        with open_text(path) as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != _MAGIC:
            raise ValueError(f"{path}: not a trace file")
        try:
            m, d, records = (int(x) for x in lines[1].split())
        except (IndexError, ValueError):
            m = d = records = 0
        if min(m, d, records) < 1:
            raise ValueError(f"{path}: the second line must give the swarm "
                             f"size, dimensions and record count, each >= 1")
        if len(lines) != records + 2:
            raise ValueError(f"{path}: expected {records} record lines")
        # a record line holds m flip counts and 16·m·words hex digits
        words = (d + 63) // 64
        if sum(map(len, lines[2:])) < records * m * (1 + 16 * words):
            raise ValueError(f"{path}: {records} records of m={m}, d={d} "
                             f"need more text than the file holds")
        gbest = np.empty(records, dtype=np.float64)
        flips = np.empty((records, m), dtype=np.int64)
        # each position is decoded into its own slot of raw; one of the
        # wrong length would resize raw and shift every later record
        row_bytes = 8 * m * words
        raw = bytearray(records * row_bytes)
        for k, line in enumerate(lines[2:]):
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
                gbest[k] = float(g)
                flips[k] = counts
                raw[k * row_bytes:(k + 1) * row_bytes] = bytes.fromhex(blob)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"{path}: record {k}: {exc}") from None
        positions = np.frombuffer(raw, dtype="<u8").reshape(records, m, words)
        # the bits past d in each last word are padding and must be zero
        padding = np.uint64((1 << 64) - (1 << (d - 64 * (words - 1))))
        bad = np.flatnonzero((positions[:, :, -1] & padding).any(axis=1))
        if bad.size:
            raise ValueError(f"{path}: record {bad[0]}: bits set past d={d}")
        return cls(d, gbest, flips, positions)


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
