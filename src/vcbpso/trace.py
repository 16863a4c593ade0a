"""Per-iteration run records with bit-packed positions.

Record 0 is the initial state (pre-step); record k holds the swarm after
iteration k. Positions are packed little-endian into 64-bit words so the
metric computations can run on whole words with population counts.

On disk a trace (format 2) is one gzip stream at ``GZIP_LEVEL`` with
mtime 0, whatever the path's suffix. The stream holds the line
``vcbpso-trace 2``, the line ``m d records``, then the body: the records'
gbest values as little-endian float64, then their packed position words
as little-endian uint64. A trace holds the arrays its file holds; the
bits each particle flipped are a metric, ``metrics.dist_matrix``.
"""

from __future__ import annotations

import gzip
import io
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_MAGIC = b"vcbpso-trace 2\n"

# zlib's default level; level 9 (gzip.open's default) makes d=100 traces
# about 4 % smaller at about 5x the compression time
GZIP_LEVEL = 6

# records whose padding bits RunTrace.load checks at once, and whose flips
# metrics.dist_matrix counts at once
RECORD_CHUNK = 64

# the most bytes RunTrace.save hands zlib at once: zlib gathers one call's
# output in blocks of 32 KiB, 64 KiB, 256 KiB, ... before it joins them,
# and with what deflate held back, 32 KiB of input can fill two blocks
_WRITE_BYTES = 16 << 10

# the bytes of a damaged or cut gzip stream raise these when read
_DAMAGED = (gzip.BadGzipFile, EOFError, zlib.error)


def open_text(path, mode: str = "r"):
    """Open an instance or config file ``path`` as text to read ("r") or
    write ("w"). A ``.gz`` path is gzip text at ``GZIP_LEVEL`` with mtime
    0 (``gzip.open`` stamps the clock), so equal text under one file name
    gives equal bytes (the header holds the name); other paths are plain
    text."""
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
    # (records, swarm_size, words) uint64, packed; None when the run kept
    # no positions (``engine.run_block`` with ``keep_positions`` false)
    positions: np.ndarray | None

    def __post_init__(self):
        if (self.positions is not None
                and len(self.positions) != len(self.gbest_fitness)):
            raise ValueError("record arrays must have equal length")

    @property
    def n_records(self) -> int:
        return len(self.gbest_fitness)

    @property
    def iterations(self) -> int:
        return self.n_records - 1

    @property
    def swarm_size(self) -> int:
        return self.positions.shape[1]

    def save(self, path) -> None:
        """Write the trace, ``_WRITE_BYTES`` of its arrays at a time, so
        that what zlib holds at once does not grow with the trace; the
        arrays of a built or loaded trace are contiguous and little-endian
        already, so nothing is copied."""
        if self.positions is None:
            # checked first, so that no partial file is left behind
            raise ValueError(f"{path}: the trace kept no positions to save")
        with gzip.GzipFile(path, "wb", compresslevel=GZIP_LEVEL,
                           mtime=0) as fh:
            fh.write(_MAGIC + f"{self.swarm_size} {self.dimensions} "
                              f"{self.n_records}\n".encode())
            for array, dtype in ((self.gbest_fitness, "<f8"),
                                 (self.positions, "<u8")):
                data = memoryview(np.ascontiguousarray(array, dtype)).cast("B")
                for start in range(0, len(data), _WRITE_BYTES):
                    fh.write(data[start:start + _WRITE_BYTES])

    @classmethod
    def load(cls, path) -> "RunTrace":
        """Read a trace file in one pass. The body is decompressed
        ``_READ_BYTES`` at a time into one buffer that grows by doubling,
        up to the header's count, so a header that claims more than the
        file holds allocates at most twice what it does, and a whole
        file leaves no slack. A body shorter or longer than the header's
        count is refused, then a position with a bit set past d."""
        with _open_trace(path) as (fh, (m, d, records)):
            words = (d + 63) // 64
            need = 8 * records * (1 + m * words)
            body = np.empty(0, dtype=np.uint8)
            got = 0
            while got < need:
                if got == len(body):
                    # a tracer's view of the frame holds extra references
                    body.resize(min(need, max(2 * got, _READ_BYTES)),
                                refcheck=False)
                count = fh.readinto(body[got:got + _READ_BYTES])
                if not count:
                    break
                got += count
            longer = got == need and fh.read(1)
        if got < need or longer:
            raise ValueError(f"{path}: {records} records of m={m}, d={d} "
                             f"need {need} bytes after the header, the file "
                             f"holds {'more' if longer else got}")
        positions = body[8 * records:].view("<u8").reshape(records, m, words)
        # the bits past d in each last word are padding and must be zero
        padding = np.uint64((1 << 64) - (1 << (d - 64 * (words - 1))))
        for start in range(0, records, RECORD_CHUNK):
            padded = np.flatnonzero(
                (positions[start:start + RECORD_CHUNK, :, -1] & padding
                 ).any(axis=1))
            if padded.size:
                raise ValueError(f"{path}: record {start + padded[0]}: "
                                 f"bits set past d={d}")
        return cls(d, body[:8 * records].view("<f8"), positions)


# bytes of a trace's body decompressed at once
_READ_BYTES = 1 << 13

# the most bytes of a trace's second line that are read
_HEADER_BYTES = 128


@contextmanager
def _open_trace(path):
    """The trace file ``path`` open past its header, and the swarm size,
    dimensions and record count the header gives, each checked to be
    >= 1; a damaged or cut stream is a ValueError naming the path."""
    with gzip.GzipFile(path, "rb") as fh:
        try:
            try:
                magic = fh.readline(len(_MAGIC))
            except gzip.BadGzipFile:
                magic = b""
            if magic != _MAGIC:
                raise ValueError(f"{path}: not a trace file of format 2, a "
                                 f"gzip stream that starts with the line "
                                 f"'{_MAGIC.decode().strip()}'")
            line = fh.readline(_HEADER_BYTES)
            fields = line.split()
            if not (line.endswith(b"\n") and len(fields) == 3
                    and all(f.isdigit() and int(f) >= 1 for f in fields)):
                raise ValueError(f"{path}: the second line must give the "
                                 f"swarm size, dimensions and record count, "
                                 f"each >= 1")
            yield fh, tuple(map(int, fields))
        except _DAMAGED as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_header(path) -> tuple[int, int, int]:
    """The swarm size, dimensions and record count a trace file's header
    gives, each checked to be >= 1."""
    with _open_trace(path) as (_, header):
        return header


def read_lines(path) -> list[str]:
    """The lines of an instance's or config's text; a damaged ``.gz``
    stream or text that is not UTF-8 is a ValueError naming the path.
    Both callers hold every line, so the text is read at once."""
    try:
        with open_text(path) as fh:
            return fh.read().splitlines()
    except _DAMAGED + (UnicodeDecodeError,) as exc:
        raise ValueError(f"{path}: {exc}") from None


# An upper bound on the bytes RunTrace.save allocates, whatever the trace:
# the compressor's state and the file's buffer (at most 300 KiB by
# tracemalloc), and the output of one write of _WRITE_BYTES, which zlib
# gathers in one 32 KiB block and joins into the bytes it returns (the
# peak is 318 KiB at m=20, d=100 and m=50, d=1000 alike).
SAVE_BYTES = (304 << 10) + (32 << 10) + _WRITE_BYTES


def load_memory(swarm_size: int) -> int:
    """An upper bound on the bytes :meth:`RunTrace.load` allocates beside
    the arrays it returns: the larger of the decompressor's state and
    buffers with one read of the body (at most 94 KiB by tracemalloc) and
    the padding checks of ``RECORD_CHUNK`` records (8 bytes a particle,
    and numpy's 8 KiB cast buffer)."""
    return max(104 << 10, 8 * RECORD_CHUNK * swarm_size + (16 << 10))


class TraceBuilder:
    """Accumulates the records of a block of runs, one record per call to
    :meth:`record`; produces one RunTrace per run."""

    def __init__(self, dimensions: int, runs: int, swarm_size: int,
                 records: int, keep_positions: bool = True):
        self.dimensions = dimensions
        self._count = 0
        # one contiguous slab per run, so that its trace is a view
        self._gbest = np.empty((runs, records))
        self._positions = (
            np.empty((runs, records, swarm_size, (dimensions + 63) // 64),
                     dtype="<u8") if keep_positions else None)

    @staticmethod
    def nbytes(dimensions: int, runs: int, swarm_size: int, records: int,
               keep_positions: bool = True) -> int:
        """The bytes of the slabs a builder of these arguments allocates."""
        particle = keep_positions * 8 * ((dimensions + 63) // 64)
        return runs * records * (8 + swarm_size * particle)

    def record(self, gbest_fitness: np.ndarray,
               position_bits: np.ndarray) -> None:
        """gbest_fitness (runs,); position_bits (runs*m, d), run r in rows
        r*m:(r+1)*m."""
        k = self._count
        self._gbest[:, k] = gbest_fitness
        if self._positions is not None:
            slot = self._positions[:, k]
            slot[...] = pack_bits(position_bits).reshape(slot.shape)
        self._count += 1

    def build(self) -> list[RunTrace]:
        if self._count != self._gbest.shape[1]:
            raise ValueError(f"{self._count} of {self._gbest.shape[1]} "
                             f"records written")
        return [RunTrace(self.dimensions, self._gbest[r],
                         None if self._positions is None
                         else self._positions[r])
                for r in range(len(self._gbest))]
