"""Per-iteration run records with bit-packed positions.

Record 0 is the initial state (pre-step); record k holds the swarm after
iteration k. Positions are packed little-endian into 64-bit words so the
metric computations can run on whole words with population counts.

On disk a trace is line-oriented text (transparently gzipped for ``.gz``
paths): a two-line header, then one record per line with the iteration
index, the gbest fitness, comma-separated per-particle flip counts and the
hex dump of the packed position words.
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


def pack_bits(bits) -> np.ndarray:
    """Pack 0/1 values along the last axis into little-endian uint64 words."""
    b = np.ascontiguousarray(bits, dtype=np.uint8)
    d = b.shape[-1]
    out = np.zeros(b.shape[:-1] + ((d + 63) // 64 * 8,), np.uint8)
    out[..., :(d + 7) // 8] = np.packbits(b, axis=-1, bitorder="little")
    return out.view("<u8")


def unpack_bits(words, dimensions: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`."""
    w = np.ascontiguousarray(words, dtype="<u8")
    as_bytes = w.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :dimensions]


@dataclass
class RunTrace:
    """Immutable result of one swarm run."""

    dimensions: int
    gbest_fitness: np.ndarray   # (records,) float64
    flip_counts: np.ndarray     # (records, swarm_size) int64; row 0 is zeros
    positions: np.ndarray       # (records, swarm_size, words) uint64, packed

    def __post_init__(self):
        if not (len(self.gbest_fitness) == len(self.flip_counts)
                == len(self.positions)):
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

    def position_bits(self, k: int, particle: int | None = None) -> np.ndarray:
        """Unpacked 0/1 positions at record k, one particle or the full swarm."""
        rows = self.positions[k] if particle is None else self.positions[k, particle]
        return unpack_bits(rows, self.dimensions)

    def save(self, path) -> None:
        if str(path).endswith(".gz"):
            # mtime=0: gzip.open stamps the current time into the header,
            # so saving the same trace twice would give different bytes
            fh = io.TextIOWrapper(gzip.GzipFile(
                path, "wb", compresslevel=GZIP_LEVEL, mtime=0))
        else:
            fh = open(path, "w")
        with fh:
            fh.write(f"{_MAGIC}\n")
            fh.write(f"{self.swarm_size} {self.dimensions} {self.n_records}\n")
            rows = zip(self.gbest_fitness.tolist(), self.flip_counts.tolist(),
                       self.positions)
            for k, (g, flips, words) in enumerate(rows):
                fh.write(f"{k} {g!r} {','.join(map(str, flips))} "
                         f"{words.tobytes().hex()}\n")

    @classmethod
    def load(cls, path) -> "RunTrace":
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "rt") as fh:
            lines = fh.read().splitlines()
        if not lines or lines[0] != _MAGIC:
            raise ValueError(f"{path}: not a trace file")
        m, d, records = (int(x) for x in lines[1].split())
        words = (d + 63) // 64
        gbest = np.empty(records, dtype=np.float64)
        flips = np.empty((records, m), dtype=np.int64)
        positions = np.empty((records, m, words), dtype=np.uint64)
        if len(lines) != records + 2:
            raise ValueError(f"{path}: expected {records} record lines")
        for k, line in enumerate(lines[2:]):
            idx, g, fl, blob = line.split()
            if int(idx) != k:
                raise ValueError(f"{path}: record {k} has index {idx}")
            gbest[k] = float(g)
            flips[k] = [int(x) for x in fl.split(",")]
            positions[k] = np.frombuffer(
                bytes.fromhex(blob), dtype="<u8"
            ).reshape(m, words)
        return cls(d, gbest, flips, positions)


class TraceBuilder:
    """Accumulates records during a run; produces a RunTrace."""

    def __init__(self, dimensions: int):
        self.dimensions = dimensions
        self._gbest: list[float] = []
        self._flips: list[np.ndarray] = []
        self._positions: list[np.ndarray] = []

    def record(self, gbest_fitness: float, flip_counts: np.ndarray,
               position_bits: np.ndarray) -> None:
        self._gbest.append(float(gbest_fitness))
        self._flips.append(np.asarray(flip_counts, dtype=np.int64))
        self._positions.append(pack_bits(position_bits))

    def build(self) -> RunTrace:
        return RunTrace(
            self.dimensions,
            np.array(self._gbest, dtype=np.float64),
            np.stack(self._flips),
            np.stack(self._positions),
        )
