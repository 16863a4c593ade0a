"""Post-hoc trace analysis: Hamming activity, effective exploration gain,
useless jump volume, convergence statistics.

Per iteration and particle, ``dist`` is the Hamming distance to the
previous position (raw activity) and ``dist_eff`` the Hamming distance to
the nearest position in the particle's whole history including the initial
one (genuinely new exploration). Their accumulated gap is the particle
useless jump volume (PUJV): movement spent revisiting known space.
"""

from __future__ import annotations

import csv

import numpy as np

from .trace import RunTrace, pack_bits

# History records per block of dist_eff_matrix; 128 measured best at d=100.
_BLOCK = 128

# Odd multiplier that mixes a position's words into one sort key.
_MIX = np.uint64(0x9E3779B97F4A7C15)


def hamming(a, b) -> int:
    """Number of differing bits between two equal-length bit-vectors."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.bitwise_count(pack_bits(a) ^ pack_bits(b)).sum())


def _check_k(trace: RunTrace, k: int) -> None:
    if not 1 <= k < trace.n_records:
        raise ValueError(f"iteration {k} outside trace of {trace.iterations}")


def dist_iteration(trace: RunTrace, particle: int, k: int) -> int:
    """Hamming distance between the particle's positions at k-1 and k."""
    _check_k(trace, k)
    x = trace.positions[k, particle] ^ trace.positions[k - 1, particle]
    return int(np.bitwise_count(x).sum())


def dist_eff_iteration(trace: RunTrace, particle: int, k: int) -> int:
    """Minimum Hamming distance from the position at k to every earlier
    recorded position of the same particle (history from record 0)."""
    _check_k(trace, k)
    x = trace.positions[:k, particle] ^ trace.positions[k, particle]
    return int(np.bitwise_count(x).sum(axis=-1).min())


def dist_matrix(trace: RunTrace) -> np.ndarray:
    """(iterations, swarm_size) matrix of consecutive Hamming distances;
    row k-1 holds iteration k."""
    x = trace.positions[1:] ^ trace.positions[:-1]
    return np.bitwise_count(x).sum(axis=-1, dtype=np.int64)


def dist_eff_matrix(trace: RunTrace) -> np.ndarray:
    """(iterations, swarm_size) matrix of effective gains, same layout.

    A revisit has gain 0, so only each particle's first visits of its
    distinct positions are compared, in visit order: the history of a
    first visit is exactly the distinct positions visited before it.
    Only the upper triangle of their pairwise distances is computed: a
    block of ``_BLOCK`` history positions r is compared with the later
    positions k > r, and the block's column minimum is folded into a
    running minimum per position. The cost per particle is about U**2 / 2
    word comparisons for U distinct positions, and the temporaries take
    about 12 * _BLOCK * records bytes, whatever the trace length.
    """
    records, m, words = trace.positions.shape
    out = np.zeros((records - 1, m), dtype=np.int64)
    # narrowest unsigned type that holds the largest distance of the words
    acc_type = np.min_scalar_type(64 * words)
    top = np.iinfo(acc_type).max
    # workspace for the worst case, a particle that never revisits
    rows = min(_BLOCK, records - 1)
    xor = np.empty((rows, records - 1), dtype=np.uint64)
    count = np.empty((rows, records - 1), dtype=np.uint8)
    acc = np.empty((rows, records - 1), dtype=acc_type)
    block_min = np.empty(records - 1, dtype=acc_type)
    best = np.empty(records - 1, dtype=acc_type)
    # upper[j, l]: history position r0 + j lies before position r0 + 1 + l
    upper = np.triu(np.ones((rows, rows), dtype=bool))
    for i in range(m):
        pos = np.ascontiguousarray(trace.positions[:, i].T)  # (words, records)
        first = _first_visits(pos)
        pos = pos.take(first, axis=1)  # (words, U)
        cols = first.size - 1
        gain = best[:cols]
        gain.fill(top)
        for r0 in range(0, cols, _BLOCK):
            later = cols - r0
            n = min(_BLOCK, later)
            a, x, c = acc[:n, :later], xor[:n, :later], count[:n, :later]
            for w in range(words):
                np.bitwise_xor(pos[w, r0:r0 + n, None], pos[w, r0 + 1:], out=x)
                if w == 0:
                    np.bitwise_count(x, out=a)
                else:
                    a += np.bitwise_count(x, out=c)
            # the first n columns (the diagonal block) also pair r >= k
            np.minimum.reduce(a[:, :n], axis=0, where=upper[:n, :n],
                              initial=top, out=block_min[:n])
            np.minimum.reduce(a[:, n:], axis=0, out=block_min[n:later])
            np.minimum(gain[r0:], block_min[:later], out=gain[r0:])
        out[first[1:] - 1, i] = gain
    return out


def _first_visits(pos: np.ndarray) -> np.ndarray:
    """Increasing record indices of the first visit of each distinct
    position in one particle's (words, records) packed positions."""
    # Records are grouped by one 64-bit key that mixes the words, which
    # sorts several times faster than whole positions. Equal positions
    # share a key; if different ones do too (possible only with two or
    # more words), the exact sort of whole positions is used instead.
    key = pos[0].copy()
    for word in pos[1:]:
        key *= _MIX
        key ^= word
    order = np.argsort(key)
    sorted_key = key[order]
    starts = np.flatnonzero(sorted_key[1:] != sorted_key[:-1]) + 1
    starts = np.concatenate(([0], starts))
    first = np.minimum.reduceat(order, starts)
    # each record's group and the group's earliest record
    earliest = np.empty_like(order)
    earliest[order] = np.repeat(first, np.diff(starts, append=key.size))
    if not np.array_equal(pos.take(earliest, axis=1), pos):
        rows = np.ascontiguousarray(pos.T).view(f"V{pos.itemsize * len(pos)}")
        first = np.unique(rows[:, 0], return_index=True)[1]
    first.sort()
    return first


def check_range(iterations: int, m: int, n: int) -> None:
    """Raise ValueError unless 1 <= m <= n <= iterations."""
    if not 1 <= m <= n <= iterations:
        raise ValueError(f"bad iteration range [{m}, {n}] for trace of "
                         f"{iterations}")


def pujv(trace: RunTrace, m: int, n: int) -> int:
    """Total useless jump volume over iterations m..n inclusive."""
    check_range(trace.iterations, m, n)
    return pujv_of(dist_matrix(trace), dist_eff_matrix(trace), m, n)


def pujv_of(d: np.ndarray, e: np.ndarray, m: int, n: int) -> int:
    """:func:`pujv` from the trace's ``dist`` and ``dist_eff`` matrices."""
    check_range(len(d), m, n)
    return int((d[m - 1:n] - e[m - 1:n]).sum())


def convergence_round(trace: RunTrace) -> int:
    """Last iteration with a strict gbest improvement; 0 if none."""
    g = trace.gbest_fitness
    better = np.nonzero(g[1:] > g[:-1])[0]
    return int(better[-1] + 1) if better.size else 0


def first_discovery_round(trace: RunTrace) -> int:
    """First iteration at which gbest reaches its final value."""
    g = trace.gbest_fitness
    return int(np.argmax(g == g[-1]))


# Rows per write of write_particle_metrics_csv; one string per chunk
# keeps its temporaries small whatever the trace length.
_CSV_CHUNK_ROWS = 4096


def write_particle_metrics_csv(d: np.ndarray, e: np.ndarray, path) -> None:
    """Schema: iteration,particle,dist,dist_eff (one row per pair), from
    the ``dist`` and ``dist_eff`` matrices of one trace. The bytes are
    those of ``csv.writer``: integer cells, ``\\r\\n`` line ends."""
    iterations, m = d.shape
    rows = np.empty((iterations * m, 4), dtype=np.int64)
    rows[:, 0] = np.repeat(np.arange(1, iterations + 1), m)
    rows[:, 1] = np.tile(np.arange(m), iterations)
    rows[:, 2] = d.ravel()
    rows[:, 3] = e.ravel()
    with open(path, "w", newline="") as fh:
        fh.write("iteration,particle,dist,dist_eff\r\n")
        for start in range(0, len(rows), _CSV_CHUNK_ROWS):
            chunk = rows[start:start + _CSV_CHUNK_ROWS]
            fh.write("%d,%d,%d,%d\r\n" * len(chunk)
                     % tuple(chunk.ravel().tolist()))


def write_aggregate_metrics_csv(mean_dist: np.ndarray,
                                mean_dist_eff: np.ndarray,
                                cum_pujv: np.ndarray, path) -> None:
    """Schema: iteration,mean_dist,mean_dist_eff,cum_pujv, one row per
    iteration from 1. Cells keep their Python type: floats print as
    ``repr`` and integer ``cum_pujv`` values as integers."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["iteration", "mean_dist", "mean_dist_eff", "cum_pujv"])
        out.writerows(zip(range(1, len(mean_dist) + 1), mean_dist.tolist(),
                          mean_dist_eff.tolist(), cum_pujv.tolist()))
