"""Post-hoc trace analysis: Hamming activity, effective exploration gain,
useless jump volume, convergence statistics; :mod:`vcbpso.results` writes
them to CSV.

Per iteration and particle, ``dist`` is the Hamming distance to the
previous position (raw activity) and ``dist_eff`` the Hamming distance to
the nearest position in the particle's whole history including the initial
one (genuinely new exploration). Their accumulated gap is the particle
useless jump volume (PUJV): movement spent revisiting known space.
"""

from __future__ import annotations

import numpy as np

from .trace import RunTrace

# History records per block of dist_eff_matrix; 128 measured best at d=100.
_BLOCK = 128

# Odd multiplier that mixes a position's words into one sort key.
_MIX = np.uint64(0x9E3779B97F4A7C15)


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


def dist_eff_workspace(iterations: int, swarm_size: int,
                       dimensions: int) -> int:
    """Bytes of the temporaries beside the ``dist`` and ``dist_eff``
    matrices (8 bytes per iteration and particle each) at their peak:
    those of :func:`dist_matrix`, of :func:`dist_eff_matrix` (its block
    rows and one particle's distinct-position sort) or the difference in
    :func:`aggregate_curves`, whichever is largest, plus numpy's ufunc
    buffers (two float64 operands of ``np.getbufsize()`` elements)."""
    cells, records = iterations * swarm_size, iterations + 1
    words = (dimensions + 63) // 64
    acc = np.min_scalar_type(64 * words).itemsize
    rows = min(_BLOCK, iterations)
    block = (rows * iterations * (9 + acc) + 2 * iterations * acc
             + rows * rows + 8 * records * (2 * words + 7))
    # dist_matrix holds the XOR words, their bit counts and its result
    return (max(9 * cells * words - 8 * cells, block, 8 * cells)
            + 16 * np.getbufsize())


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


def pujv_of(d: np.ndarray, e: np.ndarray, m: int, n: int) -> int:
    """Total useless jump volume over iterations m..n inclusive, from a
    trace's ``dist`` and ``dist_eff`` matrices."""
    check_range(len(d), m, n)
    return int((d[m - 1:n] - e[m - 1:n]).sum())


def aggregate_curves(d: np.ndarray, e: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-iteration mean ``dist``, mean ``dist_eff`` and cumulative PUJV
    over the swarm, from a trace's ``dist`` and ``dist_eff`` matrices:
    the columns of ``results.METRICS_HEADER``."""
    return d.mean(axis=1), e.mean(axis=1), np.cumsum((d - e).sum(axis=1))


def convergence_round(trace: RunTrace) -> int:
    """Last iteration with a strict gbest improvement; 0 if none."""
    g = trace.gbest_fitness
    better = np.nonzero(g[1:] > g[:-1])[0]
    return int(better[-1] + 1) if better.size else 0


def first_discovery_round(trace: RunTrace) -> int:
    """First iteration at which gbest reaches its final value."""
    g = trace.gbest_fitness
    return int(np.argmax(g == g[-1]))
