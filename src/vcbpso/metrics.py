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

# A tile of dist_eff_matrix compares _BLOCK history positions with _TILE
# later ones, 256 KiB of XOR words; dist_matrix's tiles hold as many.
_BLOCK = 128
_TILE = 256


def dist_matrix(trace: RunTrace) -> np.ndarray:
    """(iterations, swarm_size) matrix of consecutive Hamming distances;
    row k-1 holds iteration k. Consecutive records are compared in tiles
    of about ``_BLOCK * _TILE`` words."""
    positions = trace.positions
    records, m, words = positions.shape
    out = np.empty((records - 1, m), dtype=np.int64)
    rows = _dist_rows(records - 1, m, words)
    xor = np.empty((rows, m, words), dtype=np.uint64)
    count = np.empty((rows, m, words), dtype=np.uint8)
    for r0 in range(0, records - 1, rows):
        n = min(rows, records - 1 - r0)
        x, c = xor[:n], count[:n]
        np.bitwise_xor(positions[r0 + 1:r0 + 1 + n], positions[r0:r0 + n],
                       out=x)
        np.bitwise_count(x, out=c)
        c.sum(axis=-1, dtype=np.int64, out=out[r0:r0 + n])
    return out


def _dist_rows(iterations: int, m: int, words: int) -> int:
    """Records per tile of :func:`dist_matrix`, at least 1."""
    return max(1, min(iterations, _BLOCK * _TILE // (m * words)))


def dist_eff_matrix(trace: RunTrace) -> np.ndarray:
    """(iterations, swarm_size) matrix of effective gains, same layout.

    A revisit has gain 0, so only each particle's first visits of its
    distinct positions are compared, in visit order: the history of a
    first visit is exactly the distinct positions visited before it.
    Only the upper triangle of their pairwise distances is computed, a
    tile at a time: ``_BLOCK`` history positions r against ``_TILE``
    later positions k > r, whose column minimum is folded into a running
    minimum per position. The cost per particle is about U**2 / 2 word
    comparisons for U distinct positions. The tiles take a fixed
    workspace; finding one particle's first visits takes a few index
    arrays (28 bytes per record), and its U positions are copied.
    """
    positions = trace.positions
    records, m, words = positions.shape
    out = np.zeros((records - 1, m), dtype=np.int64)
    # narrowest unsigned type that holds the largest distance of the words
    acc_type = np.min_scalar_type(64 * words)
    top = np.iinfo(acc_type).max
    # one tile, the largest that the trace can fill
    rows, cols = min(_BLOCK, records - 1), min(_TILE, records - 1)
    xor = np.empty((rows, cols), dtype=np.uint64)
    count = np.empty((rows, cols), dtype=np.uint8)
    acc = np.empty((rows, cols), dtype=acc_type)
    tile_min = np.empty(cols, dtype=acc_type)
    # upper[j, l]: history position r0 + j lies before position r0 + 1 + l
    upper = np.less_equal.outer(np.arange(rows), np.arange(cols))
    for i in range(m):
        first = _first_visits(positions[:, i])
        pos = np.empty((words, first.size), dtype=np.uint64)
        for word in range(words):
            np.take(positions[:, i, word], first, out=pos[word])
        later = first.size - 1
        gain = np.full(later, top, dtype=acc_type)
        for r0 in range(0, later, _BLOCK):
            n = min(_BLOCK, later - r0)
            # gain[c0 + l] is the gain of position c0 + 1 + l
            for c0 in range(r0, later, _TILE):
                width = min(_TILE, later - c0)
                a, x = acc[:n, :width], xor[:n, :width]
                c = count[:n, :width]
                for word in range(words):
                    np.bitwise_xor(pos[word, r0:r0 + n, None],
                                   pos[word, c0 + 1:c0 + 1 + width], out=x)
                    if word == 0:
                        np.bitwise_count(x, out=a)
                    else:
                        a += np.bitwise_count(x, out=c)
                # only the first tile of a block also pairs r >= k
                low = tile_min[:width]
                np.minimum.reduce(a, axis=0, out=low, initial=top,
                                  where=upper[:n, :width] if c0 == r0
                                  else True)
                np.minimum(gain[c0:c0 + width], low,
                           out=gain[c0:c0 + width])
        out[first[1:] - 1, i] = gain
        # freed before the next particle's arrays are made
        del first, pos, gain
    return out


def dist_eff_workspace(iterations: int, swarm_size: int,
                       dimensions: int) -> int:
    """Bytes of the temporaries beside the ``dist`` and ``dist_eff``
    matrices (8 bytes per iteration and particle each) at their peak:
    those of :func:`dist_matrix` (one tile), of :func:`dist_eff_matrix`
    or of :func:`aggregate_curves`, whichever is largest, plus numpy's
    ufunc buffers."""
    records = iterations + 1
    words = (dimensions + 63) // 64
    acc = np.min_scalar_type(64 * words).itemsize
    rows, cols = min(_BLOCK, iterations), min(_TILE, iterations)
    # the tile's XOR words, bit counts, mask and sums, its column minima
    # and the running minima
    tile = rows * cols * (10 + acc) + (cols + iterations) * acc
    # one particle's stable sort: the order, one gathered word, its sort
    # order and the merge buffer of half as many indices; then its first
    # visits and their positions, at most one per record
    particle = records * max(28, 8 * (words + 1))
    dist = 9 * _dist_rows(iterations, swarm_size, words) * swarm_size * words
    # three 8-byte operands, of at most np.getbufsize() elements each,
    # and 4 KiB of array headers and small index arrays
    buffers = 24 * min(np.getbufsize(),
                       max(iterations * swarm_size, rows * cols, records))
    return max(dist, tile + particle, 40 * iterations) + buffers + (4 << 10)


def _first_visits(column: np.ndarray) -> np.ndarray:
    """Increasing record indices of the first visit of each distinct
    position in one particle's (records, words) packed positions, by a
    stable sort of the records on each word, the last word first: equal
    positions end up next to each other in record order, and each run's
    first is its first visit. Its temporaries are a few index arrays,
    whatever the words."""
    records, words = column.shape
    order = np.arange(records)
    for j in reversed(range(words)):
        order = order[np.argsort(column[order, j], kind="stable")]
    new = np.zeros(records, dtype=bool)
    new[0] = True
    for j in range(words):
        word = column[order, j]
        new[1:] |= word[1:] != word[:-1]
    first = order[new]
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
    # the sums' difference, so that no matrix-sized temporary is made
    return int(d[m - 1:n].sum() - e[m - 1:n].sum())


def aggregate_curves(d: np.ndarray, e: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-iteration mean ``dist``, mean ``dist_eff`` and cumulative PUJV
    over the swarm, from a trace's ``dist`` and ``dist_eff`` matrices:
    the columns of ``results.METRICS_HEADER``."""
    # the row sums' difference, so that no matrix-sized temporary is made
    return (d.mean(axis=1), e.mean(axis=1),
            np.cumsum(d.sum(axis=1) - e.sum(axis=1)))


def convergence_round(trace: RunTrace) -> int:
    """Last iteration with a strict gbest improvement; 0 if none."""
    g = trace.gbest_fitness
    better = np.nonzero(g[1:] > g[:-1])[0]
    return int(better[-1] + 1) if better.size else 0


def first_discovery_round(trace: RunTrace) -> int:
    """First iteration at which gbest reaches its final value."""
    g = trace.gbest_fitness
    return int(np.argmax(g == g[-1]))
