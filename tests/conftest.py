"""Shared fixtures and oracles: the velocity grid used by the correction
checks, the cancellation-free complement of ``sigm`` and the bisection
oracle of ``correct``, a small reference knapsack instance, the
full-table and brute-force knapsack solvers, the scalar repair and
evaluation, the whole-array VT2 transfer, the scalar exploration metrics
and bit unpacking, a function objective for the engine, the
experiment protocols of ``configs/``, and large random traces and a
tracemalloc call for memory checks."""

import math
import os
import tracemalloc

import numpy as np
import pytest

from vcbpso.harness import ExperimentSpec, parse_config
from vcbpso.knapsack import KnapsackInstance, repair
from vcbpso.metrics import dist_eff_matrix, dist_matrix
from vcbpso.trace import RunTrace, pack_bits
from vcbpso.transfer import (
    CORRECTION_CLAMP,
    CORRECTION_FLOOR,
    TransferKind,
    _check_finite,
    sigm,
)

ALL_KINDS = list(TransferKind)

CONFIGS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "configs")

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def velocity_grid() -> np.ndarray:
    """Log-spaced magnitudes 10^-6 .. 10^6 plus 0.5, 1, 2, 5, both signs."""
    mags = {10.0 ** k for k in range(-6, 7)} | {0.5, 1.0, 2.0, 5.0}
    return np.array(sorted(mags | {-m for m in mags}))


class OracleError(RuntimeError):
    """A test oracle failed to produce a reference value."""


def sigm_complement(kind: TransferKind, v):
    """``1 - sigm(v)`` evaluated without cancellation.

    Needed wherever sigm is close to 1: the naive subtraction loses all
    precision once sigm rounds to 1. Used by the bisection oracle and by
    tests; underflows to 0 where the true complement is below double range.
    """
    arr = np.asarray(v, dtype=np.float64)
    _check_finite(arr)
    a = np.abs(arr)
    if kind is TransferKind.VT1:
        # arctan(x) + arctan(1/x) = pi/2 for x > 0
        with np.errstate(divide="ignore"):
            c = (2.0 / np.pi) * np.arctan(2.0 / (np.pi * a))
        c = np.where(a == 0.0, 1.0, c)
    elif kind is TransferKind.VT2:
        lo = np.minimum(a, 1.0)
        inv2 = np.maximum(a, 1.0) ** -2.0
        c = np.where(a <= 1.0, 1.0 / (1.0 + lo * lo), inv2 / (1.0 + inv2))
    elif kind is TransferKind.VT3:
        t = np.exp(-2.0 * a)
        c = 2.0 * t / (1.0 + t)
    elif kind is TransferKind.VT4:
        t = np.exp(-a)
        c = 2.0 * t / (1.0 + t)
    else:  # pragma: no cover
        raise TypeError(f"unknown transfer kind: {kind!r}")
    return float(c) if np.isscalar(v) or arr.ndim == 0 else c


def correct_oracle(kind: TransferKind, v: float) -> float:
    """Invert ``sigm(x) = 1 - sigm(v)`` by bracketed bisection.

    Test oracle for the closed forms in ``transfer.correct``. Bisects on
    the log of the magnitude over |x| in [1e-300, 1e300] until the bracket
    is resolved to full precision (well below 1e-12 both absolutely and
    relatively). Raises :class:`OracleError` when the target cannot be
    bracketed, which signals either a broken closed form or an input whose
    correction lies outside double range.
    """
    v = float(v)
    if not math.isfinite(v):
        raise ValueError("velocity must be finite")
    if v == 0.0:
        raise ValueError("cannot correct a zero velocity")
    a = abs(v)
    sign = 1.0 if v > 0 else -1.0

    # sigm(x) = 1 - sigm(a) has two equivalent float formulations; pick the
    # one whose fixed side is far from 1 so the bisection target keeps full
    # relative precision. For sigm(a) < 0.5 the answer x is large and
    # 1 - sigm(x) is the tiny, well-conditioned quantity; otherwise x is
    # small and sigm(x) itself is well conditioned.
    p = float(sigm(kind, a))
    if p < 0.5:

        def f(u: float) -> float:
            return p - float(sigm_complement(kind, math.exp(u)))

    else:
        target = float(sigm_complement(kind, a))

        def f(u: float) -> float:
            return float(sigm(kind, math.exp(u))) - target

    lo, hi = math.log(1e-300), math.log(1e300)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return sign * math.exp(lo)
    if fhi == 0.0:
        return sign * math.exp(hi)
    if flo > 0.0 or fhi < 0.0:
        raise OracleError(
            f"cannot bracket correction of {kind.value} at v={v!r}"
        )
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if fm < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return sign * math.exp(0.5 * (lo + hi))


def true_correction(kind: TransferKind, v: float) -> float | None:
    """``correct_oracle(kind, v)``, or None where the answer lies below the
    oracle's bracket.

    The oracle brackets magnitudes from CORRECTION_FLOOR up, so it may fail
    only where ``1 - sigm(v)`` is below ``sigm(CORRECTION_FLOOR)``; a
    failure anywhere else re-raises :class:`OracleError`.
    """
    try:
        return correct_oracle(kind, v)
    except OracleError:
        if sigm_complement(kind, v) < sigm(kind, CORRECTION_FLOOR):
            return None
        raise


def clamp_bound(kind: TransferKind, v: float) -> float | None:
    """The bound that ``correct(kind, v)`` is clamped to, or None in range.

    In range means the true correction, taken from the oracle and never
    from the closed form under test, has magnitude in
    [CORRECTION_FLOOR, CORRECTION_CLAMP]; only there can ``correct`` invert
    itself.
    """
    want = true_correction(kind, v)
    if want is None or abs(want) < CORRECTION_FLOOR:
        return CORRECTION_FLOOR
    if abs(want) > CORRECTION_CLAMP:
        return CORRECTION_CLAMP
    return None


def sigm_vt2_where(v) -> np.ndarray:
    """VT2 ``sigm`` computed on the whole array in both branches and
    selected with ``np.where``: the reference for the by-index kernel."""
    a = np.abs(np.asarray(v, dtype=np.float64))
    lo = np.minimum(a, 1.0)
    hi = np.maximum(a, 1.0)
    p = np.where(a <= 1.0, lo * lo / (1.0 + lo * lo), 1.0 / (1.0 + hi**-2.0))
    return np.minimum(p, np.nextafter(1.0, 0.0))


def load_config(name: str) -> ExperimentSpec:
    """The spec of ``configs/<name>``, the protocol its table runs."""
    return parse_config(os.path.join(CONFIGS_DIR, name))


def dp_full_oracle(instance: KnapsackInstance) -> tuple[int, np.ndarray]:
    """Exact optimum and selection from the full DP table: every item
    updates every capacity from its weight up in an int64 row, and its
    choice bits over all capacities are kept. The reference for the
    banded ``dp_optimal``."""
    n, c = instance.n, instance.capacity
    if n == 0 or c == 0:
        return 0, np.zeros(n, dtype=np.uint8)
    dp = np.zeros(c + 1, dtype=np.int64)
    cand = np.empty(c + 1, dtype=np.int64)
    take = np.zeros((n, (c + 1 + 7) // 8), dtype=np.uint8)
    chose = np.zeros(c + 1, dtype=bool)
    for i in range(n):
        w = int(instance.weights[i])
        p = int(instance.profits[i])
        if w > c:
            continue
        np.add(dp[:-w], p, out=cand[w:])
        chose[:w] = False
        np.greater(cand[w:], dp[w:], out=chose[w:])
        np.maximum(dp[w:], cand[w:], out=dp[w:])
        take[i] = np.packbits(chose, bitorder="little")
    selection = np.zeros(n, dtype=np.uint8)
    cc = c
    for i in range(n - 1, -1, -1):
        if take[i, cc >> 3] >> (cc & 7) & 1:
            selection[i] = 1
            cc -= int(instance.weights[i])
    return int(dp[c]), selection


def brute_force_optimal(instance: KnapsackInstance) -> int:
    """Exhaustive maximum over all 2^n subsets; the oracle of criterion 4."""
    n = instance.n
    if n > 24:
        raise ValueError(f"brute force refused for n={n} > 24")
    wsum = np.zeros(1, dtype=np.int64)
    psum = np.zeros(1, dtype=np.int64)
    for w, p in zip(instance.weights, instance.profits):
        wsum = np.concatenate([wsum, wsum + w])
        psum = np.concatenate([psum, psum + p])
    feasible = wsum <= instance.capacity
    return int(psum[feasible].max()) if feasible.any() else 0


class FunctionObjective:
    """Wraps a plain bits -> fitness function as an engine Objective,
    one call per row."""

    def __init__(self, fn, dimensions: int):
        self._fn = fn
        self.dimensions = dimensions

    def evaluate_swarm(self, positions):
        fitness = np.array([self._fn(row) for row in positions], dtype=np.float64)
        return fitness, positions.copy()


def evaluate(instance: KnapsackInstance, selection) -> int:
    """Profit of one selection, repaired first if infeasible."""
    fixed = repair(instance, selection)
    return int(instance.profits[fixed.astype(bool)].sum())


def repair_oracle(instance: KnapsackInstance, selection) -> np.ndarray:
    """One selection made feasible the slow way: drop the selected items in
    the instance's drop order up to the first whose weight cumsum reaches
    the excess (``searchsorted(..., "left") + 1`` of them)."""
    sel = np.asarray(selection).astype(bool)
    if sel.shape != (instance.n,):
        raise ValueError(
            f"selection length {sel.size} != item count {instance.n}"
        )
    total = int(instance.weights[sel].sum())
    if total <= instance.capacity:
        return sel.astype(np.uint8)
    order = instance._drop_order
    drops = order[sel[order]]
    cum = np.cumsum(instance.weights[drops])
    k = int(np.searchsorted(cum, total - instance.capacity, side="left")) + 1
    out = sel.copy()
    out[drops[:k]] = False
    return out.astype(np.uint8)


def unpack_bits(words, dimensions: int) -> np.ndarray:
    """Inverse of ``trace.pack_bits``."""
    w = np.ascontiguousarray(words, dtype="<u8")
    as_bytes = w.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :dimensions]


def pool_trace(records: int, swarm_size: int, dimensions: int,
               pool: int = 300, seed: int = 0) -> RunTrace:
    """A random trace whose particles each pick every record's position
    from their own ``pool`` random positions, so that the distinct
    positions (and the work of ``dist_eff_matrix``) do not grow with the
    records; gbest values are random too."""
    rng = np.random.Generator(np.random.PCG64(seed))
    words = (dimensions + 63) // 64
    positions = rng.integers(0, 2**64, size=(swarm_size, pool, words),
                             dtype=np.uint64)
    positions[..., -1] >>= np.uint64(64 * words - dimensions)
    picks = positions[np.arange(swarm_size),
                      rng.integers(0, pool, size=(records, swarm_size))]
    return RunTrace(dimensions, rng.random(records) * 1e4, picks)


def traced(fn, *args, **kwargs):
    """Call ``fn`` under tracemalloc: (its result, the bytes still traced
    once it returns, the traced peak)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def position_bits(trace: RunTrace, k: int,
                  particle: int | None = None) -> np.ndarray:
    """Unpacked 0/1 positions at record k, one particle or the full swarm."""
    rows = trace.positions[k] if particle is None else trace.positions[k, particle]
    return unpack_bits(rows, trace.dimensions)


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
    """Hamming distance between the particle's positions at k-1 and k; the
    scalar reference for ``metrics.dist_matrix``."""
    _check_k(trace, k)
    x = trace.positions[k, particle] ^ trace.positions[k - 1, particle]
    return int(np.bitwise_count(x).sum())


def dist_eff_iteration(trace: RunTrace, particle: int, k: int) -> int:
    """Minimum Hamming distance from the position at k to every earlier
    recorded position of the same particle (history from record 0); the
    scalar reference for ``metrics.dist_eff_matrix``."""
    _check_k(trace, k)
    x = trace.positions[:k, particle] ^ trace.positions[k, particle]
    return int(np.bitwise_count(x).sum(axis=-1).min())


def pujv(trace: RunTrace, m: int, n: int) -> int:
    """Total useless jump volume of a trace over iterations m..n inclusive,
    summed over the rows of its ``dist`` and ``dist_eff`` matrices; the
    reference for the cumulative curve that ``vcbpso metrics`` reads."""
    if not 1 <= m <= n <= trace.iterations:
        raise ValueError(f"bad iteration range [{m}, {n}]")
    d, e = dist_matrix(trace), dist_eff_matrix(trace)
    return int(d[m - 1:n].sum() - e[m - 1:n].sum())


@pytest.fixture(scope="session")
def grid() -> np.ndarray:
    return velocity_grid()


@pytest.fixture
def three_items() -> KnapsackInstance:
    """Items (w,p) = (2,3), (3,4), (4,5) with capacity 5; optimum is 7."""
    return KnapsackInstance(np.array([2, 3, 4]), np.array([3, 4, 5]), 5)
