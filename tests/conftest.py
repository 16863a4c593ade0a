"""Shared fixtures and oracles: the velocity grid used by the correction
checks, a small reference knapsack instance, the full-table and
brute-force knapsack solvers, the scalar repair, the whole-array VT2
transfer and the experiment protocols of ``configs/``."""

import os

import numpy as np
import pytest

from vcbpso.errors import OracleError
from vcbpso.harness import ExperimentSpec, parse_config
from vcbpso.knapsack import KnapsackInstance
from vcbpso.transfer import (
    CORRECTION_CLAMP,
    CORRECTION_FLOOR,
    TransferKind,
    correct_oracle,
    sigm,
    sigm_complement,
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
    with open(os.path.join(CONFIGS_DIR, name)) as fh:
        return parse_config(fh.read())


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


@pytest.fixture(scope="session")
def grid() -> np.ndarray:
    return velocity_grid()


@pytest.fixture
def three_items() -> KnapsackInstance:
    """Items (w,p) = (2,3), (3,4), (4,5) with capacity 5; optimum is 7."""
    return KnapsackInstance(np.array([2, 3, 4]), np.array([3, 4, 5]), 5)
