"""0/1 knapsack instances, exact solvers and fitness evaluation.

Instance families follow the usual correlated-generation scheme: weights
uniform integers on [1, R]; profits uniform (UCI), weight plus a uniform
offset of magnitude R/10 clamped to >= 1 (WCI), or exactly weight + R/10
(SCI). Capacity is floor(S * sum(weights)).

Infeasible selections are repaired at evaluation time by dropping selected
items in increasing profit-density order until the weight fits; the
particle's own bits are never mutated.
"""

from __future__ import annotations

import gzip
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError, ResourceError

INSTANCE_TYPES = ("UCI", "WCI", "SCI", "EXTERNAL")

# Refuse DP tables beyond this many bytes for the packed choice matrix.
DP_MEMORY_LIMIT = 2 << 30

# Fitness sums are float64 products, exact for integer totals below this.
FLOAT_EXACT_LIMIT = 2**53


@dataclass(frozen=True)
class KnapsackInstance:
    weights: np.ndarray
    profits: np.ndarray
    capacity: int
    instance_type: str = "EXTERNAL"
    generation_seed: int | None = None
    # items sorted by increasing profit/weight ratio, ties by index;
    # this is the order in which repair drops items
    _drop_order: np.ndarray = field(init=False, repr=False, compare=False)
    # the weights in drop order, and each item's position in that order
    _drop_weights: np.ndarray = field(init=False, repr=False, compare=False)
    _drop_rank: np.ndarray = field(init=False, repr=False, compare=False)
    # (2, n) float64 rows [weights, profits] for the fitness product
    _sums_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.ascontiguousarray(self.weights, dtype=np.int64)
        p = np.ascontiguousarray(self.profits, dtype=np.int64)
        if w.ndim != 1 or p.shape != w.shape:
            raise ValueError("weights and profits must be equal-length vectors")
        if w.size and (w.min() < 1 or p.min() < 1):
            raise ValueError("weights and profits must all be >= 1")
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        if self.instance_type not in INSTANCE_TYPES:
            raise ValueError(f"unknown instance type: {self.instance_type!r}")
        # A float64 sum of integers >= 1 reaches the limit exactly when the
        # true sum does (2**53 is a double, rounding is monotonic), and it
        # cannot wrap around as an int64 sum can.
        for name, values in (("weights", w), ("profits", p)):
            if values.sum(dtype=np.float64) >= FLOAT_EXACT_LIMIT:
                raise ValueError(
                    f"{name} sum to 2**53 or more; fitness sums are float64 "
                    f"and exact only below 2**53")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "profits", p)
        order = np.lexsort((np.arange(w.size), p / w)) if w.size else np.empty(0, np.int64)
        object.__setattr__(self, "_drop_order", order)
        object.__setattr__(self, "_drop_weights", w[order])
        object.__setattr__(self, "_drop_rank", np.argsort(order))
        object.__setattr__(self, "_sums_matrix",
                           np.stack((w, p)).astype(np.float64))

    @property
    def n(self) -> int:
        return int(self.weights.size)


def generate(instance_type: str, n: int, r: int, s: float,
             seed: int) -> KnapsackInstance:
    """Generate a random instance of the given family, deterministically.

    Uses a PCG64 stream seeded with ``seed``; weights are drawn first,
    then (for UCI/WCI) profits, so instances of different types share
    weights for equal seeds.
    """
    instance_type = instance_type.upper()
    if instance_type not in ("UCI", "WCI", "SCI"):
        raise ConfigError(f"cannot generate instance type {instance_type!r}")
    if n < 1:
        raise ConfigError("n must be >= 1")
    if r < 10:
        raise ConfigError("R must be >= 10")
    if not 0.0 < s < 1.0:
        raise ConfigError("S must be in (0, 1)")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = rng.integers(1, r + 1, size=n, dtype=np.int64)
    if instance_type == "UCI":
        profits = rng.integers(1, r + 1, size=n, dtype=np.int64)
    elif instance_type == "WCI":
        offset = rng.integers(-(r // 10), r // 10 + 1, size=n, dtype=np.int64)
        profits = np.maximum(weights + offset, 1)
    else:  # SCI
        if r % 10 != 0:
            raise ConfigError("SCI requires R to be a multiple of 10")
        profits = weights + r // 10
    capacity = math.floor(s * int(weights.sum()))
    return KnapsackInstance(weights, profits, capacity, instance_type, seed)


def dp_optimal(instance: KnapsackInstance,
               memory_limit: int = DP_MEMORY_LIMIT) -> tuple[int, np.ndarray]:
    """Exact optimum by dynamic programming over capacity.

    Returns (profit, selection) where the selection is a 0/1 vector that is
    feasible and achieves the profit. Single value row over capacity plus a
    bit-packed item/capacity choice matrix for backtracking.
    """
    n, c = instance.n, instance.capacity
    if n == 0 or c == 0:
        return 0, np.zeros(n, dtype=np.uint8)
    row_bytes = (c + 1 + 7) // 8
    # the packed choice matrix and one packed row, plus per capacity the
    # int64 value and candidate rows and the bool choice row
    need = (n + 1) * row_bytes + 17 * (c + 1)
    if need > memory_limit:
        raise ResourceError(
            f"DP needs {need} bytes "
            f"(n={n}, capacity={c}), limit is {memory_limit}"
        )
    dp = np.zeros(c + 1, dtype=np.int64)
    cand = np.empty(c + 1, dtype=np.int64)
    take = np.zeros((n, row_bytes), dtype=np.uint8)
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
    """Exhaustive maximum over all 2^n subsets; oracle for dp_optimal."""
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


def repair(instance: KnapsackInstance, selection) -> np.ndarray:
    """Feasible copy of ``selection``, one (n,) selection or a (k, n) batch.

    In each row, drops selected items in increasing profit/weight order
    (ties: lower index first) until the total weight fits the capacity.
    Identity on feasible rows.
    """
    sel = np.asarray(selection).astype(bool)
    if sel.ndim not in (1, 2) or sel.shape[-1] != instance.n:
        raise ValueError(f"selection shape {sel.shape} does not end in "
                         f"item count {instance.n}")
    # a view of sel either way, so the writes below land in sel
    rows = sel if sel.ndim == 2 else sel[np.newaxis]
    excess = rows @ instance.weights - instance.capacity
    over = np.flatnonzero(excess > 0)
    if over.size:
        # work in drop order, then put whole rows back in item order
        # (take is about twice as fast as the same fancy index here)
        taken = rows.take(over, axis=0).take(instance._drop_order, axis=1)
        w = taken * instance._drop_weights
        cum = np.cumsum(w, axis=1)
        # the items before and at the first index whose cumsum reaches the
        # excess are those whose cumsum before them is still short of it
        keep = taken & (cum - w >= excess[over, np.newaxis])
        rows[over] = keep.take(instance._drop_rank, axis=1)
    return sel.astype(np.uint8)


def evaluate(instance: KnapsackInstance, selection) -> int:
    """Profit of the selection, repaired first if infeasible."""
    fixed = repair(instance, selection)
    return int(instance.profits[fixed.astype(bool)].sum())


class KnapsackObjective:
    """Swarm-facing fitness contract for one instance.

    ``evaluate_swarm`` returns, per particle, the (repaired) profit and the
    repaired selection to be recorded as pbest/gbest; the caller's position
    bits are left untouched.
    """

    def __init__(self, instance: KnapsackInstance):
        self.instance = instance
        self.dimensions = instance.n

    def evaluate_swarm(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inst = self.instance
        pos = np.asarray(positions, dtype=np.uint8)
        stored = pos.copy()
        # weight and profit sums of every row in one BLAS product; exact,
        # since the instance keeps both totals below FLOAT_EXACT_LIMIT.
        # Compared as int64, as the capacity may exceed the float range.
        weight, fitness = (inst._sums_matrix @ pos.astype(np.float64).T
                           ).astype(np.int64)
        over = np.flatnonzero(weight > inst.capacity)
        if over.size:
            fixed = repair(inst, pos[over])
            stored[over] = fixed
            fitness[over] = fixed @ inst.profits
        return fitness, stored


def save_instance(instance: KnapsackInstance, path) -> None:
    """Write the line-oriented instance format.

    Line 1: ``n capacity instance_type``; then one ``weight profit`` pair
    per line.
    """
    lines = [f"{instance.n} {instance.capacity} {instance.instance_type}"]
    lines += [f"{w} {p}" for w, p in zip(instance.weights, instance.profits)]
    _write_text(path, "\n".join(lines) + "\n")


def load_instance(path) -> KnapsackInstance:
    text = _read_text(path)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty instance file")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"{path}:1: expected 'n capacity instance_type'")
    try:
        n, capacity = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"{path}:1: {exc}") from None
    if len(lines) != n + 1:
        raise ParseError(f"{path}: expected {n} item lines, got {len(lines) - 1}")
    weights = np.empty(n, dtype=np.int64)
    profits = np.empty(n, dtype=np.int64)
    for i, ln in enumerate(lines[1:]):
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{i + 2}: expected 'weight profit'")
        try:
            weights[i], profits[i] = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{i + 2}: {exc}") from None
    try:
        return KnapsackInstance(weights, profits, capacity, head[2])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _write_text(path, text: str) -> None:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt") as fh:
        fh.write(text)


def _read_text(path) -> str:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as fh:
        return fh.read()
