"""0/1 knapsack instances, the exact DP solver and fitness evaluation.

Instance families follow the usual correlated-generation scheme: weights
uniform integers on [1, R]; profits uniform (UCI), weight plus a uniform
offset of magnitude R/10 clamped to >= 1 (WCI), or exactly weight + R/10
(SCI). Capacity is floor(S * sum(weights)).

Infeasible selections are repaired at evaluation time by dropping selected
items in increasing profit-density order until the weight fits; the
particle's own bits are never mutated.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParseError, check_memory
from .trace import open_text, read_lines

INSTANCE_TYPES = ("UCI", "WCI", "SCI", "EXTERNAL")

# Fitness sums are float64 products, exact for integer totals below this.
FLOAT_EXACT_LIMIT = 2**53

# Bytes an item that :func:`generate` allocates at its peak, and that a
# KnapsackInstance keeps: five int64 arrays and the (2, n) float64 sums
# (tracemalloc, WCI, n = 10**5 and 10**6).
GENERATE_BYTES = 80
INSTANCE_BYTES = 56

# Bytes per particle bit of a KnapsackObjective's scratch, the float64
# copy of the positions and the stored selections; held from its first
# evaluate_swarm on, for as long as the objective lives.
EVALUATE_BYTES = 9


@dataclass(frozen=True, eq=False)  # by identity: arrays have no plain ==
class KnapsackInstance:
    weights: np.ndarray
    profits: np.ndarray
    capacity: int
    instance_type: str = "EXTERNAL"
    # items sorted by increasing profit/weight ratio, ties by index;
    # this is the order in which repair drops items
    _drop_order: np.ndarray = field(init=False, repr=False)
    # the weights in drop order, and each item's position in that order
    _drop_weights: np.ndarray = field(init=False, repr=False)
    _drop_rank: np.ndarray = field(init=False, repr=False)
    # (2, n) float64 rows [weights, profits] for the fitness product
    _sums_matrix: np.ndarray = field(init=False, repr=False)

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
    if not 10 <= r < FLOAT_EXACT_LIMIT:
        raise ConfigError(f"R must be in [10, 2**53), got {r}")
    if not 0.0 < s < 1.0:
        raise ConfigError("S must be in (0, 1)")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
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
    # a Python sum, as an int64 one wraps once n * R reaches 2**63
    capacity = math.floor(s * sum(weights.tolist()))
    return KnapsackInstance(weights, profits, capacity, instance_type)


def dp_optimal(instance: KnapsackInstance, *,
               selection: bool = False) -> tuple[int, np.ndarray | None]:
    """Exact optimum by dynamic programming over capacity.

    Returns (profit, selection). By default only the value row is swept,
    and the selection returned is None. With ``selection`` true the
    bands' packed choice bits are kept for backtracking too, and the
    selection is a 0/1 vector that is feasible and achieves the profit.

    Item i (of those that fit, weight w_i) updates only the capacities in
    its band [lo_i, hi_i). With S_i the weight of the fitting items after
    i, lo_i = max(w_i, c - S_i): backtracking from c never goes below
    c - S_i at item i. With P_i the weight of the fitting items up to and
    including i, hi_i = min(P_i, c + 1): from P_i up all of them fit, the
    choice is "take" and the value is their profit sum. Every capacity
    from the total fitting weight up has the same value, so the row ends
    there, and only the bands' bits are stored. The value row is int32
    when the fitting profits sum below 2**31, int64 otherwise. Selection
    and profit are those of the full table, bit for bit.
    """
    plan, terms = _plan(instance, selection)
    n, c = instance.n, instance.capacity
    check_memory(f"the DP (n={n}, capacity={c})", terms)
    if plan is None:
        return 0, np.zeros(n, dtype=np.uint8) if selection else None
    fit, w, p, lo, hi, cap, longest, off, value = plan
    dp = np.empty(cap + 1, dtype=value)
    cand = np.empty(longest, dtype=value)
    if selection:
        chose = np.empty(longest, dtype=bool)
        bits = np.empty(int(off[-1]), dtype=np.uint8)
    # dp[:top] is written; every capacity from top up holds all items so
    # far, worth their profit sum `total`, written once a band reaches it
    top = total = 0
    for i in range(fit.size):
        wi, a, b = int(w[i]), int(lo[i]), int(hi[i])
        dp[top:b] = total
        top, total = b, total + int(p[i])
        if a < b:
            k = b - a
            np.add(dp[a - wi:b - wi], int(p[i]), out=cand[:k])
            if selection:
                np.greater(cand[:k], dp[a:b], out=chose[:k])
                bits[int(off[i]):int(off[i + 1])] = np.packbits(
                    chose[:k], bitorder="little")
            np.maximum(dp[a:b], cand[:k], out=dp[a:b])
    dp[top:] = total
    if not selection:
        return int(dp[cap]), None
    chosen = np.zeros(n, dtype=np.uint8)
    cc = cap
    for i in range(fit.size - 1, -1, -1):
        a, b = int(lo[i]), int(hi[i])
        if cc >= b:
            take = True
        elif cc < a:
            take = False
        else:
            k = cc - a
            take = bits[int(off[i]) + (k >> 3)] >> (k & 7) & 1
        if take:
            chosen[fit[i]] = 1
            cc -= int(w[i])
    return int(dp[cap]), chosen


def dp_need(instance: KnapsackInstance, *, selection: bool = False) -> int:
    """The bytes :func:`dp_optimal` allocates for ``instance``."""
    return sum(_plan(instance, selection)[1].values())


def _plan(instance: KnapsackInstance, selection: bool):
    """The bands of :func:`dp_optimal` and the bytes it allocates.

    Returns ((fit, w, p, lo, hi, cap, longest, off, value), terms), or
    (None, terms) when no item fits. ``cap`` is the last capacity of the
    value row. ``off`` (item i's packed bits are bits[off[i]:off[i + 1]])
    is None without the selection.
    """
    n, c = instance.n, instance.capacity
    fit = np.flatnonzero(instance.weights <= c)
    if fit.size == 0:
        return None, {"selection": n} if selection else {}
    w = instance.weights[fit]
    p = instance.profits[fit]
    upto = np.cumsum(w)
    # capacities from the total fitting weight up give the same value and
    # (empty) bands, and this keeps capacities beyond int64 out of the
    # arithmetic
    cap = min(c, int(upto[-1]))
    lo = np.maximum(w, cap - (upto[-1] - upto))
    hi = np.minimum(upto, cap + 1)
    del upto
    band = np.maximum(hi - lo, 0)
    longest = int(band.max())
    value = np.int32 if int(p.sum()) < 2**31 else np.int64
    size = np.dtype(value).itemsize
    # the value row, the candidate row of the longest band and the five
    # per-item arrays (fit, w, p, lo, hi) already allocated
    terms = {"value rows": size * (cap + 1 + longest),
             "item arrays": 5 * 8 * fit.size}
    off = None
    if selection:
        off = np.zeros(fit.size + 1, dtype=np.int64)
        np.cumsum((band + 7) // 8, out=off[1:])
        # off; the choice row of the longest band, the packed bands and
        # one packed band, and the selection
        terms["item arrays"] += 8 * fit.size
        terms["choices"] = longest + int(off[-1]) + (longest + 7) // 8 + n
    return (fit, w, p, lo, hi, cap, longest, off, value), terms


def repair(instance: KnapsackInstance, selection, *, excess=None,
           work=None) -> np.ndarray:
    """Feasible copy of ``selection``, one (n,) selection or a (k, n) batch.

    In each row, drops selected items in increasing profit/weight order
    (ties: lower index first) until the total weight fits the capacity.
    Identity on feasible rows. A caller that has already summed the
    weights passes ``excess``, each row's total weight minus the
    capacity, and saves that product. A C-contiguous int64 ``work``
    array of at least the selection's size takes the weight sums.
    """
    sel = np.asarray(selection).astype(bool)
    if sel.ndim not in (1, 2) or sel.shape[-1] != instance.n:
        raise ValueError(f"selection shape {sel.shape} does not end in "
                         f"item count {instance.n}")
    # a view of sel either way, so the writes below land in sel
    rows = sel if sel.ndim == 2 else sel[np.newaxis]
    if excess is None:
        excess = rows @ instance.weights - instance.capacity
    elif np.shape(excess) != sel.shape[:-1]:
        raise ValueError(f"excess shape {np.shape(excess)} does not match "
                         f"selection shape {sel.shape}")
    excess = np.reshape(excess, len(rows))
    over = np.flatnonzero(excess > 0)
    if over.size:
        # work in drop order, items along axis 0 and the rows to repair
        # along axis 1, so that the running sums add whole lines of rows;
        # then put whole rows back in item order (take is about twice as
        # fast as the same fancy index here)
        taken = rows.take(over, axis=0).T.take(instance._drop_order, axis=0)
        # the weight of the items taken up to and including each item,
        # summed in place (in the first elements of ``work``, if given)
        out = None
        if work is not None:
            out = work.reshape(-1)[:taken.size].reshape(taken.shape)
        cum = np.multiply(taken, instance._drop_weights[:, np.newaxis],
                          out=out)
        np.cumsum(cum, axis=0, out=cum)
        # the items before and at the first index whose cumsum reaches the
        # excess are those whose cumsum before them is still short of it:
        # shift the comparison one item on, the first item's sum before it
        # is 0
        keep = np.greater_equal(cum, excess[over])
        del cum
        keep[1:] = keep[:-1]
        keep[0] = False
        keep &= taken
        rows[over] = keep.take(instance._drop_rank, axis=0).T
    return sel.view(np.uint8)  # sel is a copy, so the view is the caller's


class KnapsackObjective:
    """Swarm-facing fitness contract for one instance.

    ``evaluate_swarm`` returns, per particle, the (repaired) profit and the
    repaired selection to be recorded as pbest/gbest; the caller's position
    bits are left untouched. The selections and the float64 copy of the
    positions live in scratch arrays that each call of the same shape
    reuses, so the selections hold until the next call.
    """

    def __init__(self, instance: KnapsackInstance):
        self.instance = instance
        self.dimensions = instance.n
        self._scratch = None  # (float64 positions, stored selections)

    def evaluate_swarm(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        inst = self.instance
        pos = np.asarray(positions, dtype=np.uint8)
        if self._scratch is None or self._scratch[1].shape != pos.shape:
            self._scratch = np.empty(pos.shape), np.empty_like(pos)
        as_float, stored = self._scratch
        np.copyto(as_float, pos)
        np.copyto(stored, pos)
        # weight and profit sums of every row in one BLAS product; exact,
        # since the instance keeps both totals below FLOAT_EXACT_LIMIT.
        # Compared as int64, as the capacity may exceed the float range.
        weight, fitness = (inst._sums_matrix @ as_float.T).astype(np.int64)
        over = np.flatnonzero(weight > inst.capacity)
        if over.size:
            # the float copy is spent: repair sums weights in its bytes
            fixed = repair(inst, pos[over],
                           excess=weight[over] - inst.capacity,
                           work=as_float.view(np.int64))
            stored[over] = fixed
            fitness[over] = fixed @ inst.profits
        return fitness, stored


def save_instance(instance: KnapsackInstance, path) -> None:
    """Write the line-oriented instance format through ``trace.open_text``.

    Line 1: ``n capacity instance_type``; then one ``weight profit`` pair
    per line.
    """
    lines = [f"{instance.n} {instance.capacity} {instance.instance_type}"]
    lines += [f"{w} {p}" for w, p in zip(instance.weights, instance.profits)]
    with open_text(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def integer(text: str) -> int:
    """A plain decimal integer, as instance and config files spell them:
    ``int`` also reads ``+3``, ``1_0`` and non-ASCII digits."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not a plain decimal integer: {text!r}")
    return int(text)


def real(text: str) -> float:
    """A plain decimal number, perhaps with a fraction and an exponent
    ("2", "-0.5", "1e-3"), as config files spell them: ``float`` also
    reads ``+2``, ``1_0.5``, ``inf`` and non-ASCII digits."""
    if not re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?",
                        text):
        raise ValueError(f"not a plain decimal number: {text!r}")
    return float(text)


def load_instance(path) -> KnapsackInstance:
    lines = [ln for ln in read_lines(path) if ln.strip()]
    if not lines:
        raise ParseError(f"{path}: empty instance file")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"{path}:1: expected 'n capacity instance_type'")
    try:
        n, capacity = integer(head[0]), integer(head[1])
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
            weights[i], profits[i] = integer(parts[0]), integer(parts[1])
        except (ValueError, OverflowError) as exc:  # beyond int64
            raise ParseError(f"{path}:{i + 2}: {exc}") from None
    try:
        return KnapsackInstance(weights, profits, capacity, head[2])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None

