"""Binary PSO iteration loop with optional velocity-legacy correction.

One iteration updates every velocity from its inertia-weighted legacy term
plus cognitive and social pulls, optionally clamps it, decides each bit
flip by comparing a fresh uniform draw against the transfer probability,
and - in correction mode - immediately rewrites the stored velocity of
every flipped bit so that it stays expressed relative to the current bit
value. Personal and global bests update on strict improvement only.

Runs that share swarm size, dimensions, iterations, c1 and c2 can be
stepped in lockstep as one :class:`Block` of R runs, an (R*m, d) swarm,
which pays numpy's per-call cost once for all R: where that cost
dominates the step (d=100, m=20), a block of 4 steps 1.6-1.8x faster
than its runs one by one (``BENCH_5.json``). A step allocates no array
of the block's shape: the block owns its draws and ``sigm``'s scratch,
and the objective reuses its own, so a block faults its pages in once,
not on every step (``BENCH_12.json``: d=500 in blocks of 4). Every
operation acts on each element or row by itself, so each run's trace is
bit for bit that of the run alone; :func:`run` is the block of one run.

Random stream contract (pinned for reproducibility): one PCG64 generator
per run, seeded with ``RunConfig.seed``, also inside a block, where it
fills only its own run's rows. Draw order per run: the initial position
coin flips as one (m, d) block, then per iteration the r1 block, the r2
block, and the jump block, each (m, d).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import ConfigError
from .trace import RunTrace, TraceBuilder
from .transfer import (CORRECTION_CLAMP, TransferKind, correct, sigm,
                       sigm_scratch)


@dataclass(frozen=True)
class WSchedule:
    """Inertia weight ramp, linear from ``start`` at iteration 0 to ``end``
    at the final iteration. Constant when start == end."""

    start: float
    end: float

    def __post_init__(self):
        for w in (self.start, self.end):
            if not (w > 0 and math.isfinite(w)):
                raise ConfigError(f"w schedule endpoints must be positive "
                                  f"and finite, got w={w!r}")

    @classmethod
    def parse(cls, text: str) -> "WSchedule":
        """Accepts "a" (constant) or "a-b" (ramp) notation; a number may
        carry an exponent ("1e-3", "1.2-1e-2")."""
        # a "-" right after e/E is an exponent's sign, not the ramp's dash
        parts = re.split(r"(?<![eE])-", text.strip())
        try:
            values = [float(part) for part in parts]
        except ValueError:
            values = []
        if len(values) in (1, 2):
            return cls(values[0], values[-1])
        raise ConfigError(f"bad w schedule: {text!r}")

    def check_run_length(self, max_iterations: int) -> None:
        """A ramp runs from ``start`` at iteration 0 to ``end`` at the last
        one, so a run that reads w at all needs 2 iterations for it."""
        if self.start != self.end and max_iterations == 1:
            raise ConfigError("a w ramp needs at least 2 iterations")

    def __str__(self) -> str:
        if self.start == self.end:
            return f"{self.start:g}"
        return f"{self.start:g}-{self.end:g}"


def w_at(schedule: WSchedule, iteration: int, max_iterations: int) -> float:
    if schedule.start == schedule.end:
        return schedule.start
    schedule.check_run_length(max_iterations)
    if not 0 <= iteration < max_iterations:
        raise ValueError(f"iteration {iteration} outside run of {max_iterations}")
    frac = iteration / (max_iterations - 1)
    return schedule.start + (schedule.end - schedule.start) * frac


def check_run_settings(correction_enabled: bool, vmax: float | None,
                       w: WSchedule, c1: float, c2: float, swarm_size: int,
                       max_iterations: int) -> None:
    """Raise ConfigError unless these settings make a valid run: no vmax
    with the correction, a positive finite vmax without it, finite c1,
    c2 >= 0, a velocity update that cannot overflow float64,
    swarm_size >= 1, max_iterations >= 0 and a w ramp that fits the run.
    :class:`RunConfig` and ``harness.ExperimentSpec`` both check this."""
    if correction_enabled:
        if vmax is not None:
            raise ConfigError("correction mode runs without a vmax clamp")
    elif vmax is None or not (vmax > 0 and math.isfinite(vmax)):
        # an infinite vmax would clamp nothing
        raise ConfigError(f"uncorrected mode needs a positive vmax that "
                          f"is finite, got vmax={vmax!r}")
    for name, c in (("c1", c1), ("c2", c2)):
        if not (c >= 0 and math.isfinite(c)):
            raise ConfigError(f"c1 and c2 must be finite and >= 0, "
                              f"got {name}={c!r}")
    # |v| <= w*bound + c1 + c2 in each update, and rounding is monotonic
    bound = CORRECTION_CLAMP if correction_enabled else vmax
    if not math.isfinite(max(w.start, w.end) * bound + c1 + c2):
        raise ConfigError(f"c1={c1!r}, c2={c2!r}, w={w} and a velocity bound "
                          f"of {bound!r} can overflow the velocity update")
    if swarm_size < 1:
        raise ConfigError("swarm size must be >= 1")
    if max_iterations < 0:
        raise ConfigError("iterations must be >= 0")
    w.check_run_length(max_iterations)


@dataclass(frozen=True)
class RunConfig:
    kind: TransferKind
    correction_enabled: bool
    w: WSchedule
    vmax: float | None
    c1: float
    c2: float
    swarm_size: int
    dimensions: int
    max_iterations: int
    seed: int

    def __post_init__(self):
        check_run_settings(self.correction_enabled, self.vmax, self.w,
                           self.c1, self.c2, self.swarm_size,
                           self.max_iterations)
        if self.dimensions < 1:
            raise ConfigError("dimensions must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")


class Objective(Protocol):
    """Deterministic fitness over bit-vectors; larger is better.

    ``evaluate_swarm`` takes an (n, d) 0/1 position matrix and returns the
    fitness vector plus the positions to record as bests (identical to the
    input unless the objective repairs infeasible selections). Each row is
    evaluated on its own, so a block of several runs' swarms is evaluated
    in one call. The stored positions may live in a buffer that the
    objective's next call overwrites, so a caller copies what it keeps.
    """

    dimensions: int

    def evaluate_swarm(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


def _segments(rows: list[slice], keys: list) -> list[tuple[slice, object]]:
    """(rows, key) of each stretch of adjacent runs with equal keys."""
    out = []
    for sl, key in zip(rows, keys):
        if out and out[-1][1] == key:
            out[-1] = (slice(out[-1][0].start, sl.stop), key)
        else:
            out.append((sl, key))
    return out


# Bytes per particle bit of a block while it steps: 20 of state
# (positions, pbest, the int8 pull and the flip mask, 1 each; velocities
# and draws, 8 each), 34 of scratch (``sigm``'s |v|, probabilities and
# work array, 8 each, and mask, 1; the objective's float64 copy and
# stored positions, 9) and the step's temporaries, sized by the flipped
# bits and the repaired rows, which peak at about 19 (tracemalloc, d=100
# and 500, the first 25 iterations).
STEP_BYTES = 80


class Block:
    """R runs that share swarm size, dimensions, iterations, c1 and c2,
    stepped in lockstep as one (R*m, d) swarm; run r owns rows
    r*m:(r+1)*m of every per-particle array.

    Each run's inertia weight and velocity bound act on its (m, d) slab
    as an (R, 1, 1) column; ``sigm`` and ``correct``, one function per
    kind, act on each stretch of adjacent runs of one kind, ``sigm`` in
    the block's scratch rows of that stretch.
    """

    def __init__(self, configs):
        self.configs = tuple(configs)
        if not self.configs:
            raise ConfigError("a block needs at least one run")
        first = self.configs[0]
        shared = ("swarm_size", "dimensions", "max_iterations", "c1", "c2")
        for config in self.configs:
            for name in shared:
                if getattr(config, name) != getattr(first, name):
                    raise ConfigError(f"the runs of a block differ in {name}")
        self.runs = len(self.configs)
        m, d = first.swarm_size, first.dimensions
        self.swarm_size, self.dimensions = m, d
        self.max_iterations = first.max_iterations
        self.c1, self.c2 = first.c1, first.c2
        self.rows = [slice(r * m, (r + 1) * m) for r in range(self.runs)]
        self.starts = np.arange(0, self.runs * m, m)  # each run's first row
        # uncorrected runs clip at vmax; corrected ones at CORRECTION_CLAMP,
        # an overflow safeguard far above where sigm saturates
        self.bound = np.array([CORRECTION_CLAMP if c.vmax is None else c.vmax
                               for c in self.configs]).reshape(-1, 1, 1)
        self.neg_bound = -self.bound
        self.correct_segments = [
            (sl, kind) for sl, (kind, on) in _segments(
                self.rows, [(c.kind, c.correction_enabled)
                            for c in self.configs]) if on]
        # the step's scratch arrays: each run's w, refilled every step, the
        # draws, which each run's generator fills in its own rows, and
        # sigm's |v|, flip probabilities, work array and mask
        self.w = np.empty((self.runs, 1, 1))
        self.draw = np.empty((self.runs * m, d))
        self.pull = np.empty((self.runs * m, d), dtype=np.int8)
        self.flips = np.empty((self.runs * m, d), dtype=bool)
        self.draw_rows = [self.draw[sl] for sl in self.rows]
        scratch = sigm_scratch((self.runs * m, d))
        self.prob = scratch[1]
        self.sigm_segments = [
            (sl, kind, tuple(array[sl] for array in scratch))
            for sl, kind in _segments(self.rows,
                                      [c.kind for c in self.configs])]

    def best_rows(self, pbest_fitness: np.ndarray) -> np.ndarray:
        """Row of each run's best pbest, its first particle on a tie."""
        return self.starts + pbest_fitness.reshape(self.runs, -1).argmax(1)

    def fill(self, rngs) -> np.ndarray:
        """The next (m, d) uniform block of every run, in its rows."""
        for rng, rows in zip(rngs, self.draw_rows):
            rng.random(out=rows)
        return self.draw


@dataclass
class SwarmState:
    """The swarms of a block's R runs, m particles each."""

    positions: np.ndarray        # (R*m, d) uint8
    velocities: np.ndarray       # (R*m, d) float64
    pbest_positions: np.ndarray  # (R*m, d) uint8
    pbest_fitness: np.ndarray    # (R*m,) float64
    gbest_position: np.ndarray   # (R, d) uint8
    gbest_fitness: np.ndarray    # (R,) float64
    iteration: int = 0


def init_swarm(block: Block, objective: Objective, rngs) -> SwarmState:
    """Fair-coin positions, zero velocities, bests from the first evaluation."""
    positions = (block.fill(rngs) < 0.5).astype(np.uint8)
    fitness, stored = objective.evaluate_swarm(positions)
    pbest_positions = stored.astype(np.uint8)
    pbest_fitness = fitness.astype(np.float64)
    best = block.best_rows(pbest_fitness)
    return SwarmState(
        positions=positions,
        velocities=np.zeros(positions.shape),
        pbest_positions=pbest_positions,
        pbest_fitness=pbest_fitness,
        gbest_position=pbest_positions[best],
        gbest_fitness=pbest_fitness[best],
    )


def step_swarm(state: SwarmState, block: Block, objective: Objective,
               rngs) -> tuple[SwarmState, np.ndarray]:
    """Advance every swarm of the block one iteration in place.

    Returns the state and the per-particle flip counts of the iteration.
    """
    x = state.positions
    v = state.velocities
    draw, pull, flips = block.draw, block.pull, block.flips
    runs, m = block.runs, block.swarm_size
    v_runs = v.reshape(runs, m, -1)
    # v = ((w*v) + (c1*r1)*(pbest - x)) + (c2*r2)*(gbest - x), in place;
    # the draw order is r1, r2, jump. The bit differences -1/0/1 are
    # exact in int8.
    block.w[:, 0, 0] = [w_at(c.w, state.iteration, block.max_iterations)
                        for c in block.configs]
    v_runs *= block.w
    gbest = state.gbest_position[:, np.newaxis]
    for c, best, diff in ((block.c1, state.pbest_positions, pull),
                          (block.c2, gbest, pull.reshape(runs, m, -1))):
        block.fill(rngs)
        draw *= c
        np.subtract(best, x.reshape(diff.shape), out=diff, dtype=np.int8)
        draw *= pull
        v += draw
    np.clip(v_runs, block.neg_bound, block.bound, out=v_runs)
    for sl, kind, scratch in block.sigm_segments:
        sigm(kind, v[sl], scratch)  # into block.prob[sl]
    np.less(block.fill(rngs), block.prob, out=flips)
    x ^= flips
    for sl, kind in block.correct_segments:
        # flat indices, in the order of v[flips]; take/put cost half of
        # the boolean gather and scatter
        vs = v[sl]
        hit = np.flatnonzero(flips[sl])
        if hit.size:
            vs.put(hit, correct(kind, vs.take(hit)))

    fitness, stored = objective.evaluate_swarm(x)
    improved = fitness > state.pbest_fitness
    state.pbest_positions[improved] = stored[improved]
    state.pbest_fitness[improved] = fitness[improved]
    # only the runs whose best pbest beats their gbest move it, often none
    top = block.best_rows(state.pbest_fitness)
    better = state.pbest_fitness[top] > state.gbest_fitness
    if better.any():
        state.gbest_fitness[better] = state.pbest_fitness[top[better]]
        state.gbest_position[better] = state.pbest_positions[top[better]]
    state.iteration += 1
    return state, flips.sum(axis=1)


def run_block(configs, objective: Objective,
              keep_positions: bool = True) -> list[RunTrace]:
    """Full runs of a :class:`Block`: init, ``max_iterations`` steps and
    a per-iteration trace of each run, in the order of ``configs``.

    Each run's trace equals that of ``run(config, objective)`` bit for
    bit. With ``keep_positions`` false the traces record no positions
    (``RunTrace.positions`` is None), for callers that read only the
    gbest curve and the flip counts.
    """
    block = Block(configs)
    if objective.dimensions != block.dimensions:
        raise ConfigError(
            f"objective dimension {objective.dimensions} != "
            f"config dimension {block.dimensions}"
        )
    rngs = [np.random.Generator(np.random.PCG64(c.seed))
            for c in block.configs]
    state = init_swarm(block, objective, rngs)
    builder = TraceBuilder(block.dimensions, block.runs, block.swarm_size,
                           block.max_iterations + 1, keep_positions)
    builder.record(state.gbest_fitness,
                   np.zeros(len(state.positions), dtype=np.int64),
                   state.positions)
    for _ in range(block.max_iterations):
        state, flips = step_swarm(state, block, objective, rngs)
        builder.record(state.gbest_fitness, flips, state.positions)
    return builder.build()


def run(config: RunConfig, objective: Objective) -> RunTrace:
    """Full run: init, ``max_iterations`` steps, per-iteration trace; a
    block of one run."""
    return run_block([config], objective)[0]
