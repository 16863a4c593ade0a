"""Binary PSO iteration loop with optional velocity-legacy correction.

One iteration updates every velocity from its inertia-weighted legacy term
plus cognitive and social pulls, optionally clamps it, decides each bit
flip by comparing a fresh uniform draw against the transfer probability,
and - in correction mode - immediately rewrites the stored velocity of
every flipped bit so that it stays expressed relative to the current bit
value. Personal and global bests update on strict improvement only.

Random stream contract (pinned for reproducibility): one PCG64 generator
per run, seeded with ``RunConfig.seed``. Draw order per run: the initial
position coin flips as one (m, d) block, then per iteration the r1 block,
the r2 block, and the jump block, each (m, d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .errors import ConfigError
from .trace import RunTrace, TraceBuilder
from .transfer import CORRECTION_CLAMP, TransferKind, correct, sigm


@dataclass(frozen=True)
class WSchedule:
    """Inertia weight ramp, linear from ``start`` at iteration 0 to ``end``
    at the final iteration. Constant when start == end."""

    start: float
    end: float

    def __post_init__(self):
        if not (self.start > 0 and self.end > 0):
            raise ConfigError("w schedule endpoints must be positive")

    @classmethod
    def parse(cls, text: str) -> "WSchedule":
        """Accepts "a" (constant) or "a-b" (ramp) notation."""
        parts = text.strip().split("-")
        try:
            if len(parts) == 1:
                w = float(parts[0])
                return cls(w, w)
            if len(parts) == 2:
                return cls(float(parts[0]), float(parts[1]))
        except ValueError:
            pass
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
    with the correction, a positive vmax without it, c1, c2 >= 0,
    swarm_size >= 1, max_iterations >= 0 and a w ramp that fits the run.
    :class:`RunConfig` and ``harness.ExperimentSpec`` both check this."""
    if correction_enabled:
        if vmax is not None:
            raise ConfigError("correction mode runs without a vmax clamp")
    elif vmax is None or not vmax > 0:
        raise ConfigError("uncorrected mode needs a positive vmax")
    if c1 < 0 or c2 < 0:
        raise ConfigError("c1 and c2 must be >= 0")
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

    ``evaluate_swarm`` takes an (m, d) 0/1 position matrix and returns the
    fitness vector plus the positions to record as bests (identical to the
    input unless the objective repairs infeasible selections).
    """

    dimensions: int

    def evaluate_swarm(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


class FunctionObjective:
    """Wraps a plain bits -> fitness function as an Objective."""

    def __init__(self, fn, dimensions: int):
        self._fn = fn
        self.dimensions = dimensions

    def evaluate_swarm(self, positions):
        fitness = np.array([self._fn(row) for row in positions], dtype=np.float64)
        return fitness, positions.copy()


@dataclass
class SwarmState:
    positions: np.ndarray        # (m, d) uint8
    velocities: np.ndarray       # (m, d) float64
    pbest_positions: np.ndarray  # (m, d) uint8
    pbest_fitness: np.ndarray    # (m,) float64
    gbest_position: np.ndarray   # (d,) uint8
    gbest_fitness: float
    iteration: int = 0


def init_swarm(config: RunConfig, objective: Objective,
               rng: np.random.Generator) -> SwarmState:
    """Fair-coin positions, zero velocities, bests from the first evaluation."""
    m, d = config.swarm_size, config.dimensions
    positions = (rng.random((m, d)) < 0.5).astype(np.uint8)
    fitness, stored = objective.evaluate_swarm(positions)
    best = int(np.argmax(fitness))
    return SwarmState(
        positions=positions,
        velocities=np.zeros((m, d)),
        pbest_positions=stored.astype(np.uint8),
        pbest_fitness=fitness.astype(np.float64),
        gbest_position=stored[best].astype(np.uint8).copy(),
        gbest_fitness=float(fitness[best]),
    )


def step_swarm(state: SwarmState, config: RunConfig, objective: Objective,
               rng: np.random.Generator) -> tuple[SwarmState, np.ndarray]:
    """Advance the swarm one iteration in place.

    Returns the state and the per-particle flip counts of the iteration.
    """
    m, d = state.positions.shape
    w = w_at(config.w, state.iteration, config.max_iterations)
    x = state.positions
    v = state.velocities
    # v = ((w*v) + (c1*r1)*(pbest - x)) + (c2*r2)*(gbest - x), in place
    # with one float and one int8 scratch block; the draw order is r1, r2,
    # jump. The bit differences -1/0/1 are exact in int8.
    draw = np.empty((m, d))
    pull = np.empty((m, d), dtype=np.int8)
    v *= w
    for c, best in ((config.c1, state.pbest_positions),
                    (config.c2, state.gbest_position)):
        rng.random(out=draw)
        draw *= c
        np.subtract(best, x, out=pull, dtype=np.int8)
        draw *= pull
        v += draw
    if config.vmax is not None:
        np.clip(v, -config.vmax, config.vmax, out=v)
    else:
        # overflow safeguard; sigm saturates far below this magnitude
        np.clip(v, -CORRECTION_CLAMP, CORRECTION_CLAMP, out=v)
    rng.random(out=draw)
    flips = draw < sigm(config.kind, v)
    x ^= flips
    if config.correction_enabled and flips.any():
        v[flips] = correct(config.kind, v[flips])

    fitness, stored = objective.evaluate_swarm(x)
    improved = fitness > state.pbest_fitness
    state.pbest_positions[improved] = stored[improved]
    state.pbest_fitness[improved] = fitness[improved]
    best = int(np.argmax(state.pbest_fitness))
    if state.pbest_fitness[best] > state.gbest_fitness:
        state.gbest_fitness = float(state.pbest_fitness[best])
        state.gbest_position = state.pbest_positions[best].copy()
    state.iteration += 1
    return state, flips.sum(axis=1)


def run(config: RunConfig, objective: Objective) -> RunTrace:
    """Full run: init, ``max_iterations`` steps, per-iteration trace."""
    if objective.dimensions != config.dimensions:
        raise ConfigError(
            f"objective dimension {objective.dimensions} != "
            f"config dimension {config.dimensions}"
        )
    rng = np.random.Generator(np.random.PCG64(config.seed))
    state = init_swarm(config, objective, rng)
    builder = TraceBuilder(config.dimensions)
    builder.record(state.gbest_fitness,
                   np.zeros(config.swarm_size, dtype=np.int64),
                   state.positions)
    for _ in range(config.max_iterations):
        state, flips = step_swarm(state, config, objective, rng)
        builder.record(state.gbest_fitness, flips, state.positions)
    return builder.build()
