"""V-shaped binary PSO with velocity-legacy correction, 0/1 knapsack
benchmarks, exact oracles and exploration metrics."""

from .engine import (
    RunConfig,
    SwarmState,
    WSchedule,
    run,
)
from .harness import ExperimentSpec, InstanceSource, Variant, run_experiment
from .knapsack import KnapsackInstance, KnapsackObjective
from .trace import RunTrace
from .transfer import TransferKind, correct, sigm

__all__ = [
    "ExperimentSpec",
    "InstanceSource",
    "KnapsackInstance",
    "KnapsackObjective",
    "RunConfig",
    "RunTrace",
    "SwarmState",
    "TransferKind",
    "Variant",
    "WSchedule",
    "correct",
    "run",
    "run_experiment",
    "sigm",
]

__version__ = "0.1.0"
