"""Comparator tuners: the baselines the evaluation runs head-to-head."""

from repro.baselines.cherrypick import CherryPick
from repro.baselines.grid import GridSearch
from repro.baselines.hyperband import SuccessiveHalving
from repro.baselines.local import CoordinateDescent, HillClimbing, SimulatedAnnealing
from repro.baselines.ottertune import OtterTuneStyle
from repro.baselines.tpe import TPE
from repro.baselines.simple import (
    FixedConfig,
    RandomSearch,
    default_strategy,
    expert_strategy,
)

__all__ = [
    "CherryPick",
    "CoordinateDescent",
    "FixedConfig",
    "GridSearch",
    "HillClimbing",
    "OtterTuneStyle",
    "RandomSearch",
    "SimulatedAnnealing",
    "SuccessiveHalving",
    "TPE",
    "default_strategy",
    "expert_strategy",
]
