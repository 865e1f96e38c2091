"""Trivial baselines: random search, fixed configurations.

Random search is the canonical no-model comparator; the fixed-configuration
strategies ("default", "expert") anchor the speedup table (T3) the way the
tuning papers report it — how much faster is tuned training than what a
practitioner would run without a tuner.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace, from_training_config
from repro.core.strategy import SearchStrategy
from repro.core.trial import TrialHistory
from repro.mlsim import DEFAULT_CONFIG, expert_config


class RandomSearch(SearchStrategy):
    """Uniform sampling from the valid configuration space."""

    name = "random"

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> ConfigDict:
        return space.sample(rng)


class FixedConfig(SearchStrategy):
    """Probes one fixed configuration and stops.

    The base for the "default" and "expert" rows of the speedup table:
    zero search cost, whatever performance the fixed choice delivers.
    """

    def __init__(self, config: ConfigDict, name: str = "fixed") -> None:
        self.config = dict(config)
        self.name = name

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> ConfigDict:
        return dict(self.config)

    def finished(self, history: TrialHistory, space: ConfigSpace) -> bool:
        return len(history) >= 1


def default_strategy() -> FixedConfig:
    """The framework's out-of-the-box configuration."""
    return FixedConfig(from_training_config(DEFAULT_CONFIG), name="default")


def expert_strategy(total_nodes: int, compute_comm_ratio: float) -> FixedConfig:
    """The rule-of-thumb configuration an experienced engineer would pick."""
    config = expert_config(total_nodes, compute_comm_ratio)
    return FixedConfig(from_training_config(config), name="expert")
