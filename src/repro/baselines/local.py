"""Local-search baselines: hill climbing, simulated annealing, coordinate descent.

These represent the "clever manual tuning" family: start somewhere sensible
and iterate one knob at a time.  They find good configurations on smooth
surfaces but get trapped by the discrete cliffs (architecture switches,
colocation flips) that the BO tuner steps over.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace, from_training_config
from repro.core.strategy import SearchStrategy
from repro.core.trial import TrialHistory
from repro.mlsim import DEFAULT_CONFIG

#: Rejected or failed moves in a row before hill climbing restarts.
PATIENCE = 6
#: Simulated annealing's starting temperature, relative to the incumbent's
#: magnitude.
INITIAL_TEMP = 0.3
#: Simulated annealing's geometric cooling factor per observed trial.
COOLING = 0.92
#: Grid points per knob in a coordinate-descent sweep.
COORDINATE_RESOLUTION = 4


class HillClimbing(SearchStrategy):
    """Random-restart stochastic hill climbing over single-knob moves.

    It restarts after :data:`PATIENCE` moves in a row fail to improve.
    """

    name = "hill-climbing"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._current: Optional[ConfigDict] = None
        self._current_objective: Optional[float] = None
        self._stale = 0

    def reset(self) -> None:
        self._current = None
        self._current_objective = None
        self._stale = 0

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> ConfigDict:
        if self._current is None or self._stale >= PATIENCE:
            self._current = space.sample(rng)
            self._current_objective = None
            self._stale = 0
            return dict(self._current)
        moves = space.neighbors(self._current, rng)
        if not moves:
            self._stale = PATIENCE  # force a restart next round
            return dict(self._current)
        return moves[int(rng.integers(len(moves)))]

    def observe(self, trial) -> None:
        if not trial.ok:
            self._stale += 1
            return
        if self._current_objective is None or trial.objective > self._current_objective:
            self._current = dict(trial.config)
            self._current_objective = trial.objective
            self._stale = 0
        else:
            self._stale += 1


class SimulatedAnnealing(SearchStrategy):
    """Metropolis acceptance over single-knob moves with geometric cooling.

    Temperature is relative to the incumbent's magnitude so the schedule is
    scale-free across objectives (samples/s vs negated seconds).  It starts
    at :data:`INITIAL_TEMP` and is multiplied by :data:`COOLING` per
    observed trial.
    """

    name = "annealing"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._current: Optional[ConfigDict] = None
        self._current_objective: Optional[float] = None
        self._temp = INITIAL_TEMP

    def reset(self) -> None:
        self._current = None
        self._current_objective = None
        self._temp = INITIAL_TEMP

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> ConfigDict:
        if self._current is None:
            self._current = space.sample(rng)
            return dict(self._current)
        moves = space.neighbors(self._current, rng)
        if not moves:
            self._current = space.sample(rng)
            return dict(self._current)
        return moves[int(rng.integers(len(moves)))]

    def observe(self, trial) -> None:
        self._temp *= COOLING
        if not trial.ok:
            return
        if self._current_objective is None:
            self._current = dict(trial.config)
            self._current_objective = trial.objective
            return
        delta = trial.objective - self._current_objective
        scale = abs(self._current_objective) + 1e-12
        accept = delta >= 0
        if not accept:
            probability = math.exp(delta / (scale * self._temp))
            accept = np.random.default_rng(
                self.seed + trial.index
            ).random() < probability
        if accept:
            self._current = dict(trial.config)
            self._current_objective = trial.objective


class CoordinateDescent(SearchStrategy):
    """Cycle through knobs, sweeping each knob's grid while others are fixed.

    Starts from the framework default — how practitioners actually tune by
    hand ("try a few PS counts, then a few batch sizes, …").  Each knob's
    grid has :data:`COORDINATE_RESOLUTION` points.
    """

    name = "coordinate"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._base: Optional[ConfigDict] = None
        self._base_objective: Optional[float] = None
        self._queue: List[ConfigDict] = []
        self._param_index = 0

    def reset(self) -> None:
        self._base = None
        self._base_objective = None
        self._queue = []
        self._param_index = 0

    def _refill(self, space: ConfigSpace) -> None:
        param = space.parameters[self._param_index % len(space.parameters)]
        self._param_index += 1
        for value in param.grid(COORDINATE_RESOLUTION):
            if value == self._base.get(param.name):
                continue
            candidate = dict(self._base)
            candidate[param.name] = value
            if space.is_valid(candidate):
                self._queue.append(candidate)

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> ConfigDict:
        if self._base is None:
            self._base = from_training_config(DEFAULT_CONFIG)
            if not space.is_valid(self._base):
                self._base = space.sample(rng)
            return dict(self._base)
        attempts = 0
        while not self._queue and attempts < 2 * len(space.parameters):
            self._refill(space)
            attempts += 1
        if not self._queue:
            return space.sample(rng)
        return self._queue.pop(0)

    def observe(self, trial) -> None:
        if not trial.ok:
            return
        if self._base_objective is None or trial.objective > self._base_objective:
            self._base = dict(trial.config)
            self._base_objective = trial.objective
