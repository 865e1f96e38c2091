"""Composable stopping rules for tuning sessions.

A real tuning service rarely runs to a fixed trial count: it stops when
progress stalls, when the expected improvement no longer justifies probe
cost, or when a good-enough configuration is in hand.  These rules plug
into any :class:`~repro.core.strategy.SearchStrategy` via
:class:`StoppedStrategy`, which wraps a strategy and ends the session when
any rule fires — without touching the strategy's own logic.  Caps on
probe cost and session wall-clock are budget fields
(``TuningBudget.max_cost_s`` and ``max_wall_clock_s``), not rules.

Example
-------
>>> from repro.core import MLConfigTuner
>>> from repro.core.stopping import PlateauRule, StoppedStrategy
>>> tuner = StoppedStrategy(MLConfigTuner(), [PlateauRule(patience=8)])
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace
from repro.core.strategy import SearchStrategy
from repro.core.trial import TrialHistory


class StoppingRule(ABC):
    """A predicate over the tuning history."""

    @abstractmethod
    def should_stop(self, history: TrialHistory) -> bool:
        """True once the session should end."""

    def reason(self) -> str:
        """Human-readable description (for session logs)."""
        return type(self).__name__


class PlateauRule(StoppingRule):
    """Stop when the best objective has not improved for ``patience`` trials.

    ``min_relative_gain`` filters noise: an improvement below this fraction
    of the incumbent does not reset the counter.
    """

    def __init__(self, patience: int = 10, min_relative_gain: float = 0.01) -> None:
        if patience < 1:
            raise ValueError("patience must be >= 1")
        if min_relative_gain < 0:
            raise ValueError("min_relative_gain must be non-negative")
        self.patience = patience
        self.min_relative_gain = min_relative_gain

    def should_stop(self, history: TrialHistory) -> bool:
        series = history.best_so_far_series()
        if len(series) <= self.patience:
            return False
        current = series[-1]
        earlier = series[-1 - self.patience]
        if current is None:
            return False
        if earlier is None:
            return False
        threshold = abs(earlier) * self.min_relative_gain
        return (current - earlier) <= threshold

    def reason(self) -> str:
        return f"no improvement for {self.patience} trials"


class TargetRule(StoppingRule):
    """Stop once the best objective reaches an absolute target."""

    def __init__(self, target: float) -> None:
        self.target = target

    def should_stop(self, history: TrialHistory) -> bool:
        best = history.best_objective()
        return best is not None and best >= self.target

    def reason(self) -> str:
        return f"objective target {self.target} reached"


class FailureStreakRule(StoppingRule):
    """Stop after ``streak`` consecutive crashed probes.

    A long failure streak usually means the environment itself is broken
    (quota exhausted, image unpullable) — burning budget helps nobody.
    """

    def __init__(self, streak: int = 8) -> None:
        if streak < 1:
            raise ValueError("streak must be >= 1")
        self.streak = streak

    def should_stop(self, history: TrialHistory) -> bool:
        trials = history.trials
        if len(trials) < self.streak:
            return False
        return all(not t.ok for t in trials[-self.streak:])

    def reason(self) -> str:
        return f"{self.streak} consecutive failed probes"


class StoppedStrategy(SearchStrategy):
    """Wrap a strategy with stopping rules (OR-combined).

    Delegates proposals/measurement/observation to the inner strategy and
    additionally ends the session when any rule fires.  The firing rule is
    recorded in :attr:`stop_reason`.
    """

    def __init__(self, inner: SearchStrategy, rules: Sequence[StoppingRule]) -> None:
        if not rules:
            raise ValueError("need at least one stopping rule")
        self.inner = inner
        self.rules = list(rules)
        self.name = f"{inner.name}+stop"
        self.stop_reason: Optional[str] = None

    def reset(self) -> None:
        self.inner.reset()
        self.stop_reason = None

    def snapshot_state(self) -> Optional[dict]:
        inner_state = self.inner.snapshot_state()
        if inner_state is None and self.stop_reason is None:
            return None
        return {"inner": inner_state, "stop_reason": self.stop_reason}

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> Optional[ConfigDict]:
        return self.inner.propose(history, space, rng, pending=pending, shard=shard)

    def observe(self, trial) -> None:
        self.inner.observe(trial)

    def measure(self, env, config):
        return self.inner.measure(env, config)

    def finished(self, history: TrialHistory, space: ConfigSpace) -> bool:
        if self.inner.finished(history, space):
            self.stop_reason = f"inner strategy {self.inner.name} finished"
            return True
        for rule in self.rules:
            if rule.should_stop(history):
                self.stop_reason = rule.reason()
                return True
        return False
