"""Composable stopping rules for tuning sessions.

A real tuning service rarely runs to a fixed trial count: it stops once a
good-enough configuration is in hand (:class:`TargetRule`).  Rules plug
into any :class:`~repro.core.strategy.SearchStrategy` via
:class:`StoppedStrategy`, which wraps a strategy and ends the session when
any rule fires — without touching the strategy's own logic.  Caps on
probe cost and session wall-clock are budget fields
(``TuningBudget.max_cost_s`` and ``max_wall_clock_s``), not rules.

Example
-------
>>> from repro.core import MLConfigTuner
>>> from repro.core.stopping import StoppedStrategy, TargetRule
>>> tuner = StoppedStrategy(MLConfigTuner(), [TargetRule(target=5000.0)])
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


class TargetRule(StoppingRule):
    """Stop once the best objective reaches an absolute target."""

    def __init__(self, target: float) -> None:
        self.target = target

    def should_stop(self, history: TrialHistory) -> bool:
        best = history.best_objective()
        return best is not None and best >= self.target

    def reason(self) -> str:
        return f"objective target {self.target} reached"


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
