"""The search-strategy interface shared by the tuner and all baselines.

Every tuner in this repository — the paper's BO tuner and each comparator —
implements the same contract: given a training environment, a configuration
space, and a budget, run probes and return a :class:`TuningResult`.  The
harness treats them uniformly, which is what makes the head-to-head
evaluation fair (identical spaces, identical budgets, identical noise).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace, to_training_config
from repro.core.trial import Trial, TrialHistory
from repro.mlsim import TrainingEnvironment


@dataclass(frozen=True)
class TuningBudget:
    """Caps on a tuning session.

    ``max_trials`` bounds the number of probes; ``max_cost_s`` bounds the
    cumulative *simulated* probe cost (machine time, all workers summed);
    ``max_wall_clock_s`` bounds the session's simulated wall-clock — the
    axis asynchronous execution actually optimises, since K workers can
    burn machine-seconds K times faster than the stopwatch advances.  Any
    cap may be None (unbounded), but at least one must be set; a set cap
    must be finite (NaN or inf would never fire).
    """

    max_trials: Optional[int] = 40
    max_cost_s: Optional[float] = None
    max_wall_clock_s: Optional[float] = None

    def __post_init__(self) -> None:
        if (
            self.max_trials is None
            and self.max_cost_s is None
            and self.max_wall_clock_s is None
        ):
            raise ValueError("budget must bound trials, cost, or wall-clock")
        for name in ("max_trials", "max_cost_s", "max_wall_clock_s"):
            cap = getattr(self, name)
            if cap is not None and not math.isfinite(cap):
                raise ValueError(f"{name} must be finite (None means unbounded)")
        if self.max_trials is not None and self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        if self.max_cost_s is not None and self.max_cost_s <= 0:
            raise ValueError("max_cost_s must be positive")
        if self.max_wall_clock_s is not None and self.max_wall_clock_s <= 0:
            raise ValueError("max_wall_clock_s must be positive")

    def exhausted(self, history: TrialHistory) -> bool:
        """True once another probe would exceed the budget."""
        if self.max_trials is not None and len(history) >= self.max_trials:
            return True
        if self.max_cost_s is not None and history.total_cost_s >= self.max_cost_s:
            return True
        if (
            self.max_wall_clock_s is not None
            and history.total_wall_clock_s >= self.max_wall_clock_s
        ):
            return True
        return False


@dataclass
class TuningResult:
    """Outcome of one tuning session.

    ``best_trial`` is the history's :meth:`~TrialHistory.recommendation`:
    the best measured trial, or after a detected change-point the best
    trial measured since the latest one.
    """

    strategy: str
    history: TrialHistory
    best_trial: Optional[Trial]
    environment: dict

    @property
    def best_config(self) -> Optional[ConfigDict]:
        """The recommended configuration, or None if every probe failed."""
        return self.best_trial.config if self.best_trial else None

    @property
    def best_objective(self) -> Optional[float]:
        """The recommended trial's measured objective, or None."""
        return self.best_trial.objective if self.best_trial else None

    @property
    def num_trials(self) -> int:
        return len(self.history)

    @property
    def total_cost_s(self) -> float:
        """Cumulative machine-seconds spent probing (all workers summed)."""
        return self.history.total_cost_s

    @property
    def total_wall_clock_s(self) -> float:
        """Session wall-clock seconds (max per round under parallel probing)."""
        return self.history.total_wall_clock_s

    @property
    def num_rounds(self) -> int:
        return self.history.num_rounds


class SearchStrategy(ABC):
    """Template for all tuners: propose → probe → record, until budget.

    Subclasses implement :meth:`propose`, the one proposal hook; the run
    loop, budget accounting, and trial recording live in
    :class:`~repro.core.session.TuningSession` and its executor engine,
    shared so every strategy pays identical costs for identical behaviour.
    :meth:`run` is a compatibility shim that executes a serial session;
    pass ``executor=AsyncExecutor(k)`` or ``ParallelExecutor(k)`` (or
    build a ``TuningSession`` directly) for K-way parallel probing.
    """

    name: str = "strategy"

    @abstractmethod
    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> Optional[ConfigDict]:
        """Return the configuration for the next launch, or ``None``.

        ``pending`` holds the configurations already committed (launch
        order) so model-based strategies can condition on them: the probes
        still in flight on the other workers of an asynchronous session,
        or the members proposed earlier in the same round of a barrier
        session.  The BO tuner fantasises them away with the constant liar
        (:meth:`repro.core.bo.BayesianProposer.propose`), which keeps a
        session from re-proposing a point already running.  Stateless
        samplers and cursor strategies may ignore it: a cursor already
        moved past the pending points.

        ``shard`` is the :class:`~repro.core.fleet.ShardDescriptor` of the
        environment shard the launch will run on when the session fans
        across an :class:`~repro.core.fleet.EnvironmentPool` (``None``
        otherwise).  Cost-aware strategies use it to lie about in-flight
        probe cost at the *target shard's* probe speed and to condition
        their cost surrogate on the shard — a probe that takes 60s on the
        baseline replica takes 90s on a 1.5x shard, and a fantasy that
        ignores that skews the cost model's view of committed machine
        time.

        Returning ``None`` declines to launch for now: the asynchronous
        engine leaves the worker idle until the next in-flight probe
        completes and asks again, and a barrier round ends short.
        Strategies whose structure gates on complete cohorts use this —
        successive halving refuses to cross a rung boundary while
        rung-mates are still in flight, since promotion must see the whole
        rung, and grid search declines once the grid is exhausted.
        """

    def observe(self, trial: Trial) -> None:
        """Hook: called after each probe (for stateful strategies)."""

    def finished(self, history: TrialHistory, space: ConfigSpace) -> bool:
        """Hook: strategies may stop early (e.g. grid exhausted)."""
        return False

    def reset(self) -> None:
        """Hook: clear per-session state (called at the start of every run).

        Stateful strategies must override this so a reused instance does
        not leak incumbents, proposers, or counters from a previous
        environment into the next session.
        """

    def snapshot_state(self) -> Optional[dict]:
        """Hook: a JSON-serialisable audit snapshot of per-session state.

        Written into the checkpoint WAL's audit state
        (:mod:`repro.core.checkpoint`) for offline inspection — incumbents, queue depths, surrogate-cache
        fingerprints.  It is **never used to restore**: resume rebuilds
        all strategy state bit-identically by replaying the recorded probe
        stream through the normal propose→observe loop, which is the only
        mechanism that reproduces RNG streams and surrogate caches at the
        bit level.  The default (``None``) means "rebuild from history" —
        stateless strategies need nothing else.
        """
        return None

    def run(
        self,
        env: Optional[TrainingEnvironment],
        space: ConfigSpace,
        budget: TuningBudget,
        seed: int = 0,
        executor: Optional["Executor"] = None,
        callbacks: Sequence["SessionCallback"] = (),
    ) -> TuningResult:
        """Execute a tuning session (thin shim over ``TuningSession``).

        With the default ``executor`` (serial) the produced history is
        trial-for-trial identical to the pre-session seed loop.  ``env``
        may be ``None`` when ``executor`` carries an
        :class:`~repro.core.fleet.EnvironmentPool`.
        """
        from repro.core.session import TuningSession

        session = TuningSession(self, executor=executor, callbacks=callbacks)
        return session.run(env, space, budget, seed=seed)

    def measure(self, env: TrainingEnvironment, config: ConfigDict):
        """Probe one configuration (hook for early-termination tuners)."""
        return env.measure(to_training_config(config))
