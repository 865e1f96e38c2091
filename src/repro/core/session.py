"""Tuning sessions: the propose→probe→record loop with pluggable execution.

A :class:`TuningSession` owns the budget, history, and RNG and delegates
*how probes execute* to an :class:`Executor`.  There is one execution
engine — slots that free up at virtual times, an in-flight heap, one
probe path, one outage wait — and three presets of it:

- :class:`SerialExecutor` — the engine at one floating slot: one probe at
  a time, trial-for-trial identical to the seed's serial loop;
- :class:`AsyncExecutor` — the engine at K slots with **no round
  barrier**: a freed slot launches at once, the strategy proposing
  conditioned on the probes still in flight, and the wall-clock is each
  slot's own timeline;
- :class:`ParallelExecutor` — the same probe path behind a synchronous
  round barrier: K members per round, machine cost for every member,
  wall-clock for the slowest one.

Every launch is proposed through one hook,
:meth:`SearchStrategy.propose`, conditioned on the configurations
already committed — in flight on other slots, or earlier in the same
barrier round (the BO tuner fantasises them with the constant liar, see
:mod:`repro.core.bo`).

At one worker the three agree bit-for-bit, except where the serial
executor redirects a preempted probe to another shard (below).

With ``pool=`` an executor fans the session across an
:class:`~repro.core.fleet.EnvironmentPool` of named shards: the pool's
:class:`~repro.core.fleet.ShardScheduler` places each launch, every trial
records its shard (itemised by
:meth:`~repro.core.trial.TrialHistory.cost_by_shard`), and a slot is
either *pinned* to one unit of a shard's capacity (async slots, round
members) or *floating* (the serial slot).  When a failure injector's
outage preempts a probe, its burned wall-clock is billed as cancelled
cost and the probe relaunches: a floating slot's probe is redirected to
any healthy shard, while a pinned slot's probe retries on its own shard
once it recovers.  With the whole fleet down the session clock waits out
the earliest recovery.  ``pool=None`` keeps single-environment semantics.

Sessions also emit lifecycle events to :class:`SessionCallback` observers;
:class:`ProgressLogger` (per-round progress lines) and
:class:`JsonlTrialLog` (the session record, :mod:`repro.core.trial`, as
JSON lines for offline analysis) ship here.

Example
-------
>>> from repro.core import MLConfigTuner, TuningBudget
>>> from repro.core.session import AsyncExecutor, TuningSession
>>> session = TuningSession(MLConfigTuner(), executor=AsyncExecutor(4))
>>> # result = session.run(env, space, TuningBudget(max_trials=40))
"""

from __future__ import annotations

import json
import os
import sys
from abc import ABC, abstractmethod
from heapq import heappop, heappush
from typing import IO, List, NamedTuple, Optional, Sequence, TextIO, Union

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace
from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointConfig,
    CheckpointError,
    CheckpointJournal,
    JournalledStrategy,
    budget_payload,
    env_counter_payload,
    executor_fingerprint,
    session_meta,
    space_fingerprint,
)
from repro.core.fleet import EnvironmentPool, EnvironmentShard
from repro.core.strategy import SearchStrategy, TuningBudget, TuningResult
from repro.core.trial import (
    Trial,
    TrialHistory,
    billable_cost_s,
    end_record,
    trial_record,
)
from repro.mlsim import Measurement, TrainingEnvironment

#: Attempts a preempted probe gets (original launch + relaunches) before
#: the executor abandons it as a failed trial.
MAX_PROBE_ATTEMPTS = 3


def _set_env_clock(env, t: float) -> None:
    """Stamp an environment's virtual clock, if it has one.

    Drift schedules are evaluated at ``TrainingEnvironment.clock_s``; the
    stamp is a plain attribute write, inert without a drift schedule, so
    stamping unconditionally preserves bit-identical static trajectories.
    """
    set_clock = getattr(env, "set_clock", None)
    if set_clock is not None:
        set_clock(t)


def _abandoned_measurement(last: Measurement) -> Measurement:
    """The failed, zero-cost record of a probe abandoned to outages.

    The burned machine time of every preempted attempt was already billed
    through ``charge_cancelled``, so the abandonment itself is free.
    """
    return Measurement(
        config=last.config,
        ok=False,
        fidelity=last.fidelity,
        error="probe preempted by repeated shard outages",
        probe_cost_s=0.0,
    )


class SessionCallback:
    """Observer of session lifecycle events.  Every hook is an optional no-op.

    Hooks fire in a fixed order: ``on_session_start``, then per round
    ``on_trial_start`` for every launched probe, ``on_trial_recorded`` (on
    every callback) and then ``on_trial_end`` for every recorded trial,
    ``on_round_end`` once, and finally ``on_session_end``.

    Under an :class:`AsyncExecutor` there is no round barrier:
    ``on_trial_start`` fires at *launch* (its ``index`` is the launch
    ordinal) while ``on_trial_end`` fires at *completion* (the recorded
    :attr:`Trial.index` is the completion ordinal), so a cheap probe
    launched late can end before an expensive probe launched early, and a
    probe still in flight when the session stops gets a start event with
    no matching end (it was cancelled at the budget boundary).  Pair a
    start event with its end event through :attr:`Trial.launch_index`,
    never by ``Trial.index``.
    """

    def on_session_start(
        self,
        strategy: SearchStrategy,
        env: TrainingEnvironment,
        space: ConfigSpace,
        budget: TuningBudget,
    ) -> None:
        """The session is about to run its first round."""

    def on_trial_start(self, index: int, config: ConfigDict) -> None:
        """A probe of ``config`` is being launched as trial ``index``."""

    def on_trial_recorded(self, trial: Trial, history: TrialHistory) -> None:
        """``trial`` was just recorded in ``history`` (the live history)."""

    def on_trial_end(self, trial: Trial) -> None:
        """A probe finished and was recorded in the history."""

    def on_round_end(
        self, round_index: int, trials: Sequence[Trial], history: TrialHistory
    ) -> None:
        """A round (all its probes) completed."""

    def on_session_end(self, result: TuningResult) -> None:
        """The session finished (budget exhausted or strategy done)."""


class _Events:
    """Fans one lifecycle event out to every registered callback."""

    def __init__(self, callbacks: Sequence[SessionCallback]) -> None:
        self._callbacks = list(callbacks)

    def session_start(self, strategy, env, space, budget) -> None:
        for callback in self._callbacks:
            callback.on_session_start(strategy, env, space, budget)

    def trial_start(self, index: int, config: ConfigDict) -> None:
        for callback in self._callbacks:
            callback.on_trial_start(index, config)

    def trial_end(self, trial: Trial, history: TrialHistory) -> None:
        for callback in self._callbacks:
            callback.on_trial_recorded(trial, history)
        for callback in self._callbacks:
            callback.on_trial_end(trial)

    def round_end(self, round_index, trials, history) -> None:
        for callback in self._callbacks:
            callback.on_round_end(round_index, trials, history)

    def session_end(self, result: TuningResult) -> None:
        for callback in self._callbacks:
            callback.on_session_end(result)


class ProgressLogger(SessionCallback):
    """Log one line per round: trials, best objective, machine cost, wall-clock."""

    def __init__(self, stream: Optional[TextIO] = None, every: int = 1) -> None:
        if every < 1:
            raise ValueError("every must be >= 1")
        self.stream = stream
        self.every = every
        self._name = "session"

    def on_session_start(self, strategy, env, space, budget) -> None:
        self._name = strategy.name

    def on_round_end(self, round_index, trials, history) -> None:
        if (round_index + 1) % self.every:
            return
        best = history.best_objective()
        best_text = f"{best:.2f}" if best is not None else "-"
        print(
            f"[{self._name}] round {round_index + 1}: trials={len(history)} "
            f"best={best_text} cost={history.total_cost_s:.0f}s "
            f"wall={history.total_wall_clock_s:.0f}s",
            file=self.stream or sys.stderr,
        )


class JsonlTrialLog(SessionCallback):
    """Write the session record (:mod:`repro.core.trial`) as JSON lines.

    A ``header`` record (``version``, strategy, environment, budget), one
    ``trial`` record per trial — the checkpoint WAL's, without its audit
    state — and, at session end, an ``end`` record with the final ledgers
    and trailing events.  :meth:`TrialHistory.from_payload` rebuilds the
    session's history from the file's records.

    The file is truncated at session start, so one sink instance logs one
    session at a time (reuse across sequential sessions overwrites).

    ``durable=True`` additionally ``os.fsync``'s the file after every
    record, so a process crash cannot silently lose the buffered tail of
    the log — the offline record then always ends at a trial the session
    actually completed.
    """

    def __init__(self, path: str, durable: bool = False) -> None:
        self.path = path
        self.durable = durable
        self._handle: Optional[IO[str]] = None
        # History events already carried by a record.
        self._events_logged = 0

    def _write(self, record: dict) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        if self.durable:
            os.fsync(self._handle.fileno())

    def on_session_start(self, strategy, env, space, budget) -> None:
        if self._handle is not None:
            self._handle.close()
        self._handle = open(self.path, "w")
        self._events_logged = 0
        self._write(
            {
                "type": "header",
                "version": CHECKPOINT_VERSION,
                "strategy": strategy.name,
                "environment": env.describe(),
                "budget": budget_payload(budget),
            }
        )

    def on_trial_recorded(self, trial: Trial, history: TrialHistory) -> None:
        if self._handle is None:
            # Same guard as on_session_end: a trial record with no session
            # open belongs to no log.
            return
        self._write(trial_record(trial, history, self._events_logged))
        self._events_logged = len(history.events)

    def on_session_end(self, result: TuningResult) -> None:
        if self._handle is None:
            # No session is open: the callback was attached to a session
            # that aborted before on_session_start, or session_end fired
            # twice.  The log is left as it is: no file for the former, the
            # completed session's records for the latter.
            return
        self._write(end_record(result.history, self._events_logged))
        self._handle.close()
        self._handle = None


class _CheckpointRecorder(SessionCallback):
    """The checkpoint's session callback: one WAL trial record per trial,
    and the snapshot at session start and end.

    Runs *first* in the callback chain so a later callback raising (or a
    chaos kill) can never lose a recorded trial's WAL record.
    """

    def __init__(self, journal: CheckpointJournal, session: "TuningSession") -> None:
        self._journal = journal
        self._session = session

    def _env_counters(self) -> dict:
        """Probe counters for every environment the session touches."""
        pool = self._session.executor.pool
        if pool is not None:
            return pool.env_counters()
        return {"env": env_counter_payload(self._session._env)}

    def _audit(self) -> dict:
        return {
            "strategy_state": self._session.strategy.snapshot_state(),
            "env_counters": self._env_counters(),
        }

    def on_session_start(self, strategy, env, space, budget) -> None:
        self._journal.write_snapshot(
            self._session.history, strategy, self._env_counters(), status="running"
        )

    def on_trial_recorded(self, trial: Trial, history: TrialHistory) -> None:
        self._journal.on_trial(trial, history, self._audit)

    def on_session_end(self, result: TuningResult) -> None:
        # The WAL first: the complete snapshot never counts a trial whose
        # record is not durable.
        self._journal.close()
        self._journal.write_snapshot(
            result.history, self._session.strategy, self._env_counters(), "complete"
        )


class _Launch(NamedTuple):
    """One in-flight probe; heap-ordered by completion, then launch ordinal."""

    end_s: float
    launch_index: int
    config: ConfigDict
    measurement: Measurement
    start_s: float
    shard: Optional[EnvironmentShard]
    pin: Optional[EnvironmentShard]


class Executor(ABC):
    """The propose → probe → record engine shared by the three executors.

    An executor owns *slots*, ``(free_s, pin)`` pairs: the virtual time
    the slot frees up and the shard it is pinned to.  A pinned slot is one
    unit of a shard's capacity and holds it from launch to completion.  A
    floating slot (``pin=None``) belongs to no shard: on a pool the
    scheduler places each of its probes, which hold a shard only while
    they measure.

    :meth:`_event_step` is the barrier-free drain that
    :class:`SerialExecutor` and :class:`AsyncExecutor` run;
    :class:`ParallelExecutor` puts a round barrier over the same
    :meth:`SearchStrategy.propose` call, :meth:`_probe` and outage wait.
    With ``pool=`` the environment passed to :meth:`run_round` may be
    ``None``.
    """

    workers: int = 1
    pool: Optional[EnvironmentPool] = None

    def _slot_pins(self) -> List[Optional[EnvironmentShard]]:
        """The shard each slot is pinned to: ``workers`` floating slots."""
        return [None] * self.workers

    def _reset_slots(self) -> None:
        self._slots: List[tuple] = [(0.0, pin) for pin in self._slot_pins()]
        self._in_flight: List[_Launch] = []
        self._launched = 0

    def reset(self, seed: int = 0) -> None:
        """Clear per-session state (called at the start of every run).

        Frees every slot, drops in-flight probes, and re-derives an
        attached pool's per-shard RNG streams from the session seed
        (rewinding occupancy and environment counters), so a reused
        executor replays the same session.
        """
        if self.pool is not None:
            self.pool.reset(seed)
        self._reset_slots()

    def has_pending(self) -> bool:
        """True while launched-but-unrecorded probes are in flight.

        The session keeps calling :meth:`run_round` to drain them after
        the strategy finishes (their measurements exist and their machine
        time was spent — discarding them would under-report the session);
        only budget exhaustion cancels pending probes outright.
        """
        return bool(self._in_flight)

    def cancel_pending(self, history: TrialHistory) -> None:
        """Bill the partial machine cost of every cancelled in-flight probe.

        Called once when the session stops on its budget with probes still
        in flight.  A cancelled probe produced no trial, but it ran from
        its launch until the stop — the session clock at which the budget
        fired — so that wall-time, clamped to the probe's own duration, is
        billed via :meth:`TrialHistory.charge_cancelled` under its shard.
        """
        stop_wall_s = history.total_wall_clock_s
        for launch in self._in_flight:
            elapsed = min(
                max(0.0, stop_wall_s - launch.start_s),
                billable_cost_s(launch.measurement.probe_cost_s),
            )
            history.charge_cancelled(
                elapsed, shard=None if launch.shard is None else launch.shard.name
            )
            if launch.pin is not None:
                self.pool.release(launch.pin.name)
        self._in_flight = []

    @abstractmethod
    def run_round(
        self,
        strategy: SearchStrategy,
        env: TrainingEnvironment,
        space: ConfigSpace,
        history: TrialHistory,
        rng: np.random.Generator,
        budget: TuningBudget,
        events: _Events,
    ) -> List[Trial]:
        """Propose, probe, and record one round; return the recorded trials."""

    def _probe(self, strategy, env, config, shard, start_s, history, redirect=False):
        """Run one probe launched at ``start_s``: ``(measurement, end_s, shard)``.

        Without a pool (``shard=None``) the probe runs on ``env``.  On a
        pool it runs on ``shard``, and an
        outage that cuts an attempt short bills the wall-clock it burned
        (:meth:`TrialHistory.charge_cancelled`) and relaunches it:

        - ``redirect`` (a floating slot): the scheduler re-places the probe
          at the preemption instant on any healthy shard, after the next
          recovery if the whole fleet is down; the returned shard is where
          it last ran.  The probe occupies a shard only while it measures;
        - otherwise (a pinned slot, occupied across retries): on the same
          shard once it recovers, so ``end_s`` includes the dead time.

        After :data:`MAX_PROBE_ATTEMPTS` attempts, or with no shard to
        redirect to, the probe is abandoned as a failed zero-cost
        measurement.
        """
        if shard is None:
            _set_env_clock(env, start_s)
            measurement = strategy.measure(env, config)
            end_s = start_s + billable_cost_s(measurement.probe_cost_s)
            return measurement, end_s, None
        pool = self.pool
        injector = pool.injector
        t = float(start_s)
        for _ in range(MAX_PROBE_ATTEMPTS):
            if redirect:
                pool.acquire(shard.name)
            try:
                _set_env_clock(shard.env, t)
                measurement = shard.measure(strategy, config)
            finally:
                if redirect:
                    pool.release(shard.name)
            end_s = t + billable_cost_s(measurement.probe_cost_s)
            preempt_s = None
            if injector is not None:
                preempt_s = injector.preemption_at(shard.name, t, end_s)
            if preempt_s is None:
                return measurement, end_s, shard
            history.charge_cancelled(max(0.0, preempt_s - t), shard=shard.name)
            if not redirect:
                t = injector.up_after(shard.name, preempt_s)
                continue
            t = preempt_s
            pool.set_clock(t)
            next_shard = pool.scheduler.select(pool)
            if next_shard is None:
                up = self._recovery_after(t)
                if up is not None:
                    t = up
                    pool.set_clock(t)
                    next_shard = pool.scheduler.select(pool)
            if next_shard is None:
                break
            shard = next_shard
        return _abandoned_measurement(measurement), t, shard

    def _recovery_after(self, t: float) -> Optional[float]:
        """The fleet's earliest shard recovery after ``t``, if a shard is down.

        The pool clock must already stand at ``t``.
        """
        if self.pool is None:
            return None
        up = self.pool.next_up_s()
        return up if up is not None and up > t else None

    def _wait_out_outage(self, history: TrialHistory) -> bool:
        """Advance the session clock to the fleet's next recovery.

        The wait is dead wall-clock with no machine cost.  Returns
        ``False`` (and waits for nothing) when no shard is down.
        """
        up = self._recovery_after(history.total_wall_clock_s)
        if up is None:
            return False
        history.advance_wall_clock(up - history.total_wall_clock_s)
        self.pool.set_clock(history.total_wall_clock_s)
        return True

    def _pending_configs(self) -> List[ConfigDict]:
        """In-flight configurations, in launch order."""
        return [
            launch.config
            for launch in sorted(self._in_flight, key=lambda e: e.launch_index)
        ]

    def _next_free_slot(self):
        """``(slot index, shard)`` of the next launch, or None if none may launch.

        Without a pool: the earliest-freed slot, so each launch is
        conditioned on exactly the trials completed by its start time.
        With a pool: the scheduler picks the shard, then the earliest-freed
        slot that may run there (pinned to it, or floating) — placement
        policy decides *where*, the free-list still decides *when*.
        """
        if not self._slots:
            return None
        shard = None
        indices = range(len(self._slots))
        if self.pool is not None:
            shard = self.pool.scheduler.select(self.pool)
            if shard is None:
                return None
            indices = [
                i
                for i, (_, pin) in enumerate(self._slots)
                if pin is None or pin is shard
            ]
            if not indices:
                return None
        return min(indices, key=lambda i: self._slots[i][0]), shard

    def _may_launch(
        self,
        start_s: float,
        strategy: SearchStrategy,
        history: TrialHistory,
        space: ConfigSpace,
        budget: TuningBudget,
    ) -> bool:
        if strategy.finished(history, space):
            return False
        if budget.max_trials is not None and self._launched >= budget.max_trials:
            return False
        if budget.max_wall_clock_s is not None and start_s >= budget.max_wall_clock_s:
            return False
        if budget.max_cost_s is not None:
            committed = history.total_cost_s + sum(
                billable_cost_s(launch.measurement.probe_cost_s)
                for launch in self._in_flight
            )
            if committed >= budget.max_cost_s:
                return False
        return True

    def _fill_slots(self, strategy, env, space, history, rng, budget, events):
        while True:
            picked = self._next_free_slot()
            if picked is None:
                break
            index, shard = picked
            free_s, pin = self._slots[index]
            # A slot can sit idle past its free-time while launches are
            # gated — a stopping rule may un-finish when a draining probe
            # records a success (e.g. FailureStreakRule).  It re-launches
            # at the current session clock, never in the past, keeping
            # completion stamps monotone.
            start_s = max(free_s, history.total_wall_clock_s)
            if not self._may_launch(start_s, strategy, history, space, budget):
                break
            # Only a pinned slot knows its shard for sure (a floating
            # slot's probe may be redirected), so only it names the shard.
            config = strategy.propose(
                history,
                space,
                rng,
                pending=self._pending_configs(),
                shard=None if pin is None else pin.descriptor,
            )
            if config is None:
                # The strategy declines to launch until in-flight results
                # land (e.g. a rung boundary); the slot stays free.
                break
            del self._slots[index]
            events.trial_start(self._launched, config)
            if pin is not None:
                self.pool.acquire(pin.name)
            try:
                measurement, end_s, shard = self._probe(
                    strategy, env, config, shard, start_s, history,
                    redirect=pin is None,
                )
            except BaseException:
                # A raising probe must not strand the slot: put it back
                # and free the shard so a caller that catches the error
                # sees consistent pool occupancy.
                if pin is not None:
                    self.pool.release(pin.name)
                self._slots.append((free_s, pin))
                raise
            heappush(
                self._in_flight,
                _Launch(
                    end_s, self._launched, config, measurement, start_s, shard, pin
                ),
            )
            self._launched += 1

    def _event_step(self, strategy, env, space, history, rng, budget, events):
        """One event: fill the free slots, then record the earliest completion."""
        if self.pool is not None and self.pool.injector is not None:
            self.pool.set_clock(history.total_wall_clock_s)
        self._fill_slots(strategy, env, space, history, rng, budget, events)
        while not self._in_flight:
            if not self._slots or not self._wait_out_outage(history):
                return []
            self._fill_slots(strategy, env, space, history, rng, budget, events)
        launch = heappop(self._in_flight)
        self._slots.append((launch.end_s, launch.pin))
        if launch.pin is not None:
            self.pool.release(launch.pin.name)
        # Events drain in completion order, so the session clock only ever
        # advances; each trial's stamp is its physical completion time.
        trial = history.record(
            launch.config,
            launch.measurement,
            wall_clock_s=max(0.0, launch.end_s - history.total_wall_clock_s),
            completed_at_wall_s=launch.end_s,
            launch_index=launch.launch_index,
            shard=None if launch.shard is None else launch.shard.name,
        )
        strategy.observe(trial)
        events.trial_end(trial, history)
        return [trial]


class SerialExecutor(Executor):
    """One probe at a time: the event engine with one floating slot.

    Reproduces the seed's serial loop trial for trial (the wall-clock is
    the serial sum of probe costs).  With a pool the scheduler places each
    probe, and a probe preempted by an outage is redirected to any healthy
    shard.  A homogeneous pool over one shared environment reproduces the
    single-environment trial sequence bit-identically, whatever the shard
    rotation.
    """

    def __init__(self, pool: Optional[EnvironmentPool] = None) -> None:
        self.pool = pool
        self._reset_slots()

    def run_round(self, strategy, env, space, history, rng, budget, events):
        return self._event_step(strategy, env, space, history, rng, budget, events)


class ParallelExecutor(Executor):
    """K-way synchronous parallel probing with honest wall-clock accounting.

    The round barrier over the engine's probe path: each round asks the
    strategy for up to ``workers`` configurations, one member at a time
    through :meth:`SearchStrategy.propose` with the members proposed
    so far as ``pending`` (a ``None`` ends the round short; the round does
    not re-check :meth:`SearchStrategy.finished` between members), probes
    every member, and records all of them under one round index.  Machine
    cost accrues for every probe; wall-clock accrues once per round, at
    the cost of the slowest member.  The round is truncated near the trial
    budget so a session never overshoots ``max_trials``.

    Members are *simulated* in round order: each is measured, recorded,
    and observed before the next, so gates like the BO tuner's early
    termination see round-mates' results — on a real cluster the short
    probes that drive the gate finish in the first fraction of the round,
    long before the barrier.  Only the wall-clock accounting treats the
    round as concurrent.  That ordering is why the barrier keeps its own
    round loop instead of running on :meth:`_event_step`, which records
    in completion order.

    With a pool, the round width is the pool's free slot capacity (downed
    shards and a shrunken service lease narrow it) and every member holds
    a pinned shard slot for the whole round, so its proposal is told its
    shard and a preempted member retries on its own shard.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        pool: Optional[EnvironmentPool] = None,
    ) -> None:
        if pool is not None:
            self.workers = pool.total_capacity if workers is None else workers
            if self.workers > pool.total_capacity:
                raise ValueError(
                    f"workers ({self.workers}) exceed the pool's total "
                    f"capacity ({pool.total_capacity})"
                )
        else:
            if workers is None:
                raise ValueError("workers is required without a pool")
            self.workers = workers
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        self.pool = pool
        self._reset_slots()

    def run_round(self, strategy, env, space, history, rng, budget, events):
        k = self.workers
        if self.pool is not None:
            if self.pool.injector is not None:
                self.pool.set_clock(history.total_wall_clock_s)
                if self.pool.free_capacity() == 0:
                    self._wait_out_outage(history)
            k = min(k, self.pool.free_capacity())
        if budget.max_trials is not None:
            k = min(k, budget.max_trials - len(history))
        if k < 1:
            return []
        round_index = history.num_rounds
        round_start_wall_s = history.total_wall_clock_s
        shards: List[Optional[EnvironmentShard]] = []
        trials = []
        round_wall_s = 0.0
        try:
            # Every member launches at the round start, so its shard slot
            # is assigned and acquired before the proposals — cost-aware
            # strategies condition each member on its own shard's probe
            # speed — and inside the try so a scheduler failing
            # mid-assignment cannot leak the slots already acquired.
            if self.pool is None:
                shards = [None] * k
            else:
                for _ in range(k):
                    shard = self.pool.scheduler.select(self.pool)
                    if shard is None:
                        raise RuntimeError(
                            "pool saturated mid-assignment: scheduler returned "
                            "no shard for a round within the pool's total "
                            "capacity"
                        )
                    self.pool.acquire(shard.name)
                    shards.append(shard)
            # A decline (grid exhaustion, rung boundary) ends the round
            # short; its unused shard slots go back rather than sit idle
            # across the round.
            batch: List[ConfigDict] = []
            for shard in shards:
                config = strategy.propose(
                    history,
                    space,
                    rng,
                    pending=list(batch),
                    shard=None if shard is None else shard.descriptor,
                )
                if config is None:
                    break
                batch.append(config)
            for shard in shards[len(batch):]:
                if shard is not None:
                    self.pool.release(shard.name)
            shards = shards[: len(batch)]
            if not batch:
                return []
            for offset, config in enumerate(batch):
                events.trial_start(len(history) + offset, config)
            for member, (config, shard) in enumerate(zip(batch, shards)):
                measurement, end_s, _ = self._probe(
                    strategy, env, config, shard, round_start_wall_s, history
                )
                if self.pool is not None and self.pool.injector is not None:
                    # A member an outage may preempt lasts until its final
                    # attempt ends, dead time included; any other member
                    # lasts exactly its probe cost.
                    duration = max(0.0, end_s - round_start_wall_s)
                else:
                    duration = billable_cost_s(measurement.probe_cost_s)
                # The session total advances by the running round maximum
                # (the slowest member so far), while each trial is stamped
                # with its own physical completion time, independent of
                # batch order.
                new_wall_s = max(round_wall_s, duration)
                trial = history.record(
                    config,
                    measurement,
                    wall_clock_s=new_wall_s - round_wall_s,
                    round_index=round_index,
                    completed_at_wall_s=round_start_wall_s + duration,
                    shard=None if shard is None else shard.name,
                )
                round_wall_s = new_wall_s
                strategy.observe(trial)
                events.trial_end(trial, history)
                trials.append(trial)
                # A cost cap stops mid-round, capping overshoot at one
                # recorded probe as in serial.  Every member launched at the
                # round start, so each cancelled member's slot was occupied
                # until the cancellation went out — the round's latest
                # completion so far — and that slot time is billed as
                # machine cost.  A wall-clock cap does NOT cancel mid-round:
                # members record in batch order, not completion order, so
                # cancelling on the running wall total would drop probes
                # that physically completed before the cap; the session
                # stops at the round boundary instead.
                if (
                    budget.max_cost_s is not None
                    and history.total_cost_s >= budget.max_cost_s
                ):
                    for cancelled in shards[member + 1:]:
                        history.charge_cancelled(
                            round_wall_s,
                            shard=None if cancelled is None else cancelled.name,
                        )
                    break
        finally:
            for shard in shards:
                if shard is not None:
                    self.pool.release(shard.name)
        return trials


class AsyncExecutor(Executor):
    """Barrier-free K-worker probing: the event engine with K slots.

    A ``run_round`` call is one event step: every free slot is filled —
    the strategy supplies each launch through
    :meth:`SearchStrategy.propose`, conditioned on the
    configurations still in flight (the BO tuner fantasises them with the
    constant liar) — then the earliest in-flight probe completes, is
    recorded and observed, and its slot frees at that completion time.

    Machine cost matches the synchronous executor probe for probe, but
    the wall-clock is each slot's own timeline: the session clock advances
    to each completion in order, so ``total_wall_clock_s`` is the makespan
    of the greedy schedule — never worse than the round barrier for the
    same probe sequence, and better whenever a round's stragglers would
    have idled the other workers.

    Launch gating near the budget: no probe is launched beyond
    ``max_trials``, past the point where committed machine cost (recorded
    plus in-flight) reaches ``max_cost_s``, or with a start time at or
    past ``max_wall_clock_s``.  When the *strategy* finishes the in-flight
    probes drain to completion and are recorded; only *budget* exhaustion
    cancels them (start event without end event, partial cost billed by
    :meth:`cancel_pending`).

    Trials are recorded in *completion* order: :attr:`Trial.index` is the
    completion ordinal while ``on_trial_start`` carries the launch
    ordinal, and each trial's round is its own event step.

    With a pool, the slots are the pool's shard slots, pinned one per unit
    of shard capacity: the scheduler decides which shard's slot to fill
    next, each launch hands the strategy the target shard's descriptor (so
    constant-liar fantasies lie with shard-specific probe cost), and a
    preempted probe retries on its own shard.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        pool: Optional[EnvironmentPool] = None,
    ) -> None:
        if pool is not None:
            # Async slots ARE the pool's shard slots, so a separate worker
            # count is ambiguous (which shards would lose slots?).  Reject
            # it rather than silently ignoring the requested concurrency.
            if workers is not None:
                raise ValueError(
                    "workers is determined by the pool's total capacity; "
                    "size the pool's shard capacities instead"
                )
            self.workers = pool.total_capacity
        else:
            if workers is None:
                raise ValueError("workers is required without a pool")
            if workers < 1:
                raise ValueError("workers must be >= 1")
            self.workers = workers
        self.pool = pool
        self._reset_slots()

    def _slot_pins(self) -> List[Optional[EnvironmentShard]]:
        if self.pool is None:
            return super()._slot_pins()
        return [shard for shard in self.pool.shards for _ in range(shard.capacity)]

    def run_round(self, strategy, env, space, history, rng, budget, events):
        return self._event_step(strategy, env, space, history, rng, budget, events)


EXECUTOR_MODES = ("sync", "async")


def executor_for(
    workers: int,
    mode: str = "sync",
    pool: Optional[EnvironmentPool] = None,
) -> Executor:
    """The executor for a worker count, execution mode, and optional pool.

    ``workers=1`` maps to :class:`SerialExecutor` in *both* modes: with
    one worker there is no barrier to remove.  With K > 1, ``"sync"``
    builds the round-barrier :class:`ParallelExecutor` and ``"async"`` the
    barrier-free :class:`AsyncExecutor`.

    With ``pool=``, concurrency comes from the pool's slots rather than
    ``workers``: ``workers=1`` (or a one-slot pool) probes the fleet
    serially through the pool's scheduler, any other value fans out over
    the pool's total capacity in the chosen mode.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if mode not in EXECUTOR_MODES:
        raise ValueError(
            f"unknown executor mode {mode!r}: valid modes are "
            + ", ".join(repr(m) for m in EXECUTOR_MODES)
        )
    if pool is not None:
        if workers == 1 or pool.total_capacity == 1:
            return SerialExecutor(pool=pool)
        if mode == "async":
            return AsyncExecutor(pool=pool)
        return ParallelExecutor(pool=pool)
    if workers == 1:
        return SerialExecutor()
    return AsyncExecutor(workers) if mode == "async" else ParallelExecutor(workers)


class TuningSession:
    """Owns the budget/history/RNG loop; delegates probing to an executor.

    ``SearchStrategy.run`` is a thin shim over this class; construct a
    session directly to choose the executor or attach callbacks::

        TuningSession(tuner, executor=ParallelExecutor(4),
                      callbacks=[ProgressLogger()]).run(env, space, budget)

    A session is also a *schedulable unit*: :meth:`start` initialises the
    loop, each :meth:`step` runs exactly one executor round (returning
    ``False`` once the session has nothing more to do), and
    :meth:`finish` cancels stranded in-flight probes and produces the
    :class:`~repro.core.strategy.TuningResult`.  :meth:`run` is exactly
    ``start``; drain ``step``; ``finish`` — trial-for-trial identical to
    the historical single-call loop — while a multi-tenant scheduler
    (:class:`~repro.core.service.TuningService`) interleaves many
    sessions by calling their ``step`` methods in its own order, pausing
    each tenant between rounds at no extra cost.  All loop state (RNG,
    history, executor free-list) lives on the session, so the
    interleaving order cannot perturb any single session's stream.
    """

    def __init__(
        self,
        strategy: SearchStrategy,
        executor: Optional[Executor] = None,
        callbacks: Sequence[SessionCallback] = (),
        detector: Optional[SessionCallback] = None,
    ) -> None:
        self.strategy = strategy
        self.executor = executor if executor is not None else SerialExecutor()
        self.callbacks = list(callbacks)
        # Convenience slot for a ChangePointDetector (repro.core.detect) —
        # just another callback, but surfaced as a named parameter so the
        # common "tune under drift" setup reads as intent.
        self.detector = detector
        if detector is not None:
            self.callbacks.append(detector)
        self._env: Optional[TrainingEnvironment] = None
        self._env_like = None
        self._space: Optional[ConfigSpace] = None
        self._budget: Optional[TuningBudget] = None
        self._rng: Optional[np.random.Generator] = None
        self._history: Optional[TrialHistory] = None
        self._events: Optional[_Events] = None
        self._stalled = False
        self._result: Optional[TuningResult] = None
        # The strategy the loop actually drives: the raw strategy, or a
        # JournalledStrategy proxy when a checkpoint is attached.
        self._loop_strategy: SearchStrategy = strategy

    @property
    def history(self) -> Optional[TrialHistory]:
        """The live trial history (``None`` before :meth:`start`)."""
        return self._history

    @property
    def done(self) -> bool:
        """True once :meth:`step` has nothing left to run."""
        return self._result is not None or self._stalled

    def start(
        self,
        env: Optional[TrainingEnvironment],
        space: ConfigSpace,
        budget: TuningBudget,
        seed: int = 0,
        checkpoint: Union[CheckpointConfig, CheckpointJournal, str, None] = None,
    ) -> "TuningSession":
        """Initialise the loop state; the first :meth:`step` may then run.

        ``env`` may be ``None`` when the executor carries an
        :class:`~repro.core.fleet.EnvironmentPool` — probes then dispatch
        through the pool's shards and the pool's own description stands in
        for the environment in callbacks and the result.  When both are
        given the pool wins for dispatch.

        ``checkpoint`` (a :class:`~repro.core.checkpoint.CheckpointConfig`
        or a bare path) makes the session durable: every probe is logged
        to a write-ahead log before the loop acts on it, every recorded
        trial appends a trial record there, and the snapshot is written
        at session start and end only, so a crashed process can pick the
        session back up with :meth:`resume`.
        Starting fresh at a path *overwrites* any previous checkpoint
        there (use :meth:`restore`/:meth:`resume` to continue one).
        An already-loaded :class:`CheckpointJournal` continues its replay
        instead — that is the path :meth:`restore` takes internally.
        """
        pool = self.executor.pool
        if env is None and pool is None:
            raise ValueError(
                "env may only be None when the executor probes an EnvironmentPool"
            )
        journal: Optional[CheckpointJournal] = None
        if checkpoint is not None:
            if isinstance(checkpoint, CheckpointJournal):
                journal = checkpoint
            else:
                config = (
                    checkpoint
                    if isinstance(checkpoint, CheckpointConfig)
                    else CheckpointConfig(checkpoint)
                )
                journal = CheckpointJournal.create(
                    config,
                    session_meta(self.strategy, seed, budget, space, self.executor),
                )
        self._env = env
        self._env_like = env if pool is None else pool
        self._space = space
        self._budget = budget
        self._rng = np.random.default_rng(seed)
        self._history = TrialHistory()
        self._loop_strategy = (
            self.strategy
            if journal is None
            else JournalledStrategy(self.strategy, journal)
        )
        # The recorder runs FIRST in the callback chain: its position is
        # deterministic (identical in the original run and every replay),
        # and a later callback raising can never lose a trial's record.
        callbacks = list(self.callbacks)
        if journal is not None:
            callbacks.insert(0, _CheckpointRecorder(journal, self))
        self._events = _Events(callbacks)
        self._stalled = False
        self._result = None
        self.strategy.reset()
        self.executor.reset(seed)
        self._events.session_start(self.strategy, self._env_like, space, budget)
        return self

    def step(self) -> bool:
        """Run one executor round; ``False`` when the session is done.

        A ``False`` return latches: the budget is exhausted, the strategy
        finished with nothing in flight, or the executor produced no
        trials (saturation/decline) — in every case the session has
        nothing more to do and :meth:`finish` should be called.
        """
        if self._history is None:
            raise RuntimeError("step() before start()")
        if self.done:
            return False
        if self._budget.exhausted(self._history):
            self._stalled = True
            return False
        # A finished strategy launches nothing new, but probes already
        # in flight drain to completion — their machine time is spent
        # and their measurements exist.  Budget exhaustion, by
        # contrast, cancels pending probes (the check above).
        if self._loop_strategy.finished(self._history, self._space) and not (
            self.executor.has_pending()
        ):
            self._stalled = True
            return False
        trials = self.executor.run_round(
            self._loop_strategy,
            self._env,
            self._space,
            self._history,
            self._rng,
            self._budget,
            self._events,
        )
        if not trials:
            self._stalled = True
            return False
        self._events.round_end(self._history.num_rounds - 1, trials, self._history)
        return True

    def finish(self) -> TuningResult:
        """Cancel stranded in-flight probes and seal the result.

        Idempotent: the first call produces the result (and fires
        ``on_session_end``); later calls return the same object.
        """
        if self._history is None:
            raise RuntimeError("finish() before start()")
        if self._result is not None:
            return self._result
        if self.executor.has_pending():
            # Budget exhaustion is the only exit that strands in-flight
            # probes; bill the machine time they burned before the cut.
            self.executor.cancel_pending(self._history)
        result = TuningResult(
            strategy=self.strategy.name,
            history=self._history,
            best_trial=self._history.recommendation(),
            environment=self._env_like.describe(),
        )
        self._result = result
        self._events.session_end(result)
        return result

    def run(
        self,
        env: Optional[TrainingEnvironment],
        space: ConfigSpace,
        budget: TuningBudget,
        seed: int = 0,
        checkpoint: Union[CheckpointConfig, str, None] = None,
    ) -> TuningResult:
        """Execute the tuning session to completion and return its result."""
        self.start(env, space, budget, seed, checkpoint=checkpoint)
        while self.step():
            pass
        return self.finish()

    def restore(
        self,
        checkpoint: Union[CheckpointConfig, str],
        env: Optional[TrainingEnvironment],
        space: ConfigSpace,
    ) -> "TuningSession":
        """Restart this session from a checkpoint written by a prior run.

        The budget and seed come from the checkpoint's metadata; the
        strategy, space, and executor must match the originals (their
        fingerprints are validated — replay re-executes the original
        scheduling decisions, so a different executor shape or search
        space cannot reproduce the same stream).  Restoration is
        *replay*: the loop restarts from trial zero with every durable
        probe's recorded measurement substituted for the probe itself, so
        no machine time is re-spent, all derived state (RNG streams,
        surrogate caches, incumbents, executor free-lists) is rebuilt
        bit-identically, and the continuation keeps appending to the same
        write-ahead log.  After :meth:`restore`, drive the session with
        :meth:`step`/:meth:`finish` as usual (or call :meth:`resume` to
        do all three).
        """
        config = (
            checkpoint
            if isinstance(checkpoint, CheckpointConfig)
            else CheckpointConfig(checkpoint)
        )
        journal = CheckpointJournal.load(config)
        meta = journal.meta
        if meta.get("strategy") != self.strategy.name:
            raise CheckpointError(
                f"checkpoint {config.path!r} was written by strategy "
                f"{meta.get('strategy')!r}, not {self.strategy.name!r}"
            )
        if meta.get("space") != space_fingerprint(space):
            raise CheckpointError(
                f"checkpoint {config.path!r} was written against a different "
                f"search space ({meta.get('space')!r} vs "
                f"{space_fingerprint(space)!r})"
            )
        if meta.get("executor") != executor_fingerprint(self.executor):
            raise CheckpointError(
                f"checkpoint {config.path!r} was written under a different "
                f"executor ({meta.get('executor')!r} vs "
                f"{executor_fingerprint(self.executor)!r}); resume with the "
                f"same executor kind, worker count, and fleet shape"
            )
        budget_payload = meta.get("budget", {})
        budget = TuningBudget(
            max_trials=budget_payload.get("max_trials"),
            max_cost_s=budget_payload.get("max_cost_s"),
            max_wall_clock_s=budget_payload.get("max_wall_clock_s"),
        )
        seed = int(meta.get("seed", 0))
        return self.start(env, space, budget, seed, checkpoint=journal)

    def resume(
        self,
        checkpoint: Union[CheckpointConfig, str],
        env: Optional[TrainingEnvironment],
        space: ConfigSpace,
    ) -> TuningResult:
        """Resume from a checkpoint and run the session to completion.

        The result is bit-identical to what the uninterrupted run would
        have produced: the durable write-ahead prefix replays for free,
        the remainder probes live.  Resuming a checkpoint whose session
        already completed simply replays to the same final result.
        """
        self.restore(checkpoint, env, space)
        while self.step():
            pass
        return self.finish()
