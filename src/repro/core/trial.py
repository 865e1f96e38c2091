"""Trials and tuning history.

A :class:`Trial` records one configuration probe: the typed configuration,
the measurement that came back, and bookkeeping (index, round, cumulative
machine cost and wall-clock).  :class:`TrialHistory` is the append-only log
a tuner builds up; it exposes the derived series the evaluation plots
(best-so-far, cumulative cost).

Two cost axes are tracked.  *Machine cost* (``cumulative_cost_s``) sums
every probe second regardless of where it ran — the bill for the whole
cluster, including the partial seconds burned by probes cancelled at a
budget boundary (:meth:`TrialHistory.charge_cancelled`, itemised in
``cancelled_cost_s``).  *Wall-clock* (``cumulative_wall_clock_s``) is what
a stopwatch next to the tuning session reads: serial probing accrues every
probe, K-way-parallel probing accrues only the slowest probe of each round.

The *session record* is defined here too: JSON objects keyed by
``type`` — :func:`trial_record` and :func:`end_record` write them.  The
checkpoint WAL, the ``--trial-log`` file and the experiment memo
(:meth:`TrialHistory.to_payload`) all hold such records, and
:meth:`TrialHistory.from_payload` rebuilds a history from any of them.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.configspace import ConfigDict
from repro.mlsim import Measurement


def billable_cost_s(cost_s: float) -> float:
    """``cost_s`` if it is a finite, non-negative probe cost, else 0.0.

    :meth:`TrialHistory.record` stores a probe with any other cost as a
    failed trial billed 0.0; executors apply the same rule to probes that
    are still in flight.
    """
    return cost_s if math.isfinite(cost_s) and cost_s >= 0.0 else 0.0


def _strict(value: Optional[float]):
    """``value``, or ``"inf"``/``"-inf"``/``"nan"``, which ``float()`` reads."""
    return value if value is None or math.isfinite(value) else repr(float(value))


def measurement_to_payload(measurement: Measurement) -> dict:
    """A JSON-exact payload for a :class:`~repro.mlsim.Measurement`.

    Every field is a strict-JSON scalar: Python's ``json`` round-trips
    floats via ``repr`` (bit-exact), a non-finite one (a failed probe's
    ``tta_s``) is written as a string, and the config is a
    :class:`~repro.mlsim.config.TrainingConfig` of plain scalars, so
    ``measurement_from_payload(measurement_to_payload(m)) == m`` holds
    bit-for-bit — the property the checkpoint WAL's replay guarantee
    rests on.
    """
    return {
        "config": measurement.config.to_dict(),
        "ok": bool(measurement.ok),
        "fidelity": measurement.fidelity,
        "error": measurement.error,
        "throughput": _strict(measurement.throughput),
        "iteration_time_s": _strict(measurement.iteration_time_s),
        "mean_staleness": _strict(measurement.mean_staleness),
        "tta_s": _strict(measurement.tta_s),
        "probe_cost_s": _strict(measurement.probe_cost_s),
        "objective": _strict(measurement.objective),
    }


def measurement_from_payload(payload: dict) -> Measurement:
    """Inverse of :func:`measurement_to_payload`."""
    from repro.mlsim.config import TrainingConfig

    return Measurement(
        config=TrainingConfig.from_dict(payload["config"]),
        ok=bool(payload["ok"]),
        fidelity=payload["fidelity"],
        error=payload["error"],
        throughput=float(payload["throughput"]),
        iteration_time_s=float(payload["iteration_time_s"]),
        mean_staleness=float(payload["mean_staleness"]),
        tta_s=float(payload["tta_s"]),
        probe_cost_s=float(payload["probe_cost_s"]),
        objective=(
            None if payload["objective"] is None else float(payload["objective"])
        ),
    )


class RestoredEvent:
    """A session event deserialised from a checkpoint.

    Original event objects (e.g. :class:`~repro.core.detect.DriftEvent`)
    are serialised field-by-field when their fields are JSON-safe; this
    shim re-exposes those fields as attributes so consumers like
    :meth:`TrialHistory.recommendation` (which reads ``trial_index``)
    keep working on an inspected history.  Events whose fields do not
    serialise keep only their ``repr`` under the ``detail`` attribute.
    """

    def __init__(self, kind: str, fields: Optional[dict] = None, detail: str = ""):
        self.kind = kind
        self.fields = dict(fields) if fields else {}
        self.detail = detail

    def __getattr__(self, name: str):
        fields = self.__dict__.get("fields", {})
        if name in fields:
            return fields[name]
        raise AttributeError(name)

    def __repr__(self) -> str:
        body = self.fields if self.fields else self.detail
        return f"RestoredEvent({self.kind}, {body})"


def event_to_payload(event: object) -> dict:
    """Serialise a history event: fields when JSON-safe, repr otherwise."""
    kind = type(event).__name__
    if isinstance(event, RestoredEvent):
        # The original event's own payload shape, so a restored history
        # re-serialises to the payload it was restored from.
        payload: dict = {"kind": event.kind}
        if event.fields or not event.detail:
            payload["fields"] = event.fields
        if event.detail:
            payload["detail"] = event.detail
        return payload
    if dataclasses.is_dataclass(event) and not isinstance(event, type):
        try:
            fields = dataclasses.asdict(event)
            json.dumps(fields)
            return {"kind": kind, "fields": fields}
        except (TypeError, ValueError):
            pass
    return {"kind": kind, "detail": repr(event)}


@dataclass(frozen=True)
class Trial:
    """One configuration probe and its outcome.

    ``round_index`` groups trials probed concurrently (serial execution
    gives every trial its own round); ``cumulative_wall_clock_s`` is the
    session wall-clock at which this trial's own probe completed — under
    parallel probing that is its round's start plus its own probe cost,
    so round-mates carry different stamps and the stamp of a cheap probe
    is independent of slower round-mates.

    ``launch_index`` is the ordinal at which the probe was *launched* —
    the index ``on_trial_start`` fired with.  Under the synchronous
    executors it equals ``index``; under asynchronous execution trials
    are recorded in completion order, so it is the key that correlates a
    trial with its start event.

    ``shard`` names the environment shard the probe ran on when the
    session fanned across an :class:`~repro.core.fleet.EnvironmentPool`;
    ``None`` for single-environment sessions.
    """

    index: int
    config: ConfigDict
    measurement: Measurement
    cumulative_cost_s: float
    round_index: int = 0
    cumulative_wall_clock_s: float = 0.0
    launch_index: int = 0
    shard: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the probe ran to completion."""
        return self.measurement.ok

    @property
    def objective(self) -> Optional[float]:
        """Measured objective (higher is better); None for failed probes."""
        return self.measurement.objective

    def to_payload(self) -> dict:
        """A JSON-exact payload round-tripping through :meth:`from_payload`."""
        return {
            "index": self.index,
            "config": dict(self.config),
            "measurement": measurement_to_payload(self.measurement),
            "cumulative_cost_s": self.cumulative_cost_s,
            "round_index": self.round_index,
            "cumulative_wall_clock_s": self.cumulative_wall_clock_s,
            "launch_index": self.launch_index,
            "shard": self.shard,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Trial":
        """Inverse of :meth:`to_payload`."""
        return cls(
            index=int(payload["index"]),
            config=dict(payload["config"]),
            measurement=measurement_from_payload(payload["measurement"]),
            cumulative_cost_s=float(payload["cumulative_cost_s"]),
            round_index=int(payload["round_index"]),
            cumulative_wall_clock_s=float(payload["cumulative_wall_clock_s"]),
            launch_index=int(payload["launch_index"]),
            shard=payload["shard"],
        )


class TrialHistory:
    """Append-only log of trials with derived evaluation series."""

    def __init__(self) -> None:
        self._trials: List[Trial] = []
        self.total_cost_s = 0.0
        self.total_wall_clock_s = 0.0
        self.cancelled_cost_s = 0.0
        self._cost_by_shard: Dict[Optional[str], float] = {}
        self.events: List[object] = []

    def record(
        self,
        config: ConfigDict,
        measurement: Measurement,
        *,
        wall_clock_s: Optional[float] = None,
        round_index: Optional[int] = None,
        completed_at_wall_s: Optional[float] = None,
        launch_index: Optional[int] = None,
        shard: Optional[str] = None,
    ) -> Trial:
        """Append a trial, accumulating its probe cost and wall-clock.

        ``wall_clock_s`` is this trial's contribution to the session's
        running wall-clock and defaults to the probe cost (serial
        execution).  A parallel executor spreads each round's wall-clock
        (the slowest member) over the round's trials and stamps every
        trial with ``completed_at_wall_s`` — the round's start plus the
        trial's own probe cost — so stamps are physical completion times,
        independent of batch order; within a round they are not monotone
        in trial index.  ``round_index`` defaults to a fresh round per
        trial.  ``launch_index`` defaults to the recording index (launch
        and completion order coincide outside async execution).
        ``shard`` itemises the probe's machine cost under that shard in
        :meth:`cost_by_shard` (single-environment probes accrue under the
        ``None`` key).

        A measurement reported ``ok`` with a NaN or infinite objective is
        stored as a failed trial (``ok=False``, ``objective=None``, an
        error naming the value): one such value would otherwise poison
        every later surrogate fit and make :meth:`best` order-dependent.
        Likewise a NaN, infinite or negative ``probe_cost_s`` is stored as
        a failed trial billed 0.0 (error ``invalid probe cost nan``): one
        such cost would otherwise turn ``total_cost_s`` into NaN, which
        never reaches a cost cap.
        """
        objective = measurement.objective
        if measurement.ok and objective is not None and not math.isfinite(objective):
            measurement = dataclasses.replace(
                measurement,
                ok=False,
                objective=None,
                error=f"non-finite objective {float(objective)}",
            )
        cost = measurement.probe_cost_s
        if billable_cost_s(cost) != cost:  # NaN, infinite or negative
            error = f"invalid probe cost {float(cost)}"
            if measurement.error:
                error = f"{measurement.error}; {error}"
            measurement = dataclasses.replace(
                measurement, ok=False, objective=None, probe_cost_s=0.0, error=error
            )
        if wall_clock_s is None:
            wall_clock_s = measurement.probe_cost_s
        if round_index is None:
            round_index = self.num_rounds
        self.total_cost_s += measurement.probe_cost_s
        self.total_wall_clock_s += wall_clock_s
        self._cost_by_shard[shard] = (
            self._cost_by_shard.get(shard, 0.0) + measurement.probe_cost_s
        )
        trial = Trial(
            index=len(self._trials),
            config=dict(config),
            measurement=measurement,
            cumulative_cost_s=self.total_cost_s,
            round_index=round_index,
            cumulative_wall_clock_s=(
                completed_at_wall_s
                if completed_at_wall_s is not None
                else self.total_wall_clock_s
            ),
            launch_index=(
                launch_index if launch_index is not None else len(self._trials)
            ),
            shard=shard,
        )
        self._trials.append(trial)
        return trial

    def charge_cancelled(self, cost_s: float, shard: Optional[str] = None) -> None:
        """Bill machine time burned by a probe cancelled before completion.

        A probe cut short at a budget boundary produced no trial, but the
        machine seconds it ran before cancellation were still spent — the
        cluster bill does not refund them.  The charge raises
        ``total_cost_s`` (and is itemised in ``cancelled_cost_s``) without
        appending a trial, so trial counts and per-trial series are
        untouched.  ``shard`` attributes the charge in
        :meth:`cost_by_shard` so the per-shard itemisation keeps summing
        to ``total_cost_s`` even across cancellations.
        """
        if cost_s < 0:
            raise ValueError("cost_s must be non-negative")
        self.cancelled_cost_s += cost_s
        self.total_cost_s += cost_s
        self._cost_by_shard[shard] = self._cost_by_shard.get(shard, 0.0) + cost_s

    def advance_wall_clock(self, dt_s: float) -> None:
        """Move the session wall-clock forward without recording a trial.

        Dead time the session spends *waiting* rather than probing — e.g.
        every shard down in an outage window — still elapses on the
        stopwatch.  No machine cost accrues.
        """
        if dt_s < 0:
            raise ValueError("dt_s must be non-negative")
        self.total_wall_clock_s += dt_s

    def record_event(self, event: object) -> None:
        """Append a session-level event (e.g. a detected change-point).

        Events live alongside the trial log — ordered by insertion, not
        charged to any cost axis — so experiments can correlate detector
        output with the trial timeline after the fact.
        """
        self.events.append(event)

    def clone(self) -> "TrialHistory":
        """A metadata-preserving copy sharing the (frozen) trial records.

        Unlike replaying trials through :meth:`record`, the clone keeps
        every trial's ``round_index`` and wall-clock stamps and both
        running totals bit-identical.  :class:`Trial` is frozen, so
        sharing the records is safe; appending to the clone never touches
        the original.
        """
        copy = TrialHistory()
        copy._trials = list(self._trials)
        copy.total_cost_s = self.total_cost_s
        copy.total_wall_clock_s = self.total_wall_clock_s
        copy.cancelled_cost_s = self.cancelled_cost_s
        copy._cost_by_shard = dict(self._cost_by_shard)
        copy.events = list(self.events)
        return copy

    def to_payload(self) -> List[dict]:
        """The history as session records: one trial record per trial,
        then an end record with the ledgers and every event.

        Trials and ledgers round-trip bit-exactly through
        :meth:`from_payload`.  Events are serialised field-by-field when
        JSON-safe and by ``repr`` otherwise (see :class:`RestoredEvent`),
        so a rebuilt history keeps e.g. a drift event's ``trial_index``
        but not the original event class.
        """
        return [trial_record(trial) for trial in self._trials] + [end_record(self)]

    def ledger_payload(self) -> dict:
        """The running ledgers; ``cost_by_shard`` as ``[shard-or-null,
        seconds]`` pairs, because JSON object keys cannot be ``None``."""
        return {
            "total_cost_s": self.total_cost_s,
            "total_wall_clock_s": self.total_wall_clock_s,
            "cancelled_cost_s": self.cancelled_cost_s,
            "cost_by_shard": [
                [shard, cost] for shard, cost in self._cost_by_shard.items()
            ],
        }

    @classmethod
    def from_payload(cls, records: Iterable[dict]) -> "TrialHistory":
        """The history that session ``records`` describe (a trial log, a
        WAL, or :meth:`to_payload`).

        Trials come from trial records, the ledgers from the last record
        carrying them, and events (as :class:`RestoredEvent`) from every
        record in order.  Header and probe records, and audit content,
        are skipped.
        """
        history = cls()
        ledgers = None
        for record in records:
            kind = record["type"]
            if kind == "trial":
                history._trials.append(Trial.from_payload(record["trial"]))
            elif kind != "end":
                continue
            ledgers = record.get("ledgers", ledgers)
            history.events.extend(
                RestoredEvent(item["kind"], item.get("fields"), item.get("detail", ""))
                for item in record.get("events", ())
            )
        if ledgers is not None:
            history.total_cost_s = float(ledgers["total_cost_s"])
            history.total_wall_clock_s = float(ledgers["total_wall_clock_s"])
            history.cancelled_cost_s = float(ledgers["cancelled_cost_s"])
            history._cost_by_shard = {
                shard: float(cost) for shard, cost in ledgers["cost_by_shard"]
            }
        return history

    def cost_by_shard(self) -> Dict[Optional[str], float]:
        """Machine cost itemised per environment shard.

        Keys are shard names (``None`` collects probes that ran outside a
        pool); values include cancellation charges attributed to the
        shard, so the values always sum to ``total_cost_s``.
        """
        return dict(self._cost_by_shard)

    def wall_clock_by_shard(self) -> Dict[Optional[str], float]:
        """Latest completion stamp per shard — each shard's own timeline.

        Derived from the trials' physical completion times; a shard that
        finished its last probe early shows a shorter timeline than the
        session's total wall-clock (the makespan across all shards).
        """
        timelines: Dict[Optional[str], float] = {}
        for trial in self._trials:
            stamp = trial.cumulative_wall_clock_s
            if stamp > timelines.get(trial.shard, 0.0):
                timelines[trial.shard] = stamp
        return timelines

    @property
    def num_rounds(self) -> int:
        """Number of probe rounds recorded so far."""
        return self._trials[-1].round_index + 1 if self._trials else 0

    def __len__(self) -> int:
        return len(self._trials)

    def __iter__(self) -> Iterator[Trial]:
        return iter(self._trials)

    def __getitem__(self, index: int) -> Trial:
        return self._trials[index]

    @property
    def trials(self) -> List[Trial]:
        """All trials in execution order (a copy-safe view)."""
        return list(self._trials)

    def successful(self) -> List[Trial]:
        """Trials whose probe completed."""
        return [t for t in self._trials if t.ok]

    def failed(self) -> List[Trial]:
        """Trials whose probe crashed (infeasible configuration)."""
        return [t for t in self._trials if not t.ok]

    def best(self, since_index: Optional[int] = None) -> Optional[Trial]:
        """The successful trial with the highest objective, or None.

        ``since_index`` restricts the search to trials with
        ``index >= since_index`` — the building block for drift-aware
        recommendations, where measurements taken before a detected
        change-point are no longer comparable to those taken after.
        """
        candidates = self.successful()
        if since_index is not None:
            candidates = [t for t in candidates if t.index >= since_index]
        if not candidates:
            return None
        return max(candidates, key=lambda t: t.objective)

    def recommendation(self) -> Optional[Trial]:
        """The trial a deployment should copy its configuration from.

        With no recorded change-point events this is :meth:`best`.  After
        a detected change-point (any event exposing ``trial_index``),
        only trials measured *after* the latest one count: pre-change
        measurements were taken on a surface that no longer exists, so a
        stale record objective must not outrank a fresh, honest one.
        Falls back to the global best while the post-change window is
        still empty.
        """
        cutoff = None
        for event in self.events:
            index = getattr(event, "trial_index", None)
            if index is not None:
                cutoff = int(index) + 1 if cutoff is None else max(cutoff, int(index) + 1)
        if cutoff is not None:
            fresh = self.best(since_index=cutoff)
            if fresh is not None:
                return fresh
        return self.best()

    def best_objective(self) -> Optional[float]:
        """Best measured objective so far, or None if nothing succeeded."""
        best = self.best()
        return best.objective if best else None

    def best_so_far_series(self) -> List[Optional[float]]:
        """Best objective after each trial (None until the first success).

        This is the y-axis of the convergence figures (F2).
        """
        series: List[Optional[float]] = []
        best: Optional[float] = None
        for trial in self._trials:
            if trial.ok and (best is None or trial.objective > best):
                best = trial.objective
            series.append(best)
        return series

    def cost_series(self) -> List[float]:
        """Cumulative probe cost (simulated seconds) after each trial."""
        return [t.cumulative_cost_s for t in self._trials]

    def wall_clock_series(self) -> List[float]:
        """Per-trial completion time on the session wall-clock.

        Monotone under serial execution; under parallel probing the
        members of one round carry their own completion offsets.
        """
        return [t.cumulative_wall_clock_s for t in self._trials]

    def wall_clock_to_reach(self, threshold: float) -> Optional[float]:
        """Earliest wall-clock (simulated seconds) at which ``threshold`` held.

        The minimum completion stamp over qualifying trials — under
        parallel probing a cheap round-mate can reach the threshold before
        an earlier-indexed slow probe completes.
        """
        times = [
            t.cumulative_wall_clock_s
            for t in self._trials
            if t.ok and t.objective >= threshold
        ]
        return min(times) if times else None


def trial_record(
    trial: Trial, history: Optional[TrialHistory] = None, events_from: int = 0
) -> dict:
    """The session record of one trial.

    With ``history`` (the live history ``trial`` was just recorded in) it
    also carries the ledgers and any events from index ``events_from`` on:
    the record the checkpoint WAL and the trial log write per trial.
    """
    record = {"type": "trial", "trial": trial.to_payload()}
    if history is not None:
        record["ledgers"] = history.ledger_payload()
        if len(history.events) > events_from:
            record["events"] = [
                event_to_payload(event) for event in history.events[events_from:]
            ]
    return record


def end_record(history: TrialHistory, events_from: int = 0) -> dict:
    """The record that closes a session: the final ledgers and the events
    from index ``events_from`` on."""
    events = history.events[events_from:]
    return {
        "type": "end",
        "ledgers": history.ledger_payload(),
        "events": [event_to_payload(event) for event in events],
    }
