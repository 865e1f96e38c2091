"""Crash-consistent checkpoint/resume for tuning sessions.

Everything the tuner accumulates over a session — trial history, RNG
streams, surrogate caches, budget ledgers, executor free-lists — lives in
memory, so a process crash at trial 180 of a 200-trial session used to
throw the whole session away.  This module makes sessions durable with
one artifact per checkpoint path: an append-only **write-ahead log**
(``<path>.wal``, JSON lines) holding

- one ``header`` record (version and session metadata: strategy, seed,
  budget, space/executor fingerprints), ``fsync``'d when the checkpoint
  is created, so a log cut back to its header still resumes;
- one ``probe`` record per executor-level :meth:`SearchStrategy.measure`
  call — the measurement that came back, at *pre-shard-scaling* values,
  plus the environment's probe counters after the call — ``fsync``'d
  before the session acts on the result;
- one ``trial`` record per recorded trial, the session record of
  :func:`~repro.core.trial.trial_record` that the ``--trial-log`` file
  holds too: the trial itself, the history's running ledgers after it
  (total cost, total wall, cancelled cost, cost by shard) and any
  history events recorded since the previous trial record.  Every
  ``every_n_trials``-th trial record also carries the audit state (the
  strategy's :meth:`~SearchStrategy.snapshot_state` and the environment
  probe counters).  Trial records are only flushed: resume re-derives
  them — they are the replay's divergence check — and appends land in
  file order, so the next probe's ``fsync`` makes them durable too;
- at session end, one ``end`` record: the
  :func:`~repro.core.trial.end_record` the trial log closes with (final
  ledgers and trailing events — cancellation charges, outage waits)
  plus the audit state.  Closing the log ``fsync``'s it.

The log is thus the trial log's shape with probe records and audit
added, and it is always consistent up to its last complete line.
:meth:`Checkpoint.load` rebuilds the history from it
(:meth:`~repro.core.trial.TrialHistory.from_payload`), so a mid-run
inspection shows every trial the log holds; the session is ``complete``
exactly when the last durable record is the end record.

Resume is **replay**, not state surgery: the loop restarts from trial
zero with the same seed and re-executes every deterministic proposal,
substituting each recorded measurement for the probe it describes (no
machine time is re-spent) and restoring the environment's noise counters
as it goes.  All derived state — RNG streams, GP surrogate caches and
their hyper-refit cadence, incumbents, executor free-lists, scheduler
cursors, cancellation billing — is thereby reconstructed *bit-identical*
by construction, which is exactly the property snapshot-restoring a GP's
Cholesky factors cannot promise (``extend`` matches a refit only to
~1e-8).  Once the log is exhausted the session falls through to live
probing and keeps appending, so kill → resume → kill → resume chains
work, and any durable WAL prefix yields a continuation bit-identical to
the uninterrupted run.  Resuming a completed session appends from the
start of its end record, so the continuation overwrites it with the same
bytes: a log holds at most one end record, always the last.

Torn writes: a crash can leave a partial final WAL line.  On load, the
log is parsed up to its last durable record; everything after the first
torn or corrupt line is moved to a ``<path>.wal.quarantine`` sidecar
(with one warning naming the file) and the log is truncated there.  The
lost suffix costs nothing but the re-probe of its measurements — the
continuation is still bit-identical.  A log with no readable header
fails with a named :class:`CheckpointError`, never a raw decoder
traceback.  A trial record lost with the tail (say, cut off right after
its probe record) is re-appended when resume reaches that trial live.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from typing import IO, Callable, List, Optional

from repro.configspace import ConfigDict, ConfigSpace
from repro.core.strategy import SearchStrategy, TuningBudget
from repro.core.trial import (
    Trial,
    TrialHistory,
    end_record,
    measurement_from_payload,
    measurement_to_payload,
    trial_record,
)

#: Bump on any incompatible change to the WAL record layout.
CHECKPOINT_VERSION = 3


class CheckpointError(RuntimeError):
    """A checkpoint that cannot be written, read, or resumed from."""


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often a session checkpoints.

    ``path`` names the checkpoint; its one file, the write-ahead log, is
    ``path + ".wal"`` (nothing is written at ``path`` itself).
    ``every_n_trials`` is the audit cadence: every N-th trial record also
    carries the strategy's audit state and the environment probe
    counters.  The trials themselves are in every trial record
    regardless, so the cadence only bounds how stale the *inspectable*
    audit state may be, never how much work a crash loses and never what
    resume does.
    """

    path: str
    every_n_trials: int = 1

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("checkpoint path must be non-empty")
        if self.every_n_trials < 1:
            raise ValueError("every_n_trials must be >= 1")

    @property
    def wal_path(self) -> str:
        return self.path + ".wal"

    @property
    def quarantine_path(self) -> str:
        return self.wal_path + ".quarantine"


def space_fingerprint(space: ConfigSpace) -> dict:
    """The space signature a resume must match.

    Covers encoded dims, names, and each parameter's type/range row —
    two spaces over the same names but different bounds (say,
    ``ml_config_space(8)`` vs ``ml_config_space(16)``) must not pass.
    """
    return {
        "dims": int(space.dims),
        "names": list(space.names()),
        "params": space.describe(),
    }


def executor_fingerprint(executor) -> dict:
    """The executor signature a resume must match.

    Replay re-executes the original scheduling decisions, so the executor
    class, worker count, and fleet shape must all be identical — a
    4-worker WAL replayed on 2 workers would interleave differently.
    """
    pool = getattr(executor, "pool", None)
    return {
        "kind": type(executor).__name__,
        "workers": int(executor.workers),
        "pool": None if pool is None else pool.fingerprint(),
    }


def budget_payload(budget: TuningBudget) -> dict:
    """A budget's caps as JSON (the checkpoint meta and trial-log header)."""
    return {
        "max_trials": budget.max_trials,
        "max_cost_s": budget.max_cost_s,
        "max_wall_clock_s": budget.max_wall_clock_s,
    }


def session_meta(
    strategy: SearchStrategy,
    seed: int,
    budget: TuningBudget,
    space: ConfigSpace,
    executor,
) -> dict:
    """The metadata block a resume validates against (and restores from)."""
    return {
        "strategy": strategy.name,
        "seed": int(seed),
        "budget": budget_payload(budget),
        "space": space_fingerprint(space),
        "executor": executor_fingerprint(executor),
    }


def env_counter_payload(env) -> dict:
    """The probe counters that key an environment's noise streams."""
    trials_run = getattr(env, "trials_run", None)
    cost = getattr(env, "total_probe_cost_s", None)
    return {
        "trials_run": None if trials_run is None else int(trials_run),
        "total_probe_cost_s": None if cost is None else float(cost),
    }


def _restore_env_counters(env, payload: dict) -> None:
    """Stamp recorded probe counters onto a (freshly built) environment.

    :class:`~repro.mlsim.TrainingEnvironment` keys every probe's noise
    and failure draw on ``trials_run`` (via per-trial RNG forks), so
    restoring the counter re-aligns the noise stream exactly; the first
    live probe after replay draws the same randomness it would have drawn
    in the uninterrupted run.
    """
    if payload.get("trials_run") is not None and hasattr(env, "trials_run"):
        env.trials_run = int(payload["trials_run"])
    if payload.get("total_probe_cost_s") is not None and hasattr(
        env, "total_probe_cost_s"
    ):
        env.total_probe_cost_s = float(payload["total_probe_cost_s"])


def _read_wal_records(wal_path: str):
    """Parse the WAL up to its last durable record.

    Returns ``(records, durable_offset, last_offset, torn_tail)``:
    ``last_offset`` is where the last durable record starts, and
    everything from the first unparseable line (or a final line with no
    newline — a record is written newline-included in one buffered write,
    so a missing newline means the write was cut short) onward is the
    torn tail.  A header record of another version raises
    :class:`CheckpointError`.
    """
    with open(wal_path, "rb") as handle:
        data = handle.read()
    records: List[dict] = []
    offset = last = 0
    torn = b""
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline == -1:
            torn = data[offset:]
            break
        line = data[offset:newline]
        try:
            record = json.loads(line.decode("utf-8"))
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError("not a WAL record object")
        except (ValueError, UnicodeDecodeError):
            torn = data[offset:]
            break
        records.append(record)
        last, offset = offset, newline + 1
    if records and records[0]["type"] == "header":
        _check_version(records[0].get("version"), f"checkpoint WAL {wal_path!r}")
    return records, offset, last, torn


def _header_meta(wal_path: str, records: List[dict]) -> dict:
    """Session metadata from the WAL's header record."""
    header = records[0] if records else {}
    if header.get("type") != "header" or not isinstance(header.get("meta"), dict):
        raise CheckpointError(
            f"checkpoint WAL {wal_path!r} has no readable header record"
        )
    return dict(header["meta"])


def _check_version(version, what: str) -> None:
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{what} has version {version!r}; this build supports version "
            f"{CHECKPOINT_VERSION}"
        )


def _encode(payload: dict, audit: Optional[dict] = None) -> bytes:
    """``payload`` as UTF-8 JSON, encoded in one shot (the C encoder).

    ``audit`` is the dict inside ``payload`` holding the strategy's
    ``strategy_state``.  An unserialisable audit payload must never take
    the checkpoint down with it — the audit is forensics, the probe
    records are the restore path — so it is replaced by an error marker
    and the payload encoded again.
    """
    try:
        text = json.dumps(payload)
    except (TypeError, ValueError):
        if audit is None:
            raise
        audit["strategy_state"] = {
            "error": "snapshot_state() returned non-JSON state"
        }
        text = json.dumps(payload)
    return text.encode("utf-8")


@dataclass
class Checkpoint:
    """A loaded checkpoint, for inspection (``repro`` never mutates it).

    ``history`` is rebuilt from the WAL's records, so it is never staler
    than the log: ``len(history) == wal_trials``.  ``status`` is
    ``complete`` when the last durable record is the session's end record,
    else ``running``.  ``strategy_state`` and ``env_counters`` come from
    the newest record carrying the audit state, at most ``every_n_trials``
    trials old while the session runs (``None`` and ``{}`` before the
    first).  ``wal_probes`` / ``wal_trials`` count the durable WAL
    records.
    """

    version: int
    meta: dict
    status: str
    history: TrialHistory
    strategy_state: Optional[dict]
    env_counters: dict
    wal_probes: int
    wal_trials: int

    @staticmethod
    def read_meta(path: str) -> dict:
        """The session metadata in the header of the checkpoint at ``path``.

        Reads only the WAL's first line, so it costs the same on a long log
        and leaves a torn tail for a resume to quarantine.  A header of
        another version raises :class:`CheckpointError`, as a full read does.
        """
        wal_path = CheckpointConfig(path).wal_path
        try:
            with open(wal_path, "rb") as handle:
                line = handle.readline()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None
        try:
            header = json.loads(line) if line.endswith(b"\n") else None
        except ValueError:  # includes UnicodeDecodeError
            header = None
        if isinstance(header, dict) and header.get("type") == "header":
            _check_version(header.get("version"), f"checkpoint WAL {wal_path!r}")
        return _header_meta(wal_path, [header] if isinstance(header, dict) else [])

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Load the checkpoint at ``path`` (its WAL) for offline inspection."""
        wal_path = CheckpointConfig(path).wal_path
        try:
            records, *_ = _read_wal_records(wal_path)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None
        meta = _header_meta(wal_path, records)
        state, counters = None, {}
        try:
            history = TrialHistory.from_payload(records)
            for record in records:
                audit = record.get("audit")
                if audit is not None:
                    state, counters = audit["strategy_state"], audit["env_counters"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} has a malformed ledger or trial record: "
                f"{exc!r}"
            ) from None
        return cls(
            version=CHECKPOINT_VERSION,
            meta=meta,
            status="complete" if records[-1]["type"] == "end" else "running",
            history=history,
            strategy_state=state,
            env_counters=dict(counters),
            wal_probes=sum(1 for r in records if r["type"] == "probe"),
            wal_trials=len(history),
        )


class CheckpointJournal:
    """The live read/write surface of one checkpoint's WAL.

    Created by :meth:`create` for a fresh session (truncates any previous
    checkpoint at the path) or :meth:`load` for a resume (replays the
    durable WAL prefix, quarantining a torn tail).  The session wires it
    in through :class:`JournalledStrategy` (probe records) and a session
    callback (:meth:`on_trial`, and :meth:`write_snapshot` then
    :meth:`close` at session end).
    """

    def __init__(
        self,
        config: CheckpointConfig,
        meta: dict,
        probes: Optional[List[dict]] = None,
        trials: Optional[List[dict]] = None,
        append_offset: Optional[int] = None,
    ) -> None:
        self.config = config
        self.meta = meta
        self._probes = list(probes or [])
        self._trials = list(trials or [])
        self._cursor = 0
        # History events already carried by a trial record.
        self._events_logged = 0
        self._probe_count = len(self._probes)
        self._handle: Optional[IO[bytes]] = None
        self._append_offset = append_offset

    # -- construction ------------------------------------------------------

    @classmethod
    def create(cls, config: CheckpointConfig, meta: dict) -> "CheckpointJournal":
        """Start a fresh checkpoint: a WAL holding the fsync'd header.

        Any existing checkpoint at the path is overwritten — starting a
        new session at the same path means the old session's state is no
        longer wanted (resume via :meth:`load` instead to keep it).
        """
        journal = cls(config, meta)
        directory = os.path.dirname(os.path.abspath(config.wal_path))
        os.makedirs(directory, exist_ok=True)
        journal._handle = open(config.wal_path, "wb")
        journal._append(
            {"type": "header", "version": CHECKPOINT_VERSION, "meta": meta},
            sync=True,
        )
        return journal

    @classmethod
    def load(cls, config: CheckpointConfig) -> "CheckpointJournal":
        """Open an existing checkpoint for resume.

        Reads the durable WAL prefix (quarantining and truncating any
        torn/corrupt tail), takes session metadata from the header, and
        positions the journal to replay every durable probe record before
        appending live ones — from the start of a completed session's end
        record, which the continuation writes again.
        """
        wal_path = config.wal_path
        if not os.path.exists(wal_path):
            raise CheckpointError(
                f"no write-ahead log at {wal_path!r}: nothing to resume from"
            )
        records, durable_offset, last_offset, torn = _read_wal_records(wal_path)
        if torn:
            with open(config.quarantine_path, "ab") as sidecar:
                sidecar.write(torn)
                if not torn.endswith(b"\n"):
                    sidecar.write(b"\n")
            with open(wal_path, "r+b") as handle:
                handle.truncate(durable_offset)
            warnings.warn(
                f"{wal_path}: quarantined {len(torn)} bytes of torn/corrupt "
                f"tail to {config.quarantine_path}; resuming from the last "
                f"durable record",
                stacklevel=2,
            )
        meta = _header_meta(wal_path, records)
        if records[-1]["type"] == "end":
            durable_offset = last_offset
        probes = [r for r in records if r["type"] == "probe"]
        trials = [r for r in records if r["type"] == "trial"]
        return cls(config, meta, probes, trials, append_offset=durable_offset)

    # -- replay ------------------------------------------------------------

    @property
    def replaying(self) -> bool:
        """True while durable probe records remain to be replayed."""
        return self._cursor < len(self._probes)

    def next_probe_record(self) -> Optional[dict]:
        """The next probe record to replay, or None once live."""
        if self._cursor >= len(self._probes):
            return None
        record = self._probes[self._cursor]
        self._cursor += 1
        return record

    def replay_measurement(self, record: dict, env, config: ConfigDict):
        """The recorded measurement for one replayed probe.

        Verifies the replayed proposal matches what the record was
        written for (a mismatch means the session was resumed with a
        different seed, space, strategy, or environment — fail with a
        named error rather than silently corrupting the continuation)
        and restores the environment's probe counters to their
        post-probe values, so the first live probe after replay draws
        the exact noise the uninterrupted run would have drawn.
        """
        recorded = record.get("config", {})
        if dict(config) != recorded:
            raise CheckpointError(
                f"resume diverged at probe #{record.get('k', '?')}: the "
                f"session proposed {dict(config)!r} but the write-ahead log "
                f"recorded {recorded!r}; was the session resumed with a "
                f"different seed, space, strategy, or environment?"
            )
        _restore_env_counters(env, record.get("env", {}))
        return measurement_from_payload(record["measurement"])

    # -- recording ---------------------------------------------------------

    def _append(
        self, record: dict, sync: bool = False, audit: Optional[dict] = None
    ) -> None:
        if self._handle is None:
            # Lazily reopened on the first live append after a resume —
            # truncated once to the offset computed at load (the torn tail,
            # if any, was already quarantined there).
            handle = open(self.config.wal_path, "r+b")
            if self._append_offset is not None:
                handle.truncate(self._append_offset)
                self._append_offset = None
            handle.seek(0, os.SEEK_END)
            self._handle = handle
        self._handle.write(_encode(record, audit) + b"\n")
        self._handle.flush()
        if sync:
            os.fsync(self._handle.fileno())

    def record_probe(self, config: ConfigDict, measurement, env) -> None:
        """Append one live probe's WAL record (durable before use)."""
        self._append(
            {
                "type": "probe",
                "k": self._probe_count,
                "config": dict(config),
                "measurement": measurement_to_payload(measurement),
                "env": env_counter_payload(env),
            },
            sync=True,
        )
        self._probe_count += 1

    def on_trial(
        self, trial: Trial, history: TrialHistory, audit: Callable[[], dict]
    ) -> bool:
        """Record (or, in the replay region, verify) one recorded trial.

        Returns True for a live trial, whose record is appended: the
        trial, ``history``'s ledgers after it, the events recorded since
        the previous trial record, and — every ``every_n_trials``-th
        trial — ``audit()``.  The record is flushed but not fsync'd (see
        the module docstring).  A replayed trial that disagrees with its
        WAL record means the replay diverged; fail loudly.
        """
        if trial.index < len(self._trials):
            recorded = self._trials[trial.index]["trial"]
            if (
                recorded["cumulative_cost_s"] != trial.cumulative_cost_s
                or recorded["cumulative_wall_clock_s"]
                != trial.cumulative_wall_clock_s
                or recorded["measurement"]["objective"] != trial.objective
            ):
                raise CheckpointError(
                    f"resume diverged at trial {trial.index}: replay produced "
                    f"(objective={trial.objective!r}, "
                    f"cost={trial.cumulative_cost_s!r}, "
                    f"wall={trial.cumulative_wall_clock_s!r}) but the "
                    f"write-ahead log recorded "
                    f"(objective={recorded['measurement']['objective']!r}, "
                    f"cost={recorded['cumulative_cost_s']!r}, "
                    f"wall={recorded['cumulative_wall_clock_s']!r})"
                )
            self._events_logged = len(history.events)
            return False
        record = trial_record(trial, history, self._events_logged)
        self._events_logged = len(history.events)
        if (trial.index + 1) % self.config.every_n_trials == 0:
            record["audit"] = audit()
        self._append(record, audit=record.get("audit"))
        return True

    def write_snapshot(self, history: TrialHistory, audit: dict) -> None:
        """Append the session's end record: :func:`end_record` (the final
        ledgers and the events no trial record carries) plus ``audit``.

        The log's last record, flushed but not fsync'd — :meth:`close`
        does that.  The name is kept from when the end of a session wrote
        a separate snapshot file, because ``perfbench/spans.py`` wraps
        this method (as ``ckpt.snapshot``).
        """
        record = end_record(history, self._events_logged)
        record["audit"] = audit
        self._append(record, audit=audit)

    def close(self) -> None:
        """Make every appended record durable and release the log."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None


class JournalledStrategy(SearchStrategy):
    """Strategy proxy threading every probe through the journal.

    Delegates all proposal/observation hooks to the wrapped strategy;
    only :meth:`measure` is intercepted — during replay it pops the next
    durable probe record instead of probing (restoring environment
    counters as it goes), and once the log is exhausted it probes live
    and appends the record before the executor acts on the result.
    The session uses this proxy for its loop only; callbacks and the
    result still see the inner strategy.
    """

    def __init__(self, inner: SearchStrategy, journal: CheckpointJournal) -> None:
        self.inner = inner
        self._journal = journal
        self.name = inner.name

    def propose(self, history, space, rng, pending=(), shard=None):
        return self.inner.propose(history, space, rng, pending=pending, shard=shard)

    def observe(self, trial) -> None:
        self.inner.observe(trial)

    def finished(self, history, space) -> bool:
        return self.inner.finished(history, space)

    def reset(self) -> None:
        self.inner.reset()

    def snapshot_state(self) -> Optional[dict]:
        return self.inner.snapshot_state()

    def measure(self, env, config: ConfigDict):
        record = self._journal.next_probe_record()
        if record is not None:
            return self._journal.replay_measurement(record, env, config)
        measurement = self.inner.measure(env, config)
        self._journal.record_probe(config, measurement, env)
        return measurement
