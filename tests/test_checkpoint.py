"""Tests for the checkpoint/resume subsystem's serialization and recovery.

Covers the torn-write satellite end to end: payload round-trips at the
bit level, WAL torn-tail quarantine, a WAL with no readable header,
version mismatches, divergence detection, the durable trial log, and the
repository quarantine — every failure produces a clean named error or
recovers to the last durable record, never a raw ``json.JSONDecodeError``.
"""

import json
import os
import shutil
import warnings

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import (
    CHECKPOINT_VERSION,
    ChangePointDetector,
    Checkpoint,
    CheckpointConfig,
    CheckpointError,
    EnvironmentPool,
    EnvironmentShard,
    MLConfigTuner,
    RetuningPolicy,
    TuningBudget,
)
from repro.core.checkpoint import CheckpointJournal
from repro.core.fleet import FailureInjector, OutageWindow
from repro.core.session import (
    AsyncExecutor,
    JsonlTrialLog,
    SessionCallback,
    TuningSession,
)
from repro.core.transfer import HistoryRepository
from repro.core.trial import (
    RestoredEvent,
    Trial,
    TrialHistory,
    measurement_from_payload,
    measurement_to_payload,
)
from repro.harness.chaos import result_fingerprint
from repro.mlsim import StepDrift, TrainingEnvironment
from repro.workloads import get_workload

NODES = 8


def space():
    return ml_config_space(NODES)


def make_env(seed=0):
    return TrainingEnvironment(
        get_workload("resnet50-imagenet"), homogeneous(NODES), seed=seed
    )


def run_checkpointed(tmp_path, trials=8, seed=1, name="s.ckpt"):
    ckpt = CheckpointConfig(str(tmp_path / name))
    result = TuningSession(RandomSearch()).run(
        make_env(), space(), TuningBudget(max_trials=trials), seed=seed,
        checkpoint=ckpt,
    )
    return ckpt, result


# -- payload round-trips -----------------------------------------------------


def test_measurement_payload_roundtrip_is_bit_exact():
    env = make_env()
    rng = np.random.default_rng(0)
    from repro.configspace import to_training_config

    for _ in range(5):
        config = space().sample(rng)
        m = env.measure(to_training_config(config))
        m2 = measurement_from_payload(
            json.loads(json.dumps(measurement_to_payload(m)))
        )
        assert measurement_to_payload(m2) == measurement_to_payload(m)
        assert m2.objective == m.objective
        assert m2.tta_s == m.tta_s  # inf round-trips


def test_history_payload_roundtrip_is_bit_exact():
    result = TuningSession(RandomSearch()).run(
        make_env(), space(), TuningBudget(max_trials=6), seed=3
    )
    history = result.history
    history.record_event(RestoredEvent("marker", {"trial_index": 2}))
    payload = json.loads(json.dumps(history.to_payload()))
    restored = TrialHistory.from_payload(payload)
    assert restored.to_payload() == history.to_payload()
    assert restored.total_cost_s == history.total_cost_s
    assert restored.total_wall_clock_s == history.total_wall_clock_s
    assert restored.cost_by_shard() == history.cost_by_shard()
    assert restored.events[-1].trial_index == 2


def test_wal_probe_and_trial_records_are_strict_json(tmp_path):
    """Failed probes carry ``tta_s = inf``; the WAL writes it as the
    string ``"inf"``, which any JSON reader accepts, and reads it back."""
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"))
    env = TrainingEnvironment(
        get_workload("resnet50-imagenet"), homogeneous(16), seed=0
    )
    result = TuningSession(RandomSearch()).run(
        env, ml_config_space(16), TuningBudget(max_trials=40), seed=0,
        checkpoint=ckpt,
    )
    assert result.history.failed(), "the session must hold a failed probe"
    kinds = []
    with open(ckpt.wal_path) as handle:
        for line in handle:
            record = json.loads(line)
            record.pop("audit", None)
            json.dumps(record, allow_nan=False)  # raises on a non-finite float
            kinds.append(record["type"])
    assert kinds.count("probe") == kinds.count("trial") == 40
    loaded = Checkpoint.load(ckpt.path)
    assert loaded.history.to_payload() == result.history.to_payload()
    assert all(t.measurement.tta_s == float("inf") for t in loaded.history.failed())


def test_restored_event_preserves_fields_and_raises_on_missing():
    event = RestoredEvent("DriftEvent", {"trial_index": 7})
    assert event.trial_index == 7
    with pytest.raises(AttributeError):
        event.nonexistent


# -- torn-write recovery -----------------------------------------------------


def test_torn_final_wal_record_recovers_to_last_durable(tmp_path):
    ckpt, baseline = run_checkpointed(tmp_path)
    wal = ckpt.wal_path
    size = os.path.getsize(wal)
    with open(wal, "r+b") as handle:
        handle.truncate(size - 7)  # mid-record
    with pytest.warns(UserWarning, match="quarantined"):
        result = TuningSession(RandomSearch()).resume(ckpt, make_env(), space())
    # The torn tail re-probes live; the continuation is still identical.
    assert result.history.to_payload() == baseline.history.to_payload()
    assert os.path.exists(ckpt.quarantine_path)


def test_corrupt_wal_middle_quarantines_suffix(tmp_path):
    ckpt, baseline = run_checkpointed(tmp_path)
    with open(ckpt.wal_path) as handle:
        lines = handle.read().splitlines()
    lines[3] = '{"type": %% garbage'
    with open(ckpt.wal_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.warns(UserWarning, match="quarantined"):
        result = TuningSession(RandomSearch()).resume(ckpt, make_env(), space())
    assert result.history.to_payload() == baseline.history.to_payload()


def test_missing_wal_is_a_named_error(tmp_path):
    ckpt = CheckpointConfig(str(tmp_path / "nothing.ckpt"))
    with pytest.raises(CheckpointError, match="nothing to resume"):
        TuningSession(RandomSearch()).resume(ckpt, make_env(), space())


def test_wal_without_a_readable_header_is_a_named_error(tmp_path):
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"))
    with open(ckpt.wal_path, "w") as handle:
        handle.write("not json at all\n")
    with pytest.raises(CheckpointError, match="no readable header"):
        with pytest.warns(UserWarning, match="quarantined"):
            TuningSession(RandomSearch()).resume(ckpt, make_env(), space())
    with pytest.raises(CheckpointError, match="no readable header"):
        Checkpoint.load(ckpt.path)
    with pytest.raises(CheckpointError, match="no readable header"):
        Checkpoint.read_meta(ckpt.path)


def _rewrite_header(ckpt, edit):
    """Apply ``edit`` to the WAL's header record in place."""
    with open(ckpt.wal_path) as handle:
        lines = handle.read().splitlines()
    header = json.loads(lines[0])
    edit(header)
    lines[0] = json.dumps(header)
    with open(ckpt.wal_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def test_wal_header_version_mismatch_is_a_named_error(tmp_path):
    ckpt, _ = run_checkpointed(tmp_path)
    _rewrite_header(
        ckpt, lambda header: header.update(version=CHECKPOINT_VERSION + 1)
    )
    with pytest.raises(CheckpointError, match="version"):
        CheckpointJournal.load(ckpt)


def test_version_mismatch_is_a_named_error(tmp_path):
    """A checkpoint written by a newer version is refused by name on every
    read path: restore, resume, ``Checkpoint.load`` and
    ``Checkpoint.read_meta``."""
    ckpt, _ = run_checkpointed(tmp_path)
    _rewrite_header(
        ckpt, lambda header: header.update(version=CHECKPOINT_VERSION + 1)
    )
    with pytest.raises(CheckpointError, match="version"):
        TuningSession(RandomSearch()).restore(ckpt, make_env(), space())
    with pytest.raises(CheckpointError, match="version"):
        TuningSession(RandomSearch()).resume(ckpt, make_env(), space())
    with pytest.raises(CheckpointError, match="version"):
        Checkpoint.load(ckpt.path)
    with pytest.raises(CheckpointError, match="version"):
        Checkpoint.read_meta(ckpt.path)


# -- fingerprint/divergence validation ---------------------------------------


def test_resume_with_wrong_strategy_is_rejected(tmp_path):
    ckpt, _ = run_checkpointed(tmp_path)
    with pytest.raises(CheckpointError, match="strategy"):
        TuningSession(MLConfigTuner()).restore(ckpt, make_env(), space())


def test_resume_with_wrong_space_is_rejected(tmp_path):
    ckpt, _ = run_checkpointed(tmp_path)
    with pytest.raises(CheckpointError, match="search space"):
        TuningSession(RandomSearch()).restore(
            ckpt, make_env(), ml_config_space(NODES * 2)
        )


def test_resume_with_wrong_executor_is_rejected(tmp_path):
    from repro.core.session import AsyncExecutor

    ckpt, _ = run_checkpointed(tmp_path)
    with pytest.raises(CheckpointError, match="executor"):
        TuningSession(RandomSearch(), executor=AsyncExecutor(4)).restore(
            ckpt, make_env(), space()
        )


def test_resume_with_different_seed_diverges_loudly(tmp_path):
    ckpt, _ = run_checkpointed(tmp_path, seed=1)
    # Simulate operator error.
    _rewrite_header(ckpt, lambda header: header["meta"].update(seed=2))
    session = TuningSession(RandomSearch())
    with pytest.raises(CheckpointError, match="diverged"):
        session.restore(ckpt, make_env(), space())
        while session.step():
            pass


# -- CLI resume --------------------------------------------------------------


def _cli_tune(path, seed, *extra):
    from repro.cli import main as cli_main

    return cli_main([
        "tune", "--workload", "resnet50-imagenet", "--nodes", str(NODES),
        "--strategy", "random", "--trials", "6", "--seed", str(seed),
        "--checkpoint", path, *extra,
    ])


class TestCliResume:
    """``repro tune --resume`` parses the session's records once, and its
    seed check reads only the header, before anything touches the WAL."""

    def _torn_checkpoint(self, tmp_path, capsys):
        path = str(tmp_path / "cli.ckpt")
        assert _cli_tune(path, 3) == 0
        with open(path + ".wal", "rb") as handle:
            data = handle.read()
        with open(path + ".wal", "wb") as handle:
            handle.write(data[:-40])  # cut the end record short
        capsys.readouterr()
        return path

    def test_resume_parses_the_wal_once(self, tmp_path, capsys, monkeypatch):
        import repro.core.checkpoint as checkpoint_module

        path = self._torn_checkpoint(tmp_path, capsys)
        real = checkpoint_module._read_wal_records
        calls = []

        def spy(wal_path):
            calls.append(wal_path)
            return real(wal_path)

        monkeypatch.setattr(checkpoint_module, "_read_wal_records", spy)
        with pytest.warns(UserWarning, match="quarantined"):
            assert _cli_tune(path, 3, "--resume") == 0
        assert calls == [path + ".wal"]
        assert Checkpoint.load(path).status == "complete"

    def test_wrong_seed_exits_2_and_leaves_the_wal_unchanged(self, tmp_path, capsys):
        path = self._torn_checkpoint(tmp_path, capsys)
        with open(path + ".wal", "rb") as handle:
            before = handle.read()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _cli_tune(path, 4, "--resume") == 2
        assert capsys.readouterr().err == (
            "--resume: checkpoint was written with --seed 3; pass the same seed\n"
        )
        with open(path + ".wal", "rb") as handle:
            assert handle.read() == before
        assert not os.path.exists(path + ".wal.quarantine")


# -- inspection surface ------------------------------------------------------


def test_checkpoint_load_reports_progress(tmp_path):
    ckpt, result = run_checkpointed(tmp_path, trials=8)
    loaded = Checkpoint.load(ckpt.path)
    assert loaded.version == CHECKPOINT_VERSION
    assert loaded.status == "complete"
    assert len(loaded.history) == 8
    assert loaded.wal_trials == 8
    assert loaded.wal_probes >= 8
    assert loaded.meta["seed"] == 1
    assert loaded.meta["budget"]["max_trials"] == 8
    assert loaded.history.to_payload() == result.history.to_payload()


class CountingRandom(RandomSearch):
    """Random search whose audit state counts the trials it observed."""

    def reset(self):
        super().reset()
        self.observed = 0

    def observe(self, trial):
        super().observe(trial)
        self.observed += 1

    def snapshot_state(self):
        return {"observed": self.observed}


def test_snapshot_cadence_bounds_snapshot_staleness(tmp_path):
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"), every_n_trials=4)

    class Kill(Exception):
        pass

    class Killer(SessionCallback):
        def on_trial_end(self, trial):
            if trial.index == 5:
                raise Kill()

    session = TuningSession(CountingRandom(), callbacks=[Killer()])
    with pytest.raises(Kill):
        session.run(
            make_env(), space(), TuningBudget(max_trials=8), seed=1,
            checkpoint=ckpt,
        )
    loaded = Checkpoint.load(ckpt.path)
    # The history comes from the WAL's trial records, so it is never
    # stale; only the audit state follows the every-4-trials cadence.
    assert len(loaded.history) == loaded.wal_trials == 6
    assert loaded.status == "running"
    assert loaded.strategy_state == {"observed": 4}
    assert loaded.env_counters["env"]["trials_run"] == 4


@pytest.mark.parametrize("every", [1, 4])
def test_snapshot_is_written_at_session_start_and_end_only(
    tmp_path, monkeypatch, every
):
    """The session's end record is the one ``write_snapshot`` call."""
    calls = []
    write = CheckpointJournal.write_snapshot

    def counting(self, history, audit):
        calls.append(len(history))
        write(self, history, audit)

    monkeypatch.setattr(CheckpointJournal, "write_snapshot", counting)
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"), every_n_trials=every)
    TuningSession(RandomSearch()).run(
        make_env(), space(), TuningBudget(max_trials=9), seed=1, checkpoint=ckpt
    )
    assert calls == [9]
    with open(ckpt.wal_path) as handle:
        kinds = [json.loads(line)["type"] for line in handle]
    assert kinds.count("end") == 1 and kinds[-1] == "end"
    assert os.listdir(tmp_path) == ["s.ckpt.wal"]


def _old_layout(ckpt, result, version):
    """Rewrite a finished checkpoint in an older layout: a snapshot
    document at ``ckpt.path`` beside a WAL whose header reads
    ``version``.  Version 1 trial records held only the divergence
    fields; version 2 WALs held today's trial records but no end record."""
    with open(ckpt.wal_path) as handle:
        records = [json.loads(line) for line in handle]
    meta, end = records[0]["meta"], records[-1]
    with open(ckpt.path, "w") as handle:
        json.dump(
            {
                "version": version,
                "meta": meta,
                "status": "complete",
                "trials": len(result.history),
                "probes": len(result.history),
                "ledgers": end["ledgers"],
                "events": end["events"],
                "env_counters": end["audit"]["env_counters"],
                "strategy_state": None,
            },
            handle,
        )
    lines = [json.dumps({"type": "header", "version": version, "meta": meta})]
    for record in records[1:-1]:
        if record["type"] == "trial" and version == 1:
            trial = record["trial"]
            record = {
                "type": "trial",
                "index": trial["index"],
                "launch": trial["launch_index"],
                "round": trial["round_index"],
                "shard": trial["shard"],
                "objective": trial["measurement"]["objective"],
                "cost": trial["cumulative_cost_s"],
                "wall": trial["cumulative_wall_clock_s"],
            }
        lines.append(json.dumps(record))
    with open(ckpt.wal_path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def test_v1_checkpoint_is_a_named_version_error(tmp_path):
    """A checkpoint in an older layout (v1: the snapshot holds the
    history; v2: a snapshot beside a WAL with no end record) fails by
    version instead of being read as a running session."""
    for version in (1, 2):
        ckpt, result = run_checkpointed(tmp_path, name=f"v{version}.ckpt")
        _old_layout(ckpt, result, version)
        with pytest.raises(CheckpointError, match=f"version {version}"):
            TuningSession(RandomSearch()).restore(ckpt, make_env(), space())
        with pytest.raises(CheckpointError, match=f"version {version}"):
            Checkpoint.load(ckpt.path)


class _Inspector(SessionCallback):
    """Loads the checkpoint after every trial, as an outside reader would."""

    def __init__(self, path):
        self.path = path
        self.session = None
        self.views = []

    def on_trial_end(self, trial):
        loaded = Checkpoint.load(self.path)
        self.views.append(
            (loaded.history.to_payload(), self.session.history.to_payload())
        )


def test_loaded_history_matches_pooled_async_session_exactly(tmp_path):
    """Ledgers and events of the WAL view, mid-run and at the end.

    A pooled async BO session whose second shard goes down mid-run
    (preempting its in-flight probes), whose fleet drifts (one detected
    change-point), and whose cost cap cancels the probes still in flight.
    """
    ckpt = CheckpointConfig(str(tmp_path / "pool.ckpt"))
    pool = EnvironmentPool(
        [
            EnvironmentShard(
                f"s{i}",
                TrainingEnvironment(
                    get_workload("resnet50-imagenet"),
                    homogeneous(NODES),
                    seed=i,
                    drift=StepDrift(at_s=400.0, intensity=2.0),
                ),
                capacity=2,
                cost_multiplier=multiplier,
            )
            for i, multiplier in enumerate((1.0, 1.3))
        ],
        injector=FailureInjector(outages=[OutageWindow("s1", 800.0, 1400.0)]),
    )
    inspector = _Inspector(ckpt.path)
    session = TuningSession(
        MLConfigTuner(n_initial=4, seed=0),
        executor=AsyncExecutor(pool=pool),
        callbacks=[inspector],
        detector=ChangePointDetector(
            policy=RetuningPolicy(mode="discount"), warmup=4, window=6
        ),
    )
    inspector.session = session
    result = session.run(
        None, space(), TuningBudget(max_trials=40, max_cost_s=3600.0), seed=0,
        checkpoint=ckpt,
    )
    history = result.history
    last_live = inspector.views[-1][1][-1]["ledgers"]  # the end record's
    assert len(history.events) == 1  # the drift change-point
    assert last_live["cancelled_cost_s"] > 0  # outage preemptions
    assert history.cancelled_cost_s > last_live["cancelled_cost_s"]  # cost cap
    # Mid-run: the checkpoint shows the live history after every trial.
    assert len(inspector.views) == len(history)
    for loaded, live in inspector.views:
        assert loaded == live
    assert any(loaded[-1]["events"] for loaded, _ in inspector.views)
    # Complete: the end-of-session ledgers add the final cancellation.
    loaded = Checkpoint.load(ckpt.path)
    assert loaded.status == "complete"
    assert loaded.history.to_payload() == history.to_payload()


def run_wall_capped(tmp_path, name="async.ckpt"):
    """A 2-worker async session whose wall cap cancels the probes still
    in flight after its last trial."""
    ckpt = CheckpointConfig(str(tmp_path / name))
    result = TuningSession(RandomSearch(), executor=AsyncExecutor(2)).run(
        make_env(), space(), TuningBudget(max_wall_clock_s=3600.0), seed=1,
        checkpoint=ckpt,
    )
    return ckpt, result


def test_load_reads_the_final_cancellation_from_the_wal_alone(tmp_path):
    ckpt, result = run_wall_capped(tmp_path)
    history = result.history
    assert history.cancelled_cost_s > 0, "the wall cap must cancel a probe"
    assert history.total_cost_s > history[len(history) - 1].cumulative_cost_s
    alone = tmp_path / "alone"
    alone.mkdir()
    shutil.copy(ckpt.wal_path, alone / "copy.ckpt.wal")
    loaded = Checkpoint.load(str(alone / "copy.ckpt"))
    assert loaded.status == "complete"
    assert loaded.history.to_payload() == history.to_payload()
    assert loaded.history.cancelled_cost_s == history.cancelled_cost_s
    assert loaded.history.total_cost_s == history.total_cost_s
    assert loaded.env_counters["env"]["trials_run"] == len(history) + 1


def test_resuming_a_completed_checkpoint_leaves_its_wal_unchanged(tmp_path):
    ckpt, result = run_wall_capped(tmp_path)
    with open(ckpt.wal_path, "rb") as handle:
        before = handle.read()
    resumed = TuningSession(RandomSearch(), executor=AsyncExecutor(2)).resume(
        ckpt, make_env(), space()
    )
    assert result_fingerprint(resumed) == result_fingerprint(result)
    with open(ckpt.wal_path, "rb") as handle:
        after = handle.read()
    assert after == before
    kinds = [json.loads(line)["type"] for line in after.splitlines()]
    assert kinds.count("end") == 1 and kinds[-1] == "end"


def test_wal_cut_back_to_its_header_resumes_identically(tmp_path, monkeypatch):
    baseline = TuningSession(RandomSearch()).run(
        make_env(), space(), TuningBudget(max_trials=8), seed=1
    )
    fsyncs = []
    monkeypatch.setattr(os, "fsync", lambda fd: fsyncs.append(fd))
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"))
    session = TuningSession(RandomSearch()).start(
        make_env(), space(), TuningBudget(max_trials=8), seed=1, checkpoint=ckpt
    )
    # The header is the checkpoint's only file, and durable before the
    # first probe.
    assert len(fsyncs) == 1
    assert os.listdir(tmp_path) == ["s.ckpt.wal"]
    session.step()
    monkeypatch.undo()
    with open(ckpt.wal_path, "rb") as handle:
        header = handle.readline()
    with open(ckpt.wal_path, "wb") as handle:
        handle.write(header)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        resumed = TuningSession(RandomSearch()).resume(ckpt, make_env(), space())
    assert result_fingerprint(resumed) == result_fingerprint(baseline)


def test_non_json_audit_state_is_marked_not_fatal(tmp_path):
    class Opaque(RandomSearch):
        def snapshot_state(self):
            return {"handle": object()}

    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"), every_n_trials=2)
    result = TuningSession(Opaque()).run(
        make_env(), space(), TuningBudget(max_trials=4), seed=1, checkpoint=ckpt
    )
    marker = {"error": "snapshot_state() returned non-JSON state"}
    with open(ckpt.wal_path) as handle:
        audits = [
            record["audit"] for record in map(json.loads, handle)
            if "audit" in record
        ]
    # Trials 2 and 4, then the end record.
    assert [audit["strategy_state"] for audit in audits] == [marker] * 3
    loaded = Checkpoint.load(ckpt.path)
    assert loaded.strategy_state == marker
    assert loaded.history.to_payload() == result.history.to_payload()


def test_strategy_snapshot_state_is_recorded_for_bo(tmp_path):
    ckpt = CheckpointConfig(str(tmp_path / "s.ckpt"))
    TuningSession(MLConfigTuner(n_initial=4)).run(
        make_env(), space(), TuningBudget(max_trials=6), seed=2, checkpoint=ckpt
    )
    loaded = Checkpoint.load(ckpt.path)
    state = loaded.strategy_state
    assert state is not None
    assert state["incumbent"] is not None
    assert state["surrogate"]["n"] >= 4


# -- durable trial log -------------------------------------------------------


def test_durable_trial_log_matches_buffered(tmp_path):
    buffered, durable = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    TuningSession(RandomSearch(), callbacks=[JsonlTrialLog(buffered)]).run(
        make_env(), space(), TuningBudget(max_trials=5), seed=4
    )
    TuningSession(
        RandomSearch(), callbacks=[JsonlTrialLog(durable, durable=True)]
    ).run(make_env(), space(), TuningBudget(max_trials=5), seed=4)
    with open(buffered) as a, open(durable) as b:
        text = a.read()
        assert text == b.read()
    records = [json.loads(line) for line in text.splitlines()]
    assert [r["type"] for r in records] == ["header"] + ["trial"] * 5 + ["end"]


# -- repository quarantine ---------------------------------------------------


def _write_repo_with_corruption(path):
    repo = HistoryRepository(str(path))
    repo.add_session("w1", [({"a": 1}, 1.0), ({"a": 2}, 2.0)])
    repo.add_session("w2", [({"a": 3}, 3.0), ({"a": 4}, 4.0)])
    with open(path, "a") as handle:
        handle.write("{torn json line\n")
        handle.write('["not", "an", "object"]\n')


def test_repository_quarantines_corrupt_lines(tmp_path):
    path = tmp_path / "history.jsonl"
    _write_repo_with_corruption(path)
    with pytest.warns(UserWarning, match=r"history\.jsonl:3"):
        repo = HistoryRepository(str(path))
    assert len(repo) == 2
    assert repo.quarantined_lines == 2
    assert sorted(repo.workloads()) == ["w1", "w2"]
    with open(str(path) + ".quarantine") as handle:
        assert len(handle.read().splitlines()) == 2


def test_repository_quarantine_keeps_writes_working(tmp_path):
    path = tmp_path / "history.jsonl"
    _write_repo_with_corruption(path)
    with pytest.warns(UserWarning):
        repo = HistoryRepository(str(path))
    repo.add_session("w3", [({"a": 5}, 5.0), ({"a": 6}, 6.0)])
    clean = HistoryRepository(str(path))  # no warning: file was rewritten
    assert len(clean) == 3


# -- config validation -------------------------------------------------------


def test_checkpoint_config_validation():
    with pytest.raises(ValueError):
        CheckpointConfig("")
    with pytest.raises(ValueError):
        CheckpointConfig("x.ckpt", every_n_trials=0)
    ckpt = CheckpointConfig("x.ckpt")
    assert ckpt.wal_path == "x.ckpt.wal"
    assert ckpt.quarantine_path == "x.ckpt.wal.quarantine"
