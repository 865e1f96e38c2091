"""Chaos tests: kill sessions at arbitrary points and prove resume is exact.

Pins the PR's acceptance property: for serial, async, and pooled
executors, a session killed at an arbitrary trial index and resumed from
its checkpoint produces a final TuningResult — trials, objectives,
cost/wall/shard ledgers, best config, environment counters — bit-identical
to the uninterrupted same-seed run.  Also covers chained crashes, torn
WAL tails on the crash path, outage-injected fleets, and TuningService
crash recovery (restart the tenant, leave neighbours unperturbed).
"""

import json
import os

import pytest

from repro.baselines import RandomSearch
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import (
    CheckpointConfig,
    EnvironmentPool,
    EnvironmentShard,
    MLConfigTuner,
    RoundRobinScheduler,
    TenantSpec,
    TuningBudget,
    TuningService,
)
from repro.core.fleet import FailureInjector, OutageWindow
from repro.core.service import training_shard_templates
from repro.core.session import AsyncExecutor, SerialExecutor, executor_for
from repro.core.strategy import SearchStrategy
from repro.harness.chaos import (
    ChaosKill,
    KillSwitch,
    kill_resume_cycle,
    kill_resume_sweep,
    result_fingerprint,
    resume_session,
    run_baseline,
    run_with_kill,
    tear_wal,
)
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload

NODES = 8
RESNET = get_workload("resnet50-imagenet")


def space():
    return ml_config_space(NODES)


def env_factory(seed=0):
    return lambda: TrainingEnvironment(RESNET, homogeneous(NODES), seed=seed)


def bo_factory():
    return MLConfigTuner(n_initial=4)


def two_shard_pool():
    env = TrainingEnvironment(RESNET, homogeneous(NODES), seed=0)
    return EnvironmentPool(
        [
            EnvironmentShard("std", env, capacity=2),
            EnvironmentShard(
                "spot",
                TrainingEnvironment(RESNET, homogeneous(NODES), seed=1),
                capacity=2,
                cost_multiplier=0.6,
            ),
        ],
        scheduler=RoundRobinScheduler(),
    )


# One cell per acceptance executor: serial, async(workers=4), pooled.
EXECUTOR_CELLS = {
    "serial": (lambda: SerialExecutor(), env_factory()),
    "async4": (lambda: AsyncExecutor(workers=4), env_factory()),
    "pooled": (
        lambda: executor_for(4, mode="async", pool=two_shard_pool()),
        lambda: None,
    ),
}


class TestKillResumeMatrix:
    @pytest.mark.parametrize("cell", sorted(EXECUTOR_CELLS))
    def test_bo_session_resumes_bit_identical(self, cell, tmp_path):
        executor_factory, environment_factory = EXECUTOR_CELLS[cell]
        records = kill_resume_sweep(
            bo_factory,
            executor_factory,
            environment_factory,
            space(),
            TuningBudget(max_trials=10),
            str(tmp_path),
            kill_points=(1, 4, 8),
            seed=3,
        )
        assert [r["killed"] for r in records] == [True, True, True]
        assert all(r["identical"] for r in records), records
        assert all(r["trials"] == 10 for r in records)

    def test_every_index_sweep_random_search(self, tmp_path):
        records = kill_resume_sweep(
            lambda: RandomSearch(),
            lambda: SerialExecutor(),
            env_factory(seed=2),
            space(),
            TuningBudget(max_trials=8),
            str(tmp_path),
            kill_points=None,  # every trial index of the baseline
            seed=5,
        )
        assert len(records) == 8
        assert all(r["killed"] for r in records)
        assert all(r["identical"] for r in records), records

    def test_kill_resume_kill_chain(self, tmp_path):
        executor_factory, environment_factory = EXECUTOR_CELLS["serial"]
        baseline = run_baseline(
            bo_factory,
            executor_factory,
            environment_factory,
            space(),
            TuningBudget(max_trials=10),
            seed=3,
        )
        chained = kill_resume_cycle(
            bo_factory,
            executor_factory,
            environment_factory,
            space(),
            TuningBudget(max_trials=10),
            CheckpointConfig(str(tmp_path / "chain.ckpt")),
            kill_points=(2, 5, 8),
            seed=3,
        )
        assert result_fingerprint(chained) == result_fingerprint(baseline)

    def test_torn_wal_after_crash_still_resumes_identically(self, tmp_path):
        executor_factory, environment_factory = EXECUTOR_CELLS["serial"]
        budget = TuningBudget(max_trials=8)
        baseline = run_baseline(
            lambda: RandomSearch(),
            executor_factory,
            environment_factory,
            space(),
            budget,
            seed=7,
        )
        checkpoint = CheckpointConfig(str(tmp_path / "torn.ckpt"))
        assert run_with_kill(
            lambda: RandomSearch(),
            executor_factory,
            environment_factory,
            space(),
            budget,
            checkpoint,
            kill_at=5,
            seed=7,
        )
        tear_wal(checkpoint.wal_path, drop_bytes=9)  # crash mid-write(2)
        with pytest.warns(UserWarning, match="quarantined"):
            resumed = resume_session(
                lambda: RandomSearch(),
                executor_factory,
                environment_factory,
                space(),
                checkpoint,
            )
        assert result_fingerprint(resumed) == result_fingerprint(baseline)

    @pytest.mark.parametrize("cell", sorted(EXECUTOR_CELLS))
    def test_lost_trial_record_is_reappended_on_resume(self, cell, tmp_path):
        # Trial records are not fsync'd: a machine crash right after
        # trial k's probe record can lose trial k's record.  Resume must
        # still be exact and write the lost record again.
        executor_factory, environment_factory = EXECUTOR_CELLS[cell]
        budget = TuningBudget(max_trials=10)
        baseline = run_baseline(
            bo_factory, executor_factory, environment_factory, space(), budget,
            seed=3,
        )
        checkpoint = CheckpointConfig(str(tmp_path / "lost.ckpt"))
        assert run_with_kill(
            bo_factory, executor_factory, environment_factory, space(), budget,
            checkpoint, kill_at=5, seed=3,
        )
        with open(checkpoint.wal_path, "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        lost = json.loads(lines[-1])
        assert lost["type"] == "trial" and lost["trial"]["index"] == 5
        if cell == "serial":
            probe = json.loads(lines[-2])
            assert probe["type"] == "probe"
            assert probe["config"] == lost["trial"]["config"]
        with open(checkpoint.wal_path, "wb") as handle:
            handle.writelines(lines[:-1])
        resumed = resume_session(
            bo_factory, executor_factory, environment_factory, space(), checkpoint
        )
        assert result_fingerprint(resumed) == result_fingerprint(baseline)
        with open(checkpoint.wal_path) as handle:
            trials = [
                record for record in map(json.loads, handle)
                if record["type"] == "trial"
            ]
        assert [r["trial"]["index"] for r in trials] == list(range(10))
        # The trial and its ledgers come back bit-identical (the audit
        # state is forensics and may differ after a replay).
        assert trials[5]["trial"] == lost["trial"]
        assert trials[5]["ledgers"] == lost["ledgers"]

    def test_outage_injected_pool_resumes_identically(self, tmp_path):
        def pooled_factory():
            env = TrainingEnvironment(RESNET, homogeneous(NODES), seed=0)
            pool = EnvironmentPool(
                [
                    EnvironmentShard("a", env, capacity=2),
                    EnvironmentShard("b", env, capacity=2, cost_multiplier=1.3),
                ],
                scheduler=RoundRobinScheduler(),
                injector=FailureInjector(
                    outages=[OutageWindow(shard="b", start_s=0.0, end_s=2e4)]
                ),
            )
            return executor_for(2, mode="async", pool=pool)

        records = kill_resume_sweep(
            lambda: RandomSearch(),
            pooled_factory,
            lambda: None,
            space(),
            TuningBudget(max_trials=8),
            str(tmp_path),
            kill_points=(2, 6),
            seed=9,
        )
        assert all(r["identical"] for r in records), records


class TestKillSwitch:
    def test_fires_once_and_disarms(self):
        switch = KillSwitch(kill_at=2)

        class T:
            index = 2

        with pytest.raises(ChaosKill):
            switch.on_trial_end(T())
        switch.on_trial_end(T())  # disarmed: the resumed run sails past
        assert switch.fired

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            KillSwitch(-1)


class _CrashOnce(SearchStrategy):
    """Crashes the first armed instance after ``healthy`` proposals.

    ``shared`` survives across factory calls, so the rebuilt strategy a
    recovery constructs is healthy — modelling a transient fault (OOM,
    node loss) rather than a deterministic bug.
    """

    name = "crash-once"

    def __init__(self, shared, healthy=3):
        self.shared = shared
        self.healthy = healthy
        self._calls = 0

    def reset(self):
        self._calls = 0

    def propose(self, history, space, rng, pending=(), shard=None):
        self._calls += 1
        if self.shared.get("armed") and self._calls > self.healthy:
            self.shared["armed"] = False
            raise RuntimeError("transient tenant crash")
        return space.sample(rng)


class _AlwaysCrash(SearchStrategy):
    """Crashes after three proposals on every instance — a real bug."""

    name = "crash-once"  # same name so the resume fingerprint matches

    def __init__(self):
        self._calls = 0

    def reset(self):
        self._calls = 0

    def propose(self, history, space, rng, pending=(), shard=None):
        self._calls += 1
        if self._calls > 3:
            raise RuntimeError("deterministic tenant crash")
        return space.sample(rng)


def _service(**kwargs):
    kwargs.setdefault("repository", None)
    return TuningService(
        training_shard_templates(nodes=NODES, cost_multipliers=(1.0, 1.25, 0.8, 1.5)),
        ml_config_space(NODES),
        **kwargs,
    )


def _crash_spec(shared, trials=8, seed=1):
    return TenantSpec(
        "flaky",
        lambda: _CrashOnce(shared),
        TuningBudget(max_trials=trials),
        seed=seed,
        slots=2,
        workload=RESNET,
        executor_mode="serial",
    )


def _tenant(name, seed=0, trials=8):
    return TenantSpec(
        name,
        lambda: RandomSearch(),
        TuningBudget(max_trials=trials),
        seed=seed,
        slots=2,
        workload=RESNET,
    )


def _trajectory(result):
    return [(t.config, t.objective, t.shard) for t in result.history.trials]


class TestServiceRecovery:
    def test_crashed_tenant_recovers_bit_identical(self, tmp_path):
        alone = _service().run_standalone(_crash_spec({"armed": False}))
        svc = _service(checkpoint_dir=str(tmp_path))
        handle = svc.submit(_crash_spec({"armed": True}))
        svc.run()
        assert handle.state == "done"
        assert handle.recoveries == 1
        assert _trajectory(handle.result) == _trajectory(alone)

    def test_recovery_leaves_neighbour_unperturbed(self, tmp_path):
        neighbour_alone = _service().run_standalone(_tenant("b", seed=2))
        svc = _service(checkpoint_dir=str(tmp_path))
        svc.submit(_crash_spec({"armed": True}, seed=1))
        svc.submit(_tenant("b", seed=2))
        result = svc.run()
        states = {h.spec.name: h.state for h in result.tenants}
        assert states == {"flaky": "done", "b": "done"}
        good = next(h for h in result.tenants if h.spec.name == "b")
        assert _trajectory(good.result) == _trajectory(neighbour_alone)
        # Ledger invariant survives the rollback-and-replay accounting.
        recorded = sum(svc.recorded_cost_by_shard.values())
        assert recorded <= svc.total_cost_s() + 1e-9

    def test_repeated_crash_exhausts_max_recoveries(self, tmp_path):
        svc = _service(checkpoint_dir=str(tmp_path))
        # A deterministic bug: the rebuilt instance crashes again too.
        doomed = TenantSpec(
            "doomed",
            lambda: _AlwaysCrash(),
            TuningBudget(max_trials=12),
            seed=1,
            slots=2,
            workload=RESNET,
            executor_mode="serial",
        )
        handle = svc.submit(doomed)
        svc.run()
        assert handle.state == "failed"
        assert handle.recoveries == 1
        assert "crash" in str(handle.error)

    def test_no_checkpoint_dir_means_no_recovery(self):
        svc = _service()
        handle = svc.submit(_crash_spec({"armed": True}))
        svc.run()
        assert handle.state == "failed"
        assert handle.recoveries == 0

    def test_tenant_checkpoint_files_are_written(self, tmp_path):
        svc = _service(checkpoint_dir=str(tmp_path))
        svc.submit(_tenant("a/b c", seed=1, trials=4))
        svc.run()
        names = sorted(os.listdir(tmp_path))
        assert "a_b_c.ckpt.wal" in names
        assert "a_b_c.ckpt" not in names
