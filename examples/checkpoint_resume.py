#!/usr/bin/env python3
"""Crash-safe tuning: checkpoint a session, kill it mid-run, resume exactly.

Runs the BO tuner with a crash-consistent checkpoint (fsynced write-ahead
log + atomic snapshot at session start and end), simulates a process
crash partway through, inspects the crashed checkpoint (its history is
rebuilt from the write-ahead log, so it holds every logged trial), then
resumes from the checkpoint with freshly-built components — and shows the
resumed result is bit-identical to an uninterrupted run of the same seed.

Run:  python examples/checkpoint_resume.py

CLI equivalent:

    python -m repro tune --trials 20 --checkpoint /tmp/tune.ckpt
    # ... process dies ...
    python -m repro tune --trials 20 --checkpoint /tmp/tune.ckpt --resume
"""

import tempfile
import os

from repro import (
    Checkpoint,
    CheckpointConfig,
    MLConfigTuner,
    TrainingEnvironment,
    TuningBudget,
    TuningSession,
)
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.harness import result_fingerprint
from repro.harness.chaos import ChaosKill, KillSwitch
from repro.workloads import get_workload


def main() -> None:
    nodes = 8
    workload = get_workload("resnet50-imagenet")
    space = ml_config_space(nodes)
    budget = TuningBudget(max_trials=20)

    def env():
        return TrainingEnvironment(workload, homogeneous(nodes), seed=0)

    # The uninterrupted run every crash cycle is compared against.
    baseline = TuningSession(MLConfigTuner(n_initial=4)).run(
        env(), space, budget, seed=3
    )
    print(f"baseline: {len(baseline.history)} trials, "
          f"best objective {baseline.best_objective:.4f}")

    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = CheckpointConfig(
            os.path.join(scratch, "tune.ckpt"), every_n_trials=1
        )

        # Same session, checkpointed — and killed after trial 11 records.
        session = TuningSession(
            MLConfigTuner(n_initial=4), callbacks=[KillSwitch(kill_at=11)]
        )
        try:
            session.run(env(), space, budget, seed=3, checkpoint=checkpoint)
        except ChaosKill:
            print("crashed the session at trial 11 "
                  f"(WAL: {os.path.getsize(checkpoint.wal_path)} bytes)")

        # Offline inspection of the crashed run: the history comes from
        # the WAL's trial records, so it is never staler than the log.
        crashed = Checkpoint.load(checkpoint.path)
        print(f"inspected: status {crashed.status}, "
              f"{len(crashed.history)} trials, {crashed.wal_trials} in the WAL")
        assert crashed.status == "running"
        assert len(crashed.history) == crashed.wal_trials == 12

        # A restarted process has nothing but the checkpoint: fresh
        # strategy, fresh environment.  Replay rebuilds all of it.
        resumed = TuningSession(MLConfigTuner(n_initial=4)).resume(
            checkpoint, env(), space
        )
        print(f"resumed:  {len(resumed.history)} trials, "
              f"best objective {resumed.best_objective:.4f}")

    identical = result_fingerprint(resumed) == result_fingerprint(baseline)
    print(f"bit-identical to the uninterrupted run: {identical}")
    assert identical


if __name__ == "__main__":
    main()
