#!/usr/bin/env python3
"""Parallel tuning: probe K configurations per round on a simulated cluster.

Runs the BO tuner over the same trial budget serially and with a
``ParallelExecutor(workers=4)``, then compares the two cost axes the
session layer accounts: *machine cost* (every probe second, the cluster
bill) and *wall-clock* (only the slowest probe of each synchronous round —
what the person waiting for a configuration experiences).  A progress line
is logged per round, and the session record is streamed to a JSONL trial
log, which is read back at the end: it must rebuild the live history, or
the script exits non-zero.

Run:  python examples/parallel_tuning.py
"""

import json
import os
import sys
import tempfile

from repro import MLConfigTuner, TrialHistory, TuningBudget
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core.session import JsonlTrialLog, ParallelExecutor, ProgressLogger
from repro.harness import render_table
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload


def main() -> None:
    nodes = 16
    workers = 4
    workload = get_workload("resnet50-imagenet")
    cluster = homogeneous(nodes)
    space = ml_config_space(nodes)
    budget = TuningBudget(max_trials=36)
    trial_log = os.path.join(tempfile.gettempdir(), "parallel_tuning_trials.jsonl")

    print(f"Tuning {workload.name} on {nodes} nodes, budget {budget.max_trials} trials")

    serial = MLConfigTuner(seed=0).run(
        TrainingEnvironment(workload, cluster, seed=0), space, budget, seed=0
    )

    print(f"\nNow probing {workers} configurations per round "
          f"(each member proposed with its round-mates fantasised by the "
          f"constant liar, trial log -> {trial_log}):")
    parallel = MLConfigTuner(seed=0).run(
        TrainingEnvironment(workload, cluster, seed=0),
        space,
        budget,
        seed=0,
        executor=ParallelExecutor(workers),
        callbacks=[ProgressLogger(), JsonlTrialLog(trial_log)],
    )

    rows = []
    for label, result in (("serial", serial), (f"{workers}-way parallel", parallel)):
        rows.append(
            [
                label,
                result.best_objective,
                result.history.num_rounds,
                result.total_cost_s / 3600.0,
                result.total_wall_clock_s / 3600.0,
                serial.total_wall_clock_s / result.total_wall_clock_s,
            ]
        )
    print()
    print(render_table(
        ["execution", "best (samples/s)", "rounds", "machine hours",
         "wall-clock hours", "wall speedup"],
        rows,
    ))

    reach = parallel.history.wall_clock_to_reach(serial.best_objective)
    if reach is not None:
        print(f"\nThe parallel session matched the serial incumbent "
              f"({serial.best_objective:.1f} samples/s) after "
              f"{reach / 3600:.2f} wall-clock hours — "
              f"{serial.total_wall_clock_s / reach:.1f}x faster than the "
              f"serial session's {serial.total_wall_clock_s / 3600:.2f} hours.")

    with open(trial_log) as handle:
        logged = TrialHistory.from_payload(json.loads(line) for line in handle)
    if logged.to_payload() != parallel.history.to_payload():
        sys.exit(f"the trial log {trial_log} does not rebuild the session's history")
    print(f"\nThe trial log rebuilds all {len(logged)} trials of the parallel session.")


if __name__ == "__main__":
    main()
