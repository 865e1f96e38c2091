"""repro — reproduction of "Automating System Configuration of Distributed
Machine Learning" (ICDCS 2019).

A Bayesian-optimisation configuration tuner for distributed ML training,
plus everything needed to evaluate it offline: a discrete-event cluster and
training simulator, a workload zoo, comparator tuners, and a benchmark
harness that regenerates every table and figure of the (reconstructed)
evaluation.

Quickstart::

    from repro import MLConfigTuner, TuningBudget
    from repro.cluster import homogeneous
    from repro.configspace import ml_config_space
    from repro.mlsim import TrainingEnvironment
    from repro.workloads import get_workload

    env = TrainingEnvironment(get_workload("resnet50-imagenet"), homogeneous(16))
    result = MLConfigTuner().run(env, ml_config_space(16), TuningBudget(max_trials=40))
    print(result.best_config)

Parallel and asynchronous tuning
--------------------------------

Every strategy runs inside a :class:`~repro.core.session.TuningSession`
whose executor decides how probes execute.  One engine sits behind three
presets: the default ``SerialExecutor`` probes one configuration at a
time; ``AsyncExecutor(workers=K)`` keeps K probes in flight with no round
barrier — a freed worker pulls a fresh proposal at once, conditioned on
the probes still running; ``ParallelExecutor(workers=K)`` probes K per
synchronous round (the BO tuner diversifies each batch with constant-liar
fantasisation).  At one worker on one environment all three give
bit-identical sessions.  Every probe's machine cost is billed; wall-clock
is each worker's own timeline, or the round's slowest probe under the
barrier::

    from repro.core import AsyncExecutor

    result = MLConfigTuner().run(
        env, ml_config_space(16), TuningBudget(max_trials=40),
        executor=AsyncExecutor(workers=4),
    )
    print(result.total_cost_s, result.total_wall_clock_s)

Fleet sharding
--------------

A session can fan across several simulated clusters at once: an
:class:`~repro.core.fleet.EnvironmentPool` names each environment *shard*,
gives it a probe-slot capacity and a probe-speed multiplier, and a
pluggable :class:`~repro.core.fleet.ShardScheduler` (round-robin,
least-loaded, or cost-aware cheapest-eligible) places every launch.
Trials record the shard they ran on and the machine bill is itemised per
shard (``result.history.cost_by_shard()``)::

    from repro.core import EnvironmentPool, EnvironmentShard, executor_for

    pool = EnvironmentPool([
        EnvironmentShard("baseline", env_a),
        EnvironmentShard("spot", env_b, capacity=2, cost_multiplier=1.5),
    ])
    result = MLConfigTuner().run(
        None, ml_config_space(16), TuningBudget(max_trials=40),
        executor=executor_for(4, "async", pool=pool),
    )

The CLI exposes the same axes: ``python -m repro tune --workers 4
--executor async`` probes on a four-worker free-list, ``--max-wall-hours``
caps the stopwatch (``TuningBudget.max_wall_clock_s``), ``--trial-log
PATH`` streams the session record (the WAL's trial records) as JSON lines
for offline analysis, and
``--shards N`` / ``--shard-spec "std-cpu:16,gpu-v100:8x2@0.5"`` (with
``--scheduler``) fan the session across a fleet.  The ``P1``/``P2``/``P4``
experiments (``python -m repro experiment --id P4``) tabulate the
sync-vs-async wall-clock speedups, worker utilisation, and the
heterogeneous-fleet matched-quality speedup.

See README.md for the package layout and for the benchmarks with their
CI gates.
"""

from repro.core import (
    AsyncExecutor,
    Checkpoint,
    CheckpointConfig,
    CheckpointError,
    EnvironmentPool,
    EnvironmentShard,
    HistoryRepository,
    MLConfigTuner,
    ParallelExecutor,
    SearchStrategy,
    SerialExecutor,
    TenantSpec,
    TrialHistory,
    TuningBudget,
    TuningResult,
    TuningService,
    TuningSession,
)
from repro.mlsim import TrainingConfig, TrainingEnvironment

__version__ = "0.1.0"

__all__ = [
    "AsyncExecutor",
    "Checkpoint",
    "CheckpointConfig",
    "CheckpointError",
    "EnvironmentPool",
    "EnvironmentShard",
    "HistoryRepository",
    "MLConfigTuner",
    "ParallelExecutor",
    "SearchStrategy",
    "SerialExecutor",
    "TenantSpec",
    "TrainingConfig",
    "TrainingEnvironment",
    "TrialHistory",
    "TuningBudget",
    "TuningResult",
    "TuningService",
    "TuningSession",
    "__version__",
]
