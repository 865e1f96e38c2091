"""P1 — wall-clock speedup of K-way parallel probing.

The table runs the BO tuner under serial and parallel executors on one
trial budget and reports both cost axes (machine hours vs wall-clock
hours).  The timed kernel is one constant-liar round of proposals, each
member fantasising its predecessors as a ParallelExecutor asks for them —
the per-round overhead the executor adds on top of probing.
"""

import numpy as np

from conftest import emit
from repro.configspace import ml_config_space
from repro.core import TrialHistory
from repro.core.bo import BayesianProposer
from repro.harness.experiments import exp_p1_parallel_speedup
from repro.mlsim import Measurement, TrainingConfig


def bench_p1_parallel(benchmark):
    table = emit(
        exp_p1_parallel_speedup(budget_trials=30, worker_counts=(1, 2, 4))
    )
    assert "wall-clock hours" in table

    # Timed kernel: one 4-member constant-liar round on a 20-trial history.
    space = ml_config_space(16)
    rng = np.random.default_rng(0)
    history = TrialHistory()
    for _ in range(20):
        config = space.sample(rng)
        history.record(
            config,
            Measurement(
                config=TrainingConfig(),
                ok=True,
                fidelity="analytic",
                objective=float(rng.random() * 100),
                probe_cost_s=60.0,
            ),
        )
    proposer = BayesianProposer(space, n_initial=8, n_candidates=128, seed=0)

    def kernel():
        rng = np.random.default_rng(1)
        batch = []
        for _ in range(4):
            batch.append(proposer.propose(history, rng, pending=list(batch)))
        return batch

    batch = benchmark(kernel)
    assert len(batch) == 4
    assert all(space.is_valid(config) for config in batch)
