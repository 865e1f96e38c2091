"""P2 — barrier-free async probing: worker utilisation vs the round barrier.

The table runs the BO tuner at one trial budget per (workers, mode) pair
and reports how much worker-time the sync barrier wastes versus the async
free-list.  The timed kernel is one ``BayesianProposer.propose`` call
with three configurations pending — the per-launch proposal overhead the
async executor adds on top of probing (one constant-liar fantasy per
in-flight probe, against a 20-trial history).
"""

import numpy as np

from conftest import emit
from repro.configspace import ml_config_space
from repro.core import TrialHistory
from repro.core.bo import BayesianProposer
from repro.harness.experiments import exp_p2_async_speedup
from repro.mlsim import Measurement, TrainingConfig


def bench_p2_async(benchmark):
    table = emit(
        exp_p2_async_speedup(budget_trials=30, worker_counts=(2, 4))
    )
    assert "utilisation" in table
    assert "async" in table

    # Timed kernel: one proposal conditioned on 3 in-flight probes.
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
    pending = [space.sample(rng) for _ in range(3)]
    proposer = BayesianProposer(space, n_initial=8, n_candidates=128, seed=0)

    def kernel():
        return proposer.propose(history, np.random.default_rng(1), pending=pending)

    config = benchmark(kernel)
    assert space.is_valid(config)
