"""F2 — convergence curves: normalized best-so-far vs trial count.

The heavy sweep (3 workloads × 6 strategies × repeats) is memoised and
shared with F3.  The timed kernel is one GP fit + acquisition proposal on
a realistic 30-trial history — the per-trial compute cost of the tuner.
"""

import numpy as np

from conftest import emit
from repro.configspace import ml_config_space
from repro.core import TrialHistory
from repro.core.bo import BayesianProposer
from repro.harness.experiments import exp_f2_convergence
from repro.mlsim import Measurement, TrainingConfig


def bench_f2_convergence(benchmark):
    for table in exp_f2_convergence():
        emit(table)

    # Timed kernel: one model-based proposal over a 30-trial history.
    space = ml_config_space(16)
    rng = np.random.default_rng(0)
    history = TrialHistory()
    for i in range(30):
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
    proposer = BayesianProposer(space, n_initial=8, n_candidates=256, seed=0)

    def kernel():
        proposer._objective_cache.hypers = None  # force the full refit path
        return proposer.propose(history, np.random.default_rng(1))

    config = benchmark(kernel)
    assert space.is_valid(config)
