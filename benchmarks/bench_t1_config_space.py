"""T1 — the configuration space table, plus sampling-throughput timing."""

import numpy as np

from conftest import emit
from repro.configspace import ml_config_space
from repro.harness.experiments import exp_t1_config_space


def bench_t1_config_space(benchmark):
    emit(exp_t1_config_space())

    space = ml_config_space(16)
    rng = np.random.default_rng(0)

    def kernel():
        return space.sample_batch(rng, 256)

    samples = benchmark(kernel)
    assert len(samples) == 256
    assert all(space.is_valid(s) for s in samples)
