"""A1 — acquisition-function ablation (EI / PI / UCB / EI-per-cost)."""

import numpy as np

from conftest import emit
from repro.core import (
    expected_improvement,
    expected_improvement_per_cost,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.harness.experiments import exp_a1_acquisition


def bench_a1_acquisition(benchmark):
    table = emit(exp_a1_acquisition())
    assert "eipc" in table

    rng = np.random.default_rng(0)
    mu = rng.random(2048) * 100
    sigma = rng.random(2048) + 0.1
    cost = rng.random(2048) * 100 + 1

    def kernel():
        return (
            expected_improvement(mu, sigma, 50.0),
            probability_of_improvement(mu, sigma, 50.0),
            upper_confidence_bound(mu, sigma, beta=2.0),
            expected_improvement_per_cost(mu, sigma, 50.0, cost),
        )

    results = benchmark(kernel)
    assert all(len(r) == 2048 for r in results)
