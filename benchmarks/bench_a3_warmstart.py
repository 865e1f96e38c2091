"""A3 — warm-start ablation: OtterTune-style workload mapping."""

import numpy as np

from conftest import emit
from repro.core import HistoryRepository
from repro.harness.experiments import exp_a3_warmstart


def bench_a3_warmstart(benchmark):
    table = emit(exp_a3_warmstart())
    assert "warm-start" in table

    # Timed kernel: repository session ingestion + normalisation.
    rng = np.random.default_rng(0)
    observations = [
        ({"num_workers": int(rng.integers(1, 16)), "num_ps": int(rng.integers(1, 8))},
         float(rng.random() * 100))
        for _ in range(50)
    ]

    def kernel():
        repo = HistoryRepository()
        for i in range(5):
            repo.add_session(f"workload-{i}", observations)
        return repo

    repo = benchmark(kernel)
    assert len(repo) == 5
