"""T3 — tuned vs default vs expert speedup table (the headline result).

The table itself is the artefact; the timed kernel is a single analytic
probe, the unit of work every tuner consumes.
"""

from conftest import emit
from repro.harness.experiments import exp_t3_speedup
from repro.mlsim import TrainingConfig


def bench_t3_speedup(benchmark, fast_env):
    table = emit(exp_t3_speedup())
    assert "resnet50-imagenet" in table

    config = TrainingConfig(num_workers=6, num_ps=2, batch_per_worker=32)

    def kernel():
        return fast_env.measure(config)

    measurement = benchmark(kernel)
    assert measurement.ok
