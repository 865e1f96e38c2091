"""A2 — early-termination ablation: quality vs probe-cost trade-off."""

from conftest import emit
from repro.configspace import from_training_config, ml_config_space
from repro.core import MLConfigTuner
from repro.harness.experiments import exp_a2_early_termination
from repro.mlsim import TrainingConfig


def bench_a2_early_term(benchmark, fast_env):
    table = emit(exp_a2_early_termination())
    assert "with-early-term" in table

    # Timed kernel: one gated probe (short measurement + rejection check).
    tuner = MLConfigTuner(early_termination=True, seed=0)
    tuner._incumbent = 1e9  # force the rejection path
    config = from_training_config(
        TrainingConfig(num_workers=4, num_ps=2, batch_per_worker=32)
    )

    def kernel():
        return tuner.measure(fast_env, config)

    measurement = benchmark(kernel)
    assert measurement.ok
