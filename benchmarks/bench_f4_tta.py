"""F4 — time-to-accuracy tuning: tuned vs default vs expert TTA."""

from conftest import emit
from repro.cluster import homogeneous
from repro.harness.experiments import exp_f4_tta
from repro.mlsim import TrainingConfig, TrainingEnvironment
from repro.workloads import get_workload


def bench_f4_tta(benchmark):
    table = emit(exp_f4_tta())
    assert "lstm-ptb" in table

    env = TrainingEnvironment(
        get_workload("lstm-ptb"), homogeneous(16), seed=0, objective_name="tta"
    )
    config = TrainingConfig(num_workers=8, num_ps=4, batch_per_worker=16)

    def kernel():
        return env.measure(config)

    measurement = benchmark(kernel)
    assert measurement.ok
    assert measurement.tta_s > 0
