"""F6 — synchronisation-mode crossover under stragglers."""

from conftest import emit
from repro.cluster import homogeneous
from repro.harness.experiments import exp_f6_sync_crossover
from repro.mlsim import TrainingConfig, TrainingEnvironment, estimate
from repro.workloads import get_workload


def bench_f6_sync(benchmark):
    table = emit(exp_f6_sync_crossover())
    assert "winner" in table

    cluster = homogeneous(
        16, straggler_fraction=0.25, straggler_slowdown=0.4, jitter_cv=0.0
    )
    workload = get_workload("mlp-criteo")
    configs = [
        TrainingConfig(num_workers=8, num_ps=4, batch_per_worker=256, sync_mode=mode,
                       staleness_bound=4)
        for mode in ("bsp", "asp", "ssp")
    ]

    def kernel():
        return [estimate(c, workload, cluster).throughput for c in configs]

    throughputs = benchmark(kernel)
    assert len(throughputs) == 3
