"""E1 (extension) — gradient-compression sweep."""

from conftest import emit
from repro.cluster import homogeneous
from repro.harness.experiments import exp_e1_compression
from repro.mlsim import TrainingConfig, estimate
from repro.workloads import get_workload


def bench_e1_compression(benchmark):
    table = emit(exp_e1_compression())
    assert "word2vec-wiki" in table

    cluster = homogeneous(16, jitter_cv=0.0)
    workload = get_workload("word2vec-wiki")
    configs = [
        TrainingConfig(
            num_workers=12, num_ps=4, batch_per_worker=256, compression_ratio=ratio
        )
        for ratio in (1.0, 0.5, 0.1, 0.01)
    ]

    def kernel():
        return [estimate(c, workload, cluster).throughput for c in configs]

    throughputs = benchmark(kernel)
    # Throughput must rise monotonically as gradients shrink.
    assert throughputs == sorted(throughputs)
