"""V1 (validation) — analytic vs event-driven fidelity agreement."""

from conftest import emit
from repro.cluster import homogeneous
from repro.harness.experiments import exp_v1_fidelity
from repro.mlsim import cross_validate
from repro.workloads import get_workload


def bench_v1_fidelity(benchmark):
    table = emit(exp_v1_fidelity())
    assert "rank correlation" in table

    def kernel():
        return cross_validate(
            get_workload("lstm-ptb"),
            homogeneous(8, jitter_cv=0.0),
            num_configs=5,
            seed=1,
        )

    report = benchmark(kernel)
    assert report.rank_correlation > 0.5
