"""F1 — the (num_ps × num_workers) response surface, event fidelity.

The timed kernel is one full event-driven probe: the discrete-event
simulation cost that bounds everything built on the "event" fidelity.
"""

from conftest import emit
from repro.cluster import homogeneous
from repro.harness.experiments import exp_f1_surface
from repro.mlsim import TrainingConfig, TrainingEnvironment
from repro.workloads import get_workload


def bench_f1_surface(benchmark):
    emit(exp_f1_surface())

    env = TrainingEnvironment(
        get_workload("resnet50-imagenet"),
        homogeneous(16),
        seed=0,
        fidelity="event",
    )
    config = TrainingConfig(num_workers=12, num_ps=4, batch_per_worker=32)

    def kernel():
        return env.measure(config)

    measurement = benchmark(kernel)
    assert measurement.ok
