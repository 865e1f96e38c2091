"""Tests for the input-pipeline model (data loading/decode stage)."""

import pytest

from repro.cluster import STANDARD_CPU, homogeneous
from repro.mlsim import TrainingConfig, TrainingEnvironment, estimate
from repro.mlsim.pipeline import (
    DECODE_BYTES_PER_CORE_PER_SEC,
    STORAGE_BYTES_PER_SEC,
    compute_cores_available,
    effective_iteration_time,
    input_rate_samples_per_sec,
    iteration_input_time,
)
from repro.workloads import IMAGENET, get_workload

RESNET = get_workload("resnet50-imagenet")


class TestInputRate:
    def test_zero_threads_is_unmodelled(self):
        assert input_rate_samples_per_sec(STANDARD_CPU, IMAGENET, 0) == float("inf")
        assert iteration_input_time(STANDARD_CPU, IMAGENET, 0, 256) == 0.0

    def test_decode_bound_at_few_threads(self):
        rate = input_rate_samples_per_sec(STANDARD_CPU, IMAGENET, 1)
        expected = DECODE_BYTES_PER_CORE_PER_SEC / IMAGENET.bytes_per_sample
        assert rate == pytest.approx(expected)

    def test_storage_bound_at_many_threads(self):
        # 16 threads decode 960 MB/s > 500 MB/s storage: storage binds.
        rate = input_rate_samples_per_sec(STANDARD_CPU, IMAGENET, 16)
        expected = STORAGE_BYTES_PER_SEC / IMAGENET.bytes_per_sample
        assert rate == pytest.approx(expected)

    def test_negative_threads_rejected(self):
        with pytest.raises(ValueError):
            input_rate_samples_per_sec(STANDARD_CPU, IMAGENET, -1)


class TestEffectiveIterationTime:
    def test_prefetch_overlaps(self):
        assert effective_iteration_time(1.0, 0.6, prefetch_batches=2) == 1.0
        assert effective_iteration_time(0.5, 0.8, prefetch_batches=1) == 0.8

    def test_no_prefetch_serialises(self):
        assert effective_iteration_time(1.0, 0.6, prefetch_batches=0) == 1.6

    def test_unmodelled_input_is_free(self):
        assert effective_iteration_time(1.0, 0.0, prefetch_batches=0) == 1.0

    def test_negative_prefetch_rejected(self):
        with pytest.raises(ValueError):
            effective_iteration_time(1.0, 0.5, prefetch_batches=-1)


class TestCoresAvailable:
    def test_subtracts_io_threads(self):
        assert compute_cores_available(STANDARD_CPU, 4) == STANDARD_CPU.cores - 4

    def test_starvation_rejected(self):
        with pytest.raises(ValueError):
            compute_cores_available(STANDARD_CPU, STANDARD_CPU.cores)


class TestAnalyticIntegration:
    def test_default_config_unchanged(self):
        """io_threads=0 must reproduce the original (pipeline-free) numbers."""
        cluster = homogeneous(16, jitter_cv=0.0)
        legacy = estimate(
            TrainingConfig(num_workers=8, num_ps=4, batch_per_worker=32),
            RESNET, cluster,
        )
        explicit = estimate(
            TrainingConfig(
                num_workers=8, num_ps=4, batch_per_worker=32,
                io_threads=0, prefetch_batches=2,
            ),
            RESNET, cluster,
        )
        assert legacy == explicit

    def test_io_threads_steal_compute(self):
        cluster = homogeneous(16, jitter_cv=0.0)
        # Plenty of io threads: input not the bottleneck, compute loses cores.
        dedicated = estimate(
            TrainingConfig(
                num_workers=8, num_ps=4, batch_per_worker=32, io_threads=8,
            ),
            RESNET, cluster,
        )
        unmodelled = estimate(
            TrainingConfig(num_workers=8, num_ps=4, batch_per_worker=32),
            RESNET, cluster,
        )
        assert dedicated.throughput < unmodelled.throughput

    def test_starved_pipeline_dominates_on_gpu_nodes(self):
        """One decode thread cannot feed a V100: throughput collapses.

        Slow CPU nodes never starve (compute dominates); fast GPU nodes do
        — exactly the asymmetry observed in practice.
        """
        cluster = homogeneous(16, "gpu-v100", jitter_cv=0.0)
        base = dict(
            num_workers=8, num_ps=8, batch_per_worker=32,
            gradient_precision="fp16",
        )
        starved = estimate(
            TrainingConfig(io_threads=1, prefetch_batches=2, **base),
            RESNET, cluster,
        )
        balanced = estimate(
            TrainingConfig(io_threads=6, prefetch_batches=2, **base),
            RESNET, cluster,
        )
        unmodelled = estimate(TrainingConfig(**base), RESNET, cluster)
        assert starved.throughput < 0.8 * unmodelled.throughput
        assert starved.throughput < balanced.throughput <= unmodelled.throughput

    def test_excessive_io_threads_infeasible(self):
        from repro.mlsim import InfeasibleConfigError, check_feasible

        with pytest.raises(InfeasibleConfigError, match="io_threads"):
            check_feasible(
                TrainingConfig(num_workers=4, num_ps=2, io_threads=16),
                RESNET,
                homogeneous(8),
            )


class TestEventIntegration:
    def test_event_sim_reflects_pipeline_bottleneck(self):
        env_starved = TrainingEnvironment(
            RESNET, homogeneous(8, "gpu-v100", jitter_cv=0.0), seed=0,
            fidelity="event", noise_cv=0.0,
        )
        env_healthy = TrainingEnvironment(
            RESNET, homogeneous(8, "gpu-v100", jitter_cv=0.0), seed=0,
            fidelity="event", noise_cv=0.0,
        )
        starved = env_starved.measure(
            TrainingConfig(num_workers=4, num_ps=2, batch_per_worker=32, io_threads=1)
        )
        healthy = env_healthy.measure(
            TrainingConfig(num_workers=4, num_ps=2, batch_per_worker=32, io_threads=6)
        )
        assert starved.throughput < healthy.throughput
