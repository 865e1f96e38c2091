"""Property tests for the vectorised batch probe engine.

The batch engine's contract is *bit-equality* with the scalar model —
not approximate agreement.  Hypothesis drives arbitrary configuration
batches (feasible and infeasible, every architecture and sync mode,
input-pipeline and compression knobs engaged) through both paths and
requires the full :class:`~repro.mlsim.PerfEstimate` to compare equal
with ``==``, never ``approx``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, PlacementError, homogeneous, place
from repro.cluster.node import CATALOGUE
from repro.mlsim import (
    CompositeDrift,
    InfeasibleConfigError,
    PerfColumns,
    StepDrift,
    StragglerOnset,
    TrainingConfig,
    TrainingEnvironment,
    estimate,
    estimate_batch,
)
from repro.workloads import get_workload

WORKLOAD = get_workload("resnet50-imagenet")

HOMOGENEOUS = homogeneous(8)
HETEROGENEOUS = ClusterSpec(
    pools=tuple((CATALOGUE[name], 4) for name in list(CATALOGUE)[:2])
)

config_strategy = st.builds(
    TrainingConfig,
    architecture=st.sampled_from(("ps", "allreduce")),
    num_workers=st.integers(min_value=1, max_value=18),
    num_ps=st.integers(min_value=1, max_value=6),
    colocate_ps=st.booleans(),
    sync_mode=st.sampled_from(("bsp", "asp", "ssp")),
    staleness_bound=st.integers(min_value=0, max_value=12),
    batch_per_worker=st.integers(min_value=1, max_value=512),
    intra_op_threads=st.integers(min_value=0, max_value=24),
    gradient_precision=st.sampled_from(("fp32", "fp16")),
    compression_ratio=st.sampled_from((1.0, 0.5, 0.1, 0.01)),
    io_threads=st.integers(min_value=0, max_value=4),
    prefetch_batches=st.integers(min_value=0, max_value=3),
)


def scalar_reference(config, workload, cluster, factors):
    """The scalar model's answer for one config (None if infeasible)."""
    canonical = config.canonical()
    try:
        placement = place(
            cluster.total_nodes,
            canonical.num_ps if canonical.uses_ps else 0,
            canonical.num_workers,
            canonical.colocate_ps if canonical.uses_ps else False,
        )
        speeds = (
            [1.0] * canonical.num_workers
            if factors is None
            else [float(factors[n]) for n in placement.worker_nodes]
        )
        return estimate(config, workload, cluster, speed_factors=speeds)
    except (InfeasibleConfigError, PlacementError):
        return None


class TestEstimateBatchParity:
    @given(
        configs=st.lists(config_strategy, min_size=1, max_size=24),
        hetero=st.booleans(),
        randomize_speeds=st.booleans(),
        factor_seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_scalar(
        self, configs, hetero, randomize_speeds, factor_seed
    ):
        cluster = HETEROGENEOUS if hetero else HOMOGENEOUS
        factors = (
            np.random.default_rng(factor_seed).uniform(0.25, 1.5, cluster.total_nodes)
            if randomize_speeds
            else None
        )
        batch = estimate_batch(
            configs, WORKLOAD, cluster, node_speed_factors=factors
        )
        assert len(batch) == len(configs)
        for i, config in enumerate(configs):
            reference = scalar_reference(config, WORKLOAD, cluster, factors)
            if reference is None:
                assert not batch.ok[i]
                assert np.isnan(batch.throughput[i])
                assert batch.bottleneck[i] is None
                with pytest.raises(InfeasibleConfigError):
                    batch.row(i)
            else:
                assert batch.ok[i]
                assert batch.row(i) == reference  # full-dataclass bit equality

    def test_rejects_wrong_factor_count(self):
        with pytest.raises(ValueError, match="speed factors"):
            estimate_batch(
                [TrainingConfig()], WORKLOAD, HOMOGENEOUS, node_speed_factors=[1.0]
            )

    def test_from_knob_columns_defaults_match_config_defaults(self):
        # A space that only searches two knobs: everything else must fall
        # back to the TrainingConfig defaults, exactly as from_dict does.
        columns = {
            "num_workers": np.array([1, 2, 5], dtype=np.int64),
            "sync_mode": np.array(["bsp", "asp", "ssp"], dtype=object),
        }
        from_columns = PerfColumns.from_knob_columns(columns, 3)
        configs = [
            TrainingConfig.from_dict({"num_workers": w, "sync_mode": s})
            for w, s in zip([1, 2, 5], ["bsp", "asp", "ssp"])
        ]
        from_configs = PerfColumns.from_configs(configs)
        for field in (
            "num_workers", "num_ps", "colocate_ps", "staleness_bound",
            "batch_per_worker", "intra_op_threads", "io_threads",
            "prefetch_batches", "uses_ps", "grad_factor", "global_batch",
            "compression_ratio",
        ):
            assert np.array_equal(
                getattr(from_columns, field), getattr(from_configs, field)
            ), field
        assert list(from_columns.sync_mode) == list(from_configs.sync_mode)


DRIFT = CompositeDrift(
    (
        StragglerOnset(at_s=100.0, fraction=0.3, slowdown=3.0),
        StepDrift(at_s=300.0, intensity=1.8),
    )
)


class TestTrueObjectiveBatchParity:
    @given(
        configs=st.lists(config_strategy, min_size=1, max_size=16),
        objective=st.sampled_from(("throughput", "tta")),
        drifted=st.booleans(),
        at_s=st.sampled_from((None, 0.0, 150.0, 500.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_loop_at_fixed_clock(
        self, configs, objective, drifted, at_s
    ):
        env = TrainingEnvironment(
            WORKLOAD,
            HOMOGENEOUS,
            seed=11,
            objective_name=objective,
            drift=DRIFT if drifted else None,
        )
        env.set_clock(250.0)
        values = env.true_objective_batch(configs, at_s=at_s)
        for i, config in enumerate(configs):
            scalar = env.true_objective(config, at_s=at_s)
            if scalar is None:
                assert np.isnan(values[i])
            else:
                assert values[i] == scalar  # bitwise, not approx


class TestProbeMatchesTruth:
    """The probe path and the truth path are one model.

    ``measure`` runs the scalar :func:`~repro.mlsim.perf.estimate` and
    ``_tta``; ``true_objective`` runs :func:`~repro.mlsim.perf.estimate_columns`
    and ``_tta_batch``.  With noise and transient failures off, a
    successful probe's objective must equal the truth bit for bit, and a
    failed probe must be a config the truth calls infeasible.
    """

    @given(
        configs=st.lists(config_strategy, min_size=1, max_size=16),
        hetero=st.booleans(),
        objective=st.sampled_from(("throughput", "tta")),
        drifted=st.booleans(),
        clock=st.sampled_from((0.0, 150.0, 500.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_noise_free_probe_equals_true_objective(
        self, configs, hetero, objective, drifted, clock
    ):
        env = TrainingEnvironment(
            WORKLOAD,
            HETEROGENEOUS if hetero else HOMOGENEOUS,
            seed=11,
            objective_name=objective,
            noise_cv=0.0,
            drift=DRIFT if drifted else None,
        )
        env.set_clock(clock)
        for config in configs:
            measurement = env.measure(config)
            truth = env.true_objective(config)
            if measurement.ok:
                assert measurement.objective == truth  # bitwise, not approx
            else:
                assert truth is None
