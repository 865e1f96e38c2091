"""Property tests for the vectorised batch probe engine.

The batch engine's contract is *bit-equality* with the scalar model —
not approximate agreement.  Hypothesis drives arbitrary configuration
batches (feasible and infeasible, every architecture and sync mode,
input-pipeline and compression knobs engaged) through both paths and
requires the full :class:`~repro.mlsim.PerfEstimate` to compare equal
with ``==``, never ``approx``.
"""

from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSpec, PlacementError, homogeneous, place
from repro.cluster.node import CATALOGUE
from repro.mlsim import perf
from repro.mlsim import (
    CompositeDrift,
    InfeasibleConfigError,
    PerfColumns,
    StepDrift,
    StragglerOnset,
    TrainingConfig,
    TrainingEnvironment,
    PerfEstimate,
    estimate,
    estimate_columns,
)
from repro.workloads import get_workload

WORKLOAD = get_workload("resnet50-imagenet")


def batch_row(batch, index):
    """Row ``index`` of a batch estimate, as the fields of a PerfEstimate."""
    return tuple(getattr(batch, field.name)[index] for field in fields(PerfEstimate))

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
        batch = estimate_columns(
            PerfColumns.from_configs(configs), WORKLOAD, cluster, factors
        )
        assert len(batch) == len(configs)
        for i, config in enumerate(configs):
            reference = scalar_reference(config, WORKLOAD, cluster, factors)
            if reference is None:
                assert not batch.ok[i]
                assert np.isnan(batch.throughput[i])
                assert batch.bottleneck[i] is None
            else:
                assert batch.ok[i]
                assert batch_row(batch, i) == astuple(reference)  # bit equality

    def test_rejects_wrong_factor_count(self):
        with pytest.raises(ValueError, match="speed factors"):
            estimate_columns(
                PerfColumns.from_configs([TrainingConfig()]),
                WORKLOAD,
                HOMOGENEOUS,
                node_speed_factors=[1.0],
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


def mixed_block_columns(blocks):
    """``blocks`` engine blocks of knob columns, then one more row.

    Block 0 mixes everything (PS and all-reduce, the three sync modes,
    up to 18 workers on 8 nodes, so many rows are infeasible), block 1 is
    infeasible throughout (every row needs 9 or more nodes), block 2 runs
    at most two workers per row (a smaller ``max_workers`` pad), and the
    rest repeat the pattern.
    """
    rng = np.random.default_rng(11)
    count = blocks * perf._BLOCK_ROWS + 1
    workers = rng.integers(1, 19, count)
    block = np.arange(count) // perf._BLOCK_ROWS % 3
    workers[block == 1] = rng.integers(9, 19, int((block == 1).sum()))
    workers[block == 2] = rng.integers(1, 3, int((block == 2).sum()))
    columns = {
        "architecture": rng.choice(np.array(["ps", "allreduce"], dtype=object), count),
        "num_workers": workers,
        "num_ps": rng.integers(1, 7, count),
        "colocate_ps": rng.random(count) < 0.5,
        "sync_mode": rng.choice(np.array(["bsp", "asp", "ssp"], dtype=object), count),
        "staleness_bound": rng.integers(0, 13, count),
        "batch_per_worker": rng.integers(1, 513, count),
        "intra_op_threads": rng.integers(0, 25, count),
        "gradient_precision": rng.choice(np.array(["fp32", "fp16"], dtype=object), count),
        "compression_ratio": rng.choice([1.0, 0.5, 0.1, 0.01], count),
        "io_threads": rng.integers(0, 5, count),
        "prefetch_batches": rng.integers(0, 4, count),
    }
    return PerfColumns.from_knob_columns(columns, count), block


class TestBlockedEngine:
    """Row blocks of ``estimate_columns`` equal one unblocked evaluation."""

    B = perf._BLOCK_ROWS

    @pytest.mark.parametrize(
        "length", [1, B - 1, B, B + 1, 2 * B, 3 * B - 1, 3 * B, 4 * B + 1]
    )
    def test_bit_identical_to_a_single_block(self, length, monkeypatch):
        columns, block = mixed_block_columns(4)
        columns = perf._row_block(columns, slice(0, length))
        factors = np.random.default_rng(3).uniform(0.25, 1.5, HETEROGENEOUS.total_nodes)
        blocked = estimate_columns(columns, WORKLOAD, HETEROGENEOUS, factors)
        monkeypatch.setattr(perf, "_BLOCK_ROWS", length)
        single = estimate_columns(columns, WORKLOAD, HETEROGENEOUS, factors)

        assert np.array_equal(blocked.ok, single.ok)
        for i in range(length):
            if single.ok[i]:
                assert batch_row(blocked, i) == batch_row(single, i)  # bit equality
            else:
                assert np.isnan(blocked.throughput[i])
                assert blocked.bottleneck[i] is None
        if length > 2 * self.B:
            assert not blocked.ok[block[:length] == 1].any()
            kinds = {
                (bool(ps), sync) for ps, sync in zip(columns.uses_ps, columns.sync_mode)
            }
            assert kinds == {
                (True, "bsp"), (True, "asp"), (True, "ssp"),
                (False, "bsp"), (False, "asp"), (False, "ssp"),
            }
            assert single.ok.any() and not single.ok.all()


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
        clock=st.sampled_from((0.0, 150.0, 250.0, 500.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_scalar_loop_at_fixed_clock(
        self, configs, objective, drifted, clock
    ):
        env = TrainingEnvironment(
            WORKLOAD,
            HOMOGENEOUS,
            seed=11,
            objective_name=objective,
            drift=DRIFT if drifted else None,
        )
        env.set_clock(clock)
        values = env.true_objective_batch(configs)
        for i, config in enumerate(configs):
            scalar = env.true_objective(config)
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
