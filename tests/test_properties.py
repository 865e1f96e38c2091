"""Property-based tests on core invariants (hypothesis).

These complement the example-based suites: the fabric conserves bytes and
never exceeds link capacities, the convergence model is monotone in its
penalties, probes are deterministic given seeds, and histories preserve
accounting identities under arbitrary trial sequences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Fabric, homogeneous
from repro.configspace import ml_config_space, to_training_config
from repro.core.trial import TrialHistory
from repro.mlsim import (
    Measurement,
    TrainingConfig,
    TrainingEnvironment,
    estimate,
)
from repro.sim import Simulator
from repro.workloads import ConvergenceProfile, get_workload


class TestFabricProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # src
                st.integers(min_value=0, max_value=3),  # dst
                st.floats(min_value=1e3, max_value=1e9),  # bytes
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_all_transfers_complete_and_bytes_conserved(self, flows):
        sim = Simulator()
        fabric = Fabric(
            sim,
            egress_capacity={i: 1.25e9 for i in range(4)},
            latency_s=1e-5,
        )
        completed = []

        def proc(src, dst, size):
            yield fabric.transfer(src, dst, size)
            completed.append(size)

        for src, dst, size in flows:
            sim.spawn(proc(src, dst, size))
        sim.run()
        assert len(completed) == len(flows)
        expected = sum(size for src, dst, size in flows if src != dst)
        assert fabric.total_bytes_delivered == pytest.approx(expected, rel=1e-3)

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=1e6, max_value=1e9),
    )
    @settings(max_examples=25, deadline=None)
    def test_fan_in_time_scales_with_flow_count(self, n_flows, size):
        """n equal flows into one NIC take ~n times one flow's time."""
        def run(count):
            sim = Simulator()
            fabric = Fabric(
                sim,
                egress_capacity={i: 1.25e9 for i in range(count + 1)},
                latency_s=0.0,
            )
            done = []

            def proc(src):
                yield fabric.transfer(src, count, size)
                done.append(sim.now)

            for src in range(count):
                sim.spawn(proc(src))
            sim.run()
            return max(done)

        single = run(1)
        many = run(n_flows)
        assert many == pytest.approx(n_flows * single, rel=1e-3)


class TestConvergenceProperties:
    @given(
        st.integers(min_value=1, max_value=65536),
        st.floats(min_value=0.0, max_value=32.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=80)
    def test_iterations_positive_and_monotone_in_penalties(
        self, batch, staleness, ratio
    ):
        profile = ConvergenceProfile(
            base_iters=10_000, ref_batch=64, critical_batch=1024
        )
        base = profile.iterations_to_target(batch)
        with_staleness = profile.iterations_to_target(batch, staleness)
        with_both = profile.iterations_to_target(batch, staleness, ratio)
        assert 0 < base <= with_staleness <= with_both

    @given(st.integers(min_value=1, max_value=1024))
    @settings(max_examples=40)
    def test_more_batch_never_more_iterations(self, batch):
        profile = ConvergenceProfile(
            base_iters=10_000, ref_batch=64, critical_batch=1024
        )
        assert profile.iterations_to_target(batch + 1) <= profile.iterations_to_target(
            batch
        ) * (1 + 1e-9)


class TestEstimateProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_estimate_finite_positive_for_valid_samples(self, seed):
        cluster = homogeneous(8, jitter_cv=0.0)
        space = ml_config_space(8)
        rng = np.random.default_rng(seed)
        config = to_training_config(space.sample(rng))
        workload = get_workload("lstm-ptb")
        try:
            perf = estimate(config, workload, cluster)
        except Exception as exc:  # noqa: BLE001 — only feasibility errors allowed
            from repro.mlsim import InfeasibleConfigError

            assert isinstance(exc, InfeasibleConfigError)
            return
        assert perf.throughput > 0
        assert np.isfinite(perf.throughput)
        assert perf.iteration_time_s > 0
        assert perf.mean_staleness >= 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_measure_deterministic_per_seed_and_index(self, seed):
        config = TrainingConfig(num_workers=4, num_ps=2, batch_per_worker=32)
        a = TrainingEnvironment(
            get_workload("resnet50-imagenet"), homogeneous(8), seed=seed
        ).measure(config)
        b = TrainingEnvironment(
            get_workload("resnet50-imagenet"), homogeneous(8), seed=seed
        ).measure(config)
        assert a.throughput == b.throughput
        assert a.probe_cost_s == b.probe_cost_s


class TestHistoryProperties:
    @given(
        st.lists(
            st.one_of(st.none(), st.floats(min_value=0.1, max_value=1e6)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60)
    def test_accounting_identities(self, objectives):
        history = TrialHistory()
        for objective in objectives:
            ok = objective is not None
            history.record(
                {"x": 1},
                Measurement(
                    config=TrainingConfig(),
                    ok=ok,
                    fidelity="analytic",
                    objective=objective,
                    probe_cost_s=7.5,
                ),
            )
        assert len(history) == len(objectives)
        assert len(history.successful()) + len(history.failed()) == len(objectives)
        assert history.total_cost_s == pytest.approx(7.5 * len(objectives))
        series = history.best_so_far_series()
        assert len(series) == len(objectives)
        # Best-so-far is monotone non-decreasing once defined.
        defined = [v for v in series if v is not None]
        assert all(b >= a for a, b in zip(defined, defined[1:]))
        best = history.best_objective()
        valid = [o for o in objectives if o is not None]
        if valid:
            assert best == max(valid)
        else:
            assert best is None
        # Cost series is strictly increasing.
        costs = history.cost_series()
        assert all(b > a for a, b in zip(costs, costs[1:]))
