"""Tests for the process-parallel harness layers (PR 5).

Covers the fork-based cell runner, ``run_sweep(n_jobs=)``
serial-equivalence, the disk tier of the experiment memoiser, and the
``fit_workers`` process-parallel GP hyperfits.
"""

import os

import numpy as np
import pytest

from repro.cluster import homogeneous
from repro.core import MLConfigTuner, TuningBudget
from repro.core.gp import GaussianProcess
from repro.core.kernels import make_kernel
from repro.harness import (
    SweepCell,
    fork_available,
    resolve_n_jobs,
    run_cells,
    run_sweep,
)
from repro.workloads import get_workload

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestRunCells:
    def test_serial_results_in_order(self):
        assert run_cells([lambda i=i: i * 3 for i in range(5)], n_jobs=1) == [
            0, 3, 6, 9, 12,
        ]

    @needs_fork
    def test_parallel_results_in_order(self):
        assert run_cells([lambda i=i: i * 3 for i in range(9)], n_jobs=3) == [
            i * 3 for i in range(9)
        ]

    @needs_fork
    def test_closures_need_no_pickling(self):
        # Lambdas over local state cannot be pickled; the fork runner must
        # still execute them.
        local = {"offset": 10}
        cells = [lambda i=i: local["offset"] + i for i in range(4)]
        assert run_cells(cells, n_jobs=2) == [10, 11, 12, 13]

    @needs_fork
    def test_cell_exception_propagates(self):
        def boom():
            raise RuntimeError("cell failed")

        with pytest.raises(RuntimeError, match="cell failed"):
            run_cells([boom, boom], n_jobs=2)

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None, cells=2) == min(os.cpu_count() or 1, 2)
        assert resolve_n_jobs(8, cells=3) == 3
        assert resolve_n_jobs(1, cells=10) == 1
        with pytest.raises(ValueError):
            resolve_n_jobs(0, cells=2)

    def test_empty(self):
        assert run_cells([], n_jobs=4) == []


class TestRunSweepNJobs:
    @needs_fork
    def test_parallel_sweep_equals_serial(self, tmp_path, monkeypatch):
        import repro.harness.cache as cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cells = [
            SweepCell(name=name, workload="resnet50-imagenet", nodes=8,
                      strategy=name, max_trials=5, optimum_seed=3)
            for name in ("random", "annealing")
        ]
        cache.clear_experiment_cache()
        serial = run_sweep(cells, seeds=[3, 4], n_jobs=1)["cells"]
        cache.clear_experiment_cache()  # the parallel arm runs its sessions
        parallel = run_sweep(cells, seeds=[3, 4], n_jobs=4)["cells"]
        cache.clear_experiment_cache()
        for cell in cells:
            a, b = serial[cell.name], parallel[cell.name]
            assert a["optimum_value"] == b["optimum_value"]
            assert a["values"] == b["values"]
            assert a["mean_probe_hours"] == b["mean_probe_hours"]
            assert [r.history.to_payload() for r in a["results"]] == [
                r.history.to_payload() for r in b["results"]
            ]


class TestDiskMemoiser:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        import repro.harness.cache as cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache._memo.clear()
        yield
        cache._memo.clear()

    def test_round_trip_without_recompute(self):
        import repro.harness.cache as cache

        value = cache._memoised(
            ("cell", 1, 2.5), lambda: [[1, None, "x", 2.5]]
        )
        cache._memo.clear()  # simulate a fresh process
        calls = []
        reloaded = cache._memoised(
            ("cell", 1, 2.5), lambda: calls.append(1) or [["fresh"]]
        )
        assert calls == []
        assert reloaded == value

    def test_distinct_keys_do_not_collide(self):
        import repro.harness.cache as cache

        cache._memoised(("k", 1), lambda: "one")
        cache._memo.clear()
        assert cache._memoised(("k", 2), lambda: "two") == "two"

    def test_numpy_scalars_serialisable(self):
        import repro.harness.cache as cache

        value = cache._memoised(
            ("np-cell",), lambda: [[np.float64(1.5), np.int64(3)]]
        )
        cache._memo.clear()
        assert cache._memoised(("np-cell",), lambda: None) == [[1.5, 3]]
        assert value[0][0] == 1.5

    def test_unserialisable_values_stay_memory_only(self, tmp_path):
        import repro.harness.cache as cache

        value = cache._memoised(("obj-cell",), lambda: {("tuple", "key"): 1})
        assert value == {("tuple", "key"): 1}
        assert not [f for f in os.listdir(tmp_path) if f.startswith("cell-")]
        # memory tier still serves it
        assert cache._memoised(("obj-cell",), lambda: None) == value

    def test_clear_experiment_cache_wipes_disk(self, tmp_path):
        import repro.harness.cache as cache

        cache._memoised(("wipe-cell",), lambda: [1, 2, 3])
        assert [f for f in os.listdir(tmp_path) if f.startswith("cell-")]
        cache.clear_experiment_cache()
        assert not [f for f in os.listdir(tmp_path) if f.startswith("cell-")]
        calls = []
        cache._memoised(("wipe-cell",), lambda: calls.append(1) or [9])
        assert calls == [1]

    def test_experiment_table_round_trips_through_disk(self):
        import repro.harness.cache as cache
        import repro.harness.experiments as experiments

        kwargs = dict(node_counts=(8,), budget_trials=3, seed=0)
        cold = experiments.exp_f5_scalability(**kwargs)
        cache._memo.clear()
        warm = experiments.exp_f5_scalability(**kwargs)
        assert [list(map(str, r)) for r in warm.rows] == [
            list(map(str, r)) for r in cold.rows
        ]


class TestFitWorkers:
    @needs_fork
    def test_parallel_hyperfit_bit_identical_to_serial(self):
        rng = np.random.default_rng(4)
        x = rng.random((48, 5))
        y = np.sin(4.0 * x[:, 0]) - x[:, 2] + 0.05 * rng.standard_normal(48)
        serial = GaussianProcess(
            kernel=make_kernel("matern52", 5), restarts=3, fit_workers=1
        ).fit(x, y)
        fanned = GaussianProcess(
            kernel=make_kernel("matern52", 5), restarts=3, fit_workers=3
        ).fit(x, y)
        assert np.array_equal(
            serial.kernel.get_log_params(), fanned.kernel.get_log_params()
        )
        assert serial.noise_variance == fanned.noise_variance
        assert serial.log_marginal_likelihood() == fanned.log_marginal_likelihood()
        mean_a, var_a = serial.predict(x[:5])
        mean_b, var_b = fanned.predict(x[:5])
        assert np.array_equal(mean_a, mean_b)
        assert np.array_equal(var_a, var_b)

    def test_fit_workers_validated(self):
        with pytest.raises(ValueError):
            GaussianProcess(fit_workers=0)
        with pytest.raises(ValueError):
            MLConfigTuner(fit_workers=0)

    @needs_fork
    def test_tuner_fit_workers_reproduces_serial_session(self):
        from repro.mlsim import TrainingEnvironment
        from repro.configspace import ml_config_space

        workload = get_workload("resnet50-imagenet")
        cluster = homogeneous(8)
        space = ml_config_space(8)
        budget = TuningBudget(max_trials=12)

        def run(fit_workers):
            env = TrainingEnvironment(workload, cluster, seed=0)
            tuner = MLConfigTuner(seed=0, fit_workers=fit_workers)
            return tuner.run(env, space, budget, seed=0)

        serial = run(1)
        fanned = run(2)
        assert serial.best_objective == fanned.best_objective
        assert serial.best_config == fanned.best_config
        assert [t.config for t in serial.history] == [t.config for t in fanned.history]


class TestCandidatePipeline:
    def test_proposal_deterministic_and_valid(self):
        from repro.configspace import ml_config_space
        from repro.core.bo import BayesianProposer
        from repro.core.trial import TrialHistory
        from repro.mlsim import Measurement, TrainingConfig

        space = ml_config_space(8)

        def history():
            rng = np.random.default_rng(0)
            h = TrialHistory()
            for _ in range(12):
                c = space.sample(rng)
                h.record(
                    c,
                    Measurement(
                        config=TrainingConfig(),
                        ok=True,
                        fidelity="analytic",
                        objective=float(rng.random() * 10),
                        probe_cost_s=60.0,
                    ),
                )
            return h

        first = BayesianProposer(space, n_initial=4, seed=0).propose(
            history(), np.random.default_rng(9)
        )
        assert space.is_valid(first)
        # same seed: bit-reproducible
        again = BayesianProposer(space, n_initial=4, seed=0).propose(
            history(), np.random.default_rng(9)
        )
        assert first == again
