"""Tests for the Tree-structured Parzen Estimator baseline."""

import numpy as np

from repro.baselines import TPE, RandomSearch
from repro.baselines.tpe import _kde_log_density
from repro.cluster import homogeneous
from repro.configspace import ConfigSpace, FloatParameter, ml_config_space
from repro.core import TrialHistory, TuningBudget
from repro.mlsim import Measurement, TrainingConfig, TrainingEnvironment
from repro.workloads import get_workload


class TestKde:
    def test_density_higher_near_points(self):
        points = np.array([[0.5, 0.5]])
        queries = np.array([[0.5, 0.5], [0.9, 0.9]])
        log_density = _kde_log_density(points, queries, bandwidth=0.1)
        assert log_density[0] > log_density[1]

    def test_empty_points_uniform(self):
        queries = np.random.default_rng(0).random((5, 3))
        log_density = _kde_log_density(np.empty((0, 3)), queries, bandwidth=0.1)
        assert np.allclose(log_density, 0.0)

    def test_numerically_stable_far_from_data(self):
        points = np.array([[0.0, 0.0]])
        queries = np.array([[1.0, 1.0]])
        log_density = _kde_log_density(points, queries, bandwidth=0.01)
        assert np.isfinite(log_density[0])


class TestTpeProposals:
    def _history(self, space, objective_fn, count, seed=0):
        rng = np.random.default_rng(seed)
        history = TrialHistory()
        for _ in range(count):
            config = space.sample(rng)
            history.record(
                config,
                Measurement(
                    config=TrainingConfig(),
                    ok=True,
                    fidelity="analytic",
                    objective=objective_fn(config),
                    probe_cost_s=1.0,
                ),
            )
        return history

    def test_random_until_startup(self, monkeypatch):
        monkeypatch.setattr("repro.baselines.tpe.N_STARTUP", 5)
        space = ConfigSpace([FloatParameter("x", 0.0, 1.0)])
        tpe = TPE(seed=0)
        history = self._history(space, lambda c: c["x"], 3)
        config = tpe.propose(history, space, np.random.default_rng(0))
        assert 0.0 <= config["x"] <= 1.0  # still random phase, just valid

    def test_proposals_concentrate_in_good_region(self, monkeypatch):
        monkeypatch.setattr("repro.baselines.tpe.N_STARTUP", 5)
        monkeypatch.setattr("repro.baselines.tpe.N_CANDIDATES", 128)
        space = ConfigSpace([FloatParameter("x", 0.0, 1.0)])
        tpe = TPE(seed=0)
        history = self._history(space, lambda c: -abs(c["x"] - 0.8), 30)
        rng = np.random.default_rng(1)
        proposals = [tpe.propose(history, space, rng)["x"] for _ in range(10)]
        assert np.mean(proposals) > 0.55  # pulled toward 0.8

    def test_beats_random_on_mlspace(self):
        nodes = 8
        workload = get_workload("word2vec-wiki")
        space = ml_config_space(nodes)
        tpe_result = TPE(seed=0).run(
            TrainingEnvironment(workload, homogeneous(nodes), seed=5),
            space, TuningBudget(max_trials=25), seed=5,
        )
        random_result = RandomSearch().run(
            TrainingEnvironment(workload, homogeneous(nodes), seed=5),
            space, TuningBudget(max_trials=25), seed=5,
        )
        assert tpe_result.best_objective >= 0.9 * random_result.best_objective

    def test_failed_trials_count_as_bad_evidence(self, monkeypatch):
        monkeypatch.setattr("repro.baselines.tpe.N_STARTUP", 4)
        monkeypatch.setattr("repro.baselines.tpe.N_CANDIDATES", 128)
        space = ConfigSpace([FloatParameter("x", 0.0, 1.0)])
        tpe = TPE(seed=0)
        history = TrialHistory()
        rng = np.random.default_rng(2)
        for _ in range(20):
            config = space.sample(rng)
            ok = config["x"] < 0.5
            history.record(
                config,
                Measurement(
                    config=TrainingConfig(),
                    ok=ok,
                    fidelity="analytic",
                    objective=config["x"] if ok else None,
                    probe_cost_s=1.0,
                ),
            )
        proposals = [
            tpe.propose(history, space, np.random.default_rng(i))["x"]
            for i in range(8)
        ]
        # The crashing right half should be mostly avoided.
        assert np.mean([p < 0.5 for p in proposals]) >= 0.5
