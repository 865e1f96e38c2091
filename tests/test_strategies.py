"""Tests for the strategy interface and every baseline tuner."""

import pytest

from repro.baselines import (
    CherryPick,
    CoordinateDescent,
    FixedConfig,
    GridSearch,
    HillClimbing,
    OtterTuneStyle,
    RandomSearch,
    SimulatedAnnealing,
    default_strategy,
    expert_strategy,
)
from repro.cluster import homogeneous
from repro.configspace import from_training_config, ml_config_space
from repro.core import HistoryRepository, TuningBudget
from repro.mlsim import DEFAULT_CONFIG, TrainingEnvironment
from repro.workloads import get_workload

NODES = 8
WORKLOAD = get_workload("resnet50-imagenet")


def make_env(seed=0, **kwargs):
    return TrainingEnvironment(WORKLOAD, homogeneous(NODES), seed=seed, **kwargs)


def space():
    return ml_config_space(NODES)


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            TuningBudget(max_trials=None, max_cost_s=None)
        with pytest.raises(ValueError):
            TuningBudget(max_trials=0)
        with pytest.raises(ValueError):
            TuningBudget(max_trials=None, max_cost_s=-5)

    def test_trial_budget_respected(self):
        result = RandomSearch().run(make_env(), space(), TuningBudget(max_trials=7))
        assert result.num_trials == 7

    def test_cost_budget_respected(self):
        budget = TuningBudget(max_trials=None, max_cost_s=500.0)
        result = RandomSearch().run(make_env(), space(), budget)
        # Stops after the first trial that pushes cumulative cost past cap.
        assert result.history.total_cost_s >= 500.0
        assert result.history[-2].cumulative_cost_s < 500.0 or result.num_trials == 1


class TestRandomSearch:
    def test_result_well_formed(self):
        result = RandomSearch().run(make_env(), space(), TuningBudget(max_trials=10), seed=1)
        assert result.strategy == "random"
        assert result.best_trial is not None
        assert result.best_objective > 0
        assert result.environment["workload"] == WORKLOAD.name

    def test_reproducible_given_seed(self):
        a = RandomSearch().run(make_env(), space(), TuningBudget(max_trials=8), seed=3)
        b = RandomSearch().run(make_env(), space(), TuningBudget(max_trials=8), seed=3)
        assert [t.config for t in a.history] == [t.config for t in b.history]

    def test_best_so_far_is_monotone(self):
        result = RandomSearch().run(make_env(), space(), TuningBudget(max_trials=15), seed=2)
        series = [v for v in result.history.best_so_far_series() if v is not None]
        assert all(b >= a for a, b in zip(series, series[1:]))


class TestFixedStrategies:
    def test_fixed_config_runs_once(self):
        strategy = FixedConfig(from_training_config(DEFAULT_CONFIG), name="fixed-test")
        result = strategy.run(make_env(), space(), TuningBudget(max_trials=10))
        assert result.num_trials == 1
        assert result.strategy == "fixed-test"

    def test_default_strategy(self):
        result = default_strategy().run(make_env(), space(), TuningBudget(max_trials=5))
        assert result.num_trials == 1
        assert result.best_objective > 0

    def test_expert_beats_default_on_resnet(self):
        default = default_strategy().run(make_env(), space(), TuningBudget(max_trials=1))
        expert = expert_strategy(NODES, WORKLOAD.compute_comm_ratio).run(
            make_env(), space(), TuningBudget(max_trials=1)
        )
        assert expert.best_objective > default.best_objective


class TestGridSearch:
    def test_stops_when_grid_exhausted(self, monkeypatch):
        monkeypatch.setattr("repro.baselines.grid.RESOLUTION", 1)
        strategy = GridSearch()
        result = strategy.run(make_env(), space(), TuningBudget(max_trials=500))
        assert result.num_trials == len(list(space().grid(1)))

    def test_no_duplicate_points_within_grid(self, monkeypatch):
        monkeypatch.setattr("repro.baselines.grid.RESOLUTION", 2)
        strategy = GridSearch(seed=1)
        result = strategy.run(make_env(), space(), TuningBudget(max_trials=30))
        seen = [tuple(sorted(t.config.items())) for t in result.history]
        assert len(seen) == len(set(seen))


class TestLocalSearches:
    @pytest.mark.parametrize(
        "strategy_cls", [HillClimbing, SimulatedAnnealing, CoordinateDescent]
    )
    def test_runs_and_improves_over_first_trial(self, strategy_cls):
        result = strategy_cls(seed=0).run(
            make_env(), space(), TuningBudget(max_trials=25), seed=0
        )
        assert result.num_trials == 25
        first = next(t.objective for t in result.history if t.ok)
        assert result.best_objective >= first

    def test_coordinate_starts_from_default(self):
        result = CoordinateDescent(seed=0).run(
            make_env(), space(), TuningBudget(max_trials=5), seed=0
        )
        assert result.history[0].config == from_training_config(DEFAULT_CONFIG)


class TestCherryPick:
    def test_runs_within_budget(self):
        result = CherryPick(seed=0).run(
            make_env(), space(), TuningBudget(max_trials=18), seed=0
        )
        assert result.num_trials <= 18
        assert result.best_objective > 0


class TestOtterTune:
    def test_repository_normalises(self):
        repo = HistoryRepository()
        observations = [({"a": i}, float(i)) for i in range(5)]
        repo.add_session("w1", observations)
        values = [v for _, v in repo.observations("w1")]
        assert abs(sum(values)) < 1e-9  # zero mean

    def test_repository_needs_two_observations(self):
        repo = HistoryRepository()
        with pytest.raises(ValueError):
            repo.add_session("w1", [({"a": 1}, 1.0)])

    def test_runs_with_empty_repository(self):
        result = OtterTuneStyle(seed=0).run(
            make_env(), space(), TuningBudget(max_trials=12), seed=0
        )
        assert result.num_trials == 12
        assert result.best_objective > 0

    def test_maps_to_prior_workload(self):
        repo = HistoryRepository()
        prior_env = make_env(seed=1)
        session = RandomSearch().run(
            prior_env, space(), TuningBudget(max_trials=15), seed=1
        )
        repo.add_session(
            "prior", [(t.config, t.objective) for t in session.history.successful()]
        )
        strategy = OtterTuneStyle(repository=repo, seed=0)
        strategy.run(make_env(), space(), TuningBudget(max_trials=12), seed=0)
        assert strategy.mapped_workload == "prior"
