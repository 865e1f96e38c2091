"""Tests for MLConfigTuner: the BO tuner with early termination."""

import dataclasses

import pytest

from repro.baselines import RandomSearch, default_strategy
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import MLConfigTuner, TrialHistory, TuningBudget
from repro.mlsim import Measurement, TrainingConfig, TrainingEnvironment
from repro.workloads import get_workload

NODES = 8
WORKLOAD = get_workload("resnet50-imagenet")


def make_env(seed=0, **kwargs):
    return TrainingEnvironment(WORKLOAD, homogeneous(NODES), seed=seed, **kwargs)


def space():
    return ml_config_space(NODES)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            MLConfigTuner(short_probe_fraction=0.0)
        with pytest.raises(ValueError):
            MLConfigTuner(short_probe_fraction=1.0)
        with pytest.raises(ValueError):
            MLConfigTuner(rejection_margin=-0.1)

    def test_name_reflects_acquisition(self):
        assert "eipc" in MLConfigTuner().name
        assert MLConfigTuner(name="custom").name == "custom"


class TestTuningQuality:
    def test_beats_default_config_substantially(self):
        tuned = MLConfigTuner(seed=0).run(
            make_env(), space(), TuningBudget(max_trials=20), seed=0
        )
        default = default_strategy().run(
            make_env(), space(), TuningBudget(max_trials=1), seed=0
        )
        assert tuned.best_objective > 1.5 * default.best_objective

    def test_at_least_matches_random_search(self):
        tuned = MLConfigTuner(seed=0).run(
            make_env(), space(), TuningBudget(max_trials=20), seed=0
        )
        random = RandomSearch().run(
            make_env(), space(), TuningBudget(max_trials=20), seed=0
        )
        assert tuned.best_objective >= 0.95 * random.best_objective

    def test_respects_budget(self):
        result = MLConfigTuner(seed=0).run(
            make_env(), space(), TuningBudget(max_trials=9), seed=0
        )
        assert result.num_trials == 9


class TestEarlyTermination:
    def test_counter_increments(self):
        tuner = MLConfigTuner(early_termination=True, seed=0)
        tuner.run(make_env(), space(), TuningBudget(max_trials=25), seed=0)
        assert tuner.probes_terminated_early > 0

    def test_disabled_means_no_short_probes(self):
        tuner = MLConfigTuner(early_termination=False, seed=0)
        env = make_env()
        result = tuner.run(env, space(), TuningBudget(max_trials=15), seed=0)
        assert tuner.probes_terminated_early == 0
        # One env.measure per trial exactly.
        assert env.trials_run == result.num_trials

    def test_rejected_probe_costs_less_than_full_probe(self):
        """Unit-level cost property: a gated-out probe is charged only the
        short prefix.  (End-to-end totals are not comparable across ET
        on/off because the search trajectories diverge.)"""
        from repro.configspace import from_training_config
        from repro.mlsim import TrainingConfig

        bad = from_training_config(
            TrainingConfig(num_workers=2, num_ps=1, batch_per_worker=4)
        )
        # Reference: what the bad config costs to probe fully.
        full_cost = make_env(noise_cv=0.0).measure(
            TrainingConfig.from_dict(bad)
        ).probe_cost_s

        tuner = MLConfigTuner(early_termination=True, seed=0)
        tuner._incumbent = 1e9  # everything is dominated: always reject
        env = make_env(noise_cv=0.0)
        gated = tuner.measure(env, bad)
        assert tuner.probes_terminated_early == 1
        # Compare the measurement parts: both probes pay the same fixed
        # job-startup overhead, the saving is in the iterations run.
        from repro.mlsim import STARTUP_OVERHEAD_S

        assert (gated.probe_cost_s - STARTUP_OVERHEAD_S) < 0.5 * (
            full_cost - STARTUP_OVERHEAD_S
        )

    def test_promoted_probe_charged_one_startup(self):
        """A promoted probe costs about one full probe, not two."""
        from repro.configspace import from_training_config
        from repro.mlsim import TrainingConfig

        good = from_training_config(
            TrainingConfig(num_workers=6, num_ps=2, batch_per_worker=32)
        )
        full_cost = make_env(noise_cv=0.0).measure(
            TrainingConfig.from_dict(good)
        ).probe_cost_s

        tuner = MLConfigTuner(early_termination=True, seed=0)
        tuner._incumbent = 1e-9  # everything beats it: always promote
        env = make_env(noise_cv=0.0)
        promoted = tuner.measure(env, good)
        assert tuner.probes_terminated_early == 0
        assert promoted.probe_cost_s == pytest.approx(full_cost, rel=0.05)

    def test_quality_not_destroyed(self):
        """ET still finds a configuration far better than the default.

        (A head-to-head against no-ET on one seed is dominated by search
        trajectory variance; ablation A2 measures that trade-off over
        repeats.)"""
        with_et = MLConfigTuner(early_termination=True, seed=0).run(
            make_env(), space(), TuningBudget(max_trials=25), seed=0
        )
        default = default_strategy().run(
            make_env(), space(), TuningBudget(max_trials=1), seed=0
        )
        assert with_et.best_objective > 1.5 * default.best_objective

    def test_rejected_probes_recorded_with_short_cost(self):
        tuner = MLConfigTuner(early_termination=True, seed=0)
        env = make_env()
        result = tuner.run(env, space(), TuningBudget(max_trials=25), seed=0)
        if tuner.probes_terminated_early == 0:
            pytest.skip("no probes terminated in this run")
        costs = sorted(
            t.measurement.probe_cost_s for t in result.history.successful()
        )
        # Short probes cost materially less than full probes.
        assert costs[0] < 0.6 * costs[-1]

    def test_env_accounting_matches_history(self):
        """env.total_probe_cost_s must equal the history's total cost."""
        tuner = MLConfigTuner(early_termination=True, seed=0)
        env = make_env()
        result = tuner.run(env, space(), TuningBudget(max_trials=20), seed=0)
        assert env.total_probe_cost_s == pytest.approx(result.total_cost_s)


class TestAcquisitionVariants:
    @pytest.mark.parametrize("acquisition", ["ei", "pi", "ucb", "eipc"])
    def test_all_acquisitions_run(self, acquisition):
        result = MLConfigTuner(acquisition=acquisition, seed=0).run(
            make_env(), space(), TuningBudget(max_trials=12), seed=0
        )
        assert result.num_trials == 12
        assert result.best_objective > 0


def _stub_measurement(objective):
    return Measurement(
        config=TrainingConfig(),
        ok=True,
        fidelity="analytic",
        objective=objective,
        probe_cost_s=1.0,
    )


class NanAtTrial(TrainingEnvironment):
    """Reports probe ``bad_index`` as a success with a NaN objective."""

    bad_index = 7

    def measure(self, config, probe_iterations=None, charge_startup=True):
        index = self.trials_run
        measurement = super().measure(config, probe_iterations, charge_startup)
        if index == self.bad_index:
            measurement = dataclasses.replace(
                measurement, ok=True, error=None, objective=float("nan")
            )
        return measurement


class TestNonFiniteObjective:
    """A NaN objective is a failed trial, not a poisoned training set."""

    def test_nan_probe_recorded_as_failure_and_bo_stays_model_based(self):
        tuner = MLConfigTuner(seed=0, early_termination=False)
        env = NanAtTrial(WORKLOAD, homogeneous(NODES), seed=0)
        result = tuner.run(env, space(), TuningBudget(max_trials=16), seed=0)
        bad = result.history[NanAtTrial.bad_index]
        assert not bad.ok
        assert bad.objective is None
        assert bad.measurement.error == "non-finite objective nan"
        # Every proposal after the bad probe still came from a fitted GP.
        proposer = tuner._proposer
        assert proposer.fallbacks == 0
        assert "lml" in proposer.last_fit_diagnostics
        assert result.best_objective is not None

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_best_does_not_depend_on_trial_order(self, bad):
        values = [bad, 5.0, 3.0]
        forward, backward = TrialHistory(), TrialHistory()
        for value in values:
            forward.record({"i": value}, _stub_measurement(value))
        for value in reversed(values):
            backward.record({"i": value}, _stub_measurement(value))
        assert forward.best().objective == backward.best().objective == 5.0
        assert len(forward.failed()) == 1
