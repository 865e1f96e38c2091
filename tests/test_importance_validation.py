"""Tests for knob-importance analysis and fidelity cross-validation."""

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import GPFitError, TuningBudget, knob_importance
from repro.core.trial import TrialHistory
from repro.mlsim import (
    Measurement,
    TrainingConfig,
    TrainingEnvironment,
    cross_validate,
)
from repro.workloads import get_workload


def tuning_session(workload_name="resnet50-imagenet", trials=30, seed=0, nodes=8):
    env = TrainingEnvironment(get_workload(workload_name), homogeneous(nodes), seed=seed)
    space = ml_config_space(nodes)
    result = RandomSearch().run(env, space, TuningBudget(max_trials=trials), seed=seed)
    return result.history, space


class TestKnobImportance:
    def test_sums_to_one_and_covers_all_knobs(self):
        history, space = tuning_session()
        importance = knob_importance(history, space, seed=0)
        assert set(importance) == set(space.names())
        assert sum(importance.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in importance.values())

    def test_needs_enough_successes(self):
        space = ml_config_space(8)
        history = TrialHistory()
        with pytest.raises(GPFitError, match="at least 4"):
            knob_importance(history, space)

    def test_irrelevant_knob_detected_on_synthetic_surface(self):
        """A knob the objective ignores must rank below one it tracks."""
        from repro.configspace import ConfigSpace, IntParameter

        space = ConfigSpace(
            [IntParameter("active", 1, 100), IntParameter("inert", 1, 100)]
        )
        rng = np.random.default_rng(0)
        history = TrialHistory()
        for _ in range(30):
            config = space.sample(rng)
            history.record(
                config,
                Measurement(
                    config=TrainingConfig(),
                    ok=True,
                    fidelity="analytic",
                    objective=float(config["active"]),  # inert ignored
                    probe_cost_s=1.0,
                ),
            )
        importance = knob_importance(history, space, seed=0)
        assert importance["active"] > importance["inert"]

    def test_parallelism_knobs_matter_for_resnet(self):
        """The worker/batch axis must rank above staleness for a
        compute-bound BSP-friendly workload."""
        history, space = tuning_session(trials=40)
        importance = knob_importance(history, space, seed=0)
        parallelism = importance["num_workers"] + importance["batch_per_worker"]
        assert parallelism > importance["staleness_bound"]


class TestCrossValidation:
    def test_report_structure(self):
        report = cross_validate(
            get_workload("lstm-ptb"),
            homogeneous(8, jitter_cv=0.0),
            num_configs=6,
            seed=0,
        )
        assert len(report.points) == 6
        assert report.best_ratio <= report.worst_ratio
        assert -1.0 <= report.rank_correlation <= 1.0

    def test_fidelities_agree_within_factor_two(self):
        report = cross_validate(
            get_workload("resnet50-imagenet"),
            homogeneous(8, jitter_cv=0.0),
            num_configs=8,
            seed=0,
        )
        assert float(np.exp(report.mean_abs_log_ratio)) < 1.6
        assert 0.45 < report.best_ratio
        assert report.worst_ratio < 2.2

    def test_rank_correlation_high(self):
        """Analytic ordering must match event ordering (the key property)."""
        report = cross_validate(
            get_workload("resnet50-imagenet"),
            homogeneous(8, jitter_cv=0.0),
            num_configs=10,
            seed=0,
        )
        assert report.rank_correlation > 0.8

    def test_num_configs_validation(self):
        with pytest.raises(ValueError):
            cross_validate(
                get_workload("lstm-ptb"), homogeneous(8), num_configs=2
            )

    def test_summary_row(self):
        report = cross_validate(
            get_workload("lstm-ptb"),
            homogeneous(8, jitter_cv=0.0),
            num_configs=5,
            seed=0,
        )
        row = report.summary_row("lstm-ptb")
        assert row[0] == "lstm-ptb"
        assert row[1] == 5
