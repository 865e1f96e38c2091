"""Tests for harness metrics, optimum estimation, and tables."""

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.cluster import homogeneous
from repro.configspace import ml_config_space, to_training_config
from repro.core import DriftEvent, TrialHistory, TuningBudget, TuningResult
from repro.harness import (
    SweepCell,
    clear_optimum_cache,
    estimate_optimum,
    metrics,
    render_series,
    render_table,
    run_sweep,
)
from repro.harness.cache import clear_experiment_cache
from repro.mlsim import Measurement, TrainingConfig, TrainingEnvironment
from repro.workloads import get_workload

WORKLOAD = get_workload("resnet50-imagenet")


def synthetic_result(objectives, costs=None):
    history = TrialHistory()
    costs = costs or [10.0] * len(objectives)
    for objective, cost in zip(objectives, costs):
        ok = objective is not None
        history.record(
            {"i": len(history)},
            Measurement(
                config=TrainingConfig(),
                ok=ok,
                fidelity="analytic",
                objective=objective,
                probe_cost_s=cost,
            ),
        )
    return TuningResult(
        strategy="synthetic", history=history, best_trial=history.best(), environment={}
    )


class TestNormalization:
    def test_positive_objective(self):
        assert metrics.normalize_objective(80.0, 100.0) == pytest.approx(0.8)
        assert metrics.normalize_objective(100.0, 100.0) == pytest.approx(1.0)

    def test_negative_objective_tta(self):
        # optimum = -100 s, found = -125 s: normalized 0.8.
        assert metrics.normalize_objective(-125.0, -100.0) == pytest.approx(0.8)
        assert metrics.normalize_objective(-100.0, -100.0) == pytest.approx(1.0)

    def test_none_maps_to_zero(self):
        assert metrics.normalize_objective(None, 100.0) == 0.0

    def test_zero_optimum_rejected(self):
        with pytest.raises(ValueError):
            metrics.normalize_objective(1.0, 0.0)


class TestSearchCostMetrics:
    def test_trials_to_within(self):
        result = synthetic_result([50.0, 80.0, 96.0, 99.0])
        assert metrics.trials_to_within(result, 100.0, 0.05) == 3
        assert metrics.trials_to_within(result, 100.0, 0.01) == 4

    def test_unreached_threshold_is_none(self):
        result = synthetic_result([50.0, 60.0])
        assert metrics.trials_to_within(result, 100.0, 0.05) is None
        assert metrics.cost_to_within(result, 100.0, 0.05) is None

    def test_cost_to_within(self):
        result = synthetic_result([50.0, 96.0], costs=[10.0, 30.0])
        assert metrics.cost_to_within(result, 100.0, 0.05) == pytest.approx(40.0)

    def test_fraction_validation(self):
        result = synthetic_result([1.0])
        with pytest.raises(ValueError):
            metrics.trials_to_within(result, 1.0, 1.5)

    def test_failed_trials_skipped_in_best_so_far(self):
        result = synthetic_result([None, 90.0, None, 95.0])
        curve = metrics.normalized_best_so_far(result, 100.0)
        assert curve == pytest.approx([0.0, 0.9, 0.9, 0.95])


class TestMeanCurve:
    def test_pointwise_mean(self):
        assert metrics.mean_curve([[1.0, 2.0], [3.0, 4.0]]) == [2.0, 3.0]

    def test_short_curves_padded_with_last_value(self):
        assert metrics.mean_curve([[1.0], [3.0, 5.0]]) == [2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics.mean_curve([])
        with pytest.raises(ValueError):
            metrics.mean_curve([[]])


class TestSpeedup:
    def test_throughput_speedup(self):
        assert metrics.speedup(300.0, 100.0) == pytest.approx(3.0)

    def test_tta_speedup(self):
        assert metrics.speedup(-100.0, -300.0) == pytest.approx(3.0)


def _reference_search_scalar(
    env, space, samples, grid_resolution, refinement_rounds, rng
):
    """Frozen per-config ``estimate_optimum`` search (the batch reference).

    One :meth:`TrainingEnvironment.true_objective` call per grid point,
    sample and neighbour; the incumbent moves on every strictly better
    value.
    """
    best_config, best_value = None, -np.inf

    def consider(config):
        nonlocal best_config, best_value
        value = env.true_objective(to_training_config(config))
        if value is not None and value > best_value:
            best_config, best_value = dict(config), value

    for config in space.grid(grid_resolution):
        consider(config)
    for config in space.sample_batch(rng, samples):
        consider(config)
    assert best_config is not None
    for _ in range(refinement_rounds):
        improved = False
        for neighbor in space.neighbors(best_config, rng):
            value = env.true_objective(to_training_config(neighbor))
            if value is not None and value > best_value:
                best_config, best_value = dict(neighbor), value
                improved = True
        if not improved:
            break
    return best_config, best_value


class TestSplitAlarms:
    def test_pre_drift_alarm_is_a_false_alarm(self):
        # P8 seed 2's shape: one alarm before the drift at 1,800 s and one
        # after it.
        history = TrialHistory()
        history.record_event(DriftEvent(3, 1602.8, 9.1, 8.0, "decrease"))
        history.record_event(DriftEvent(10, 1953.2, 8.4, 8.0, "decrease"))
        # Swept sessions come back from their payload, with restored events.
        for source in (history, TrialHistory.from_payload(history.to_payload())):
            false_alarms, detections = metrics.split_alarms(source, 1800.0)
            assert [event.wall_clock_s for event in false_alarms] == [1602.8]
            assert [event.wall_clock_s for event in detections] == [1953.2]
        assert metrics.split_alarms(TrialHistory(), 1800.0) == ([], [])


class TestEstimateOptimum:
    def test_optimum_dominates_random_search(self):
        clear_optimum_cache()
        cluster = homogeneous(8)
        env = TrainingEnvironment(WORKLOAD, cluster, seed=0)
        space = ml_config_space(8)
        _, optimum = estimate_optimum(env, space, samples=400, seed=0)
        random = RandomSearch().run(
            TrainingEnvironment(WORKLOAD, cluster, seed=0, noise_cv=0.0),
            space,
            TuningBudget(max_trials=30),
            seed=1,
        )
        assert optimum >= random.best_objective * 0.999

    def test_cached_between_calls(self):
        clear_optimum_cache()
        cluster = homogeneous(8)
        env = TrainingEnvironment(WORKLOAD, cluster, seed=0)
        space = ml_config_space(8)
        first = estimate_optimum(env, space, samples=200, seed=0)
        second = estimate_optimum(env, space, samples=200, seed=0)
        assert first == second

    def test_optimum_config_is_feasible(self):
        clear_optimum_cache()
        cluster = homogeneous(8)
        env = TrainingEnvironment(WORKLOAD, cluster, seed=0)
        space = ml_config_space(8)
        config, value = estimate_optimum(env, space, samples=200, seed=0)
        assert env.true_objective(to_training_config(config)) == pytest.approx(value)

    @pytest.mark.parametrize("objective", ["throughput", "tta"])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_batch_path_bit_identical_to_scalar(self, objective, seed):
        cluster = homogeneous(8)
        env = TrainingEnvironment(WORKLOAD, cluster, seed=3, objective_name=objective)
        space = ml_config_space(8)
        clear_optimum_cache()
        batch = estimate_optimum(
            env, space, samples=300, refinement_rounds=8, seed=seed
        )
        clear_optimum_cache()
        scalar = _reference_search_scalar(
            env, space, 300, 3, 8, np.random.default_rng(seed)
        )
        # Same winning config AND the exact same float, not approx: the
        # batch engine replays the per-config loop's operation order.
        assert batch == scalar

    def test_drifted_environment_does_not_reuse_stationary_optimum(self):
        # Regression: the memo key once ignored the drift schedule, so a
        # drifted environment silently reused its stationary twin's
        # optimum (and vice versa) — normalising post-drift results
        # against a pre-drift anchor.
        from repro.mlsim import StepDrift, StragglerOnset, CompositeDrift

        clear_optimum_cache()
        cluster = homogeneous(8)
        space = ml_config_space(8)
        drift = CompositeDrift(
            (
                StragglerOnset(at_s=10.0, fraction=0.5, slowdown=8.0),
                StepDrift(at_s=10.0, intensity=2.0),
            )
        )
        stationary = TrainingEnvironment(WORKLOAD, cluster, seed=0)
        drifted = TrainingEnvironment(WORKLOAD, cluster, seed=0, drift=drift)
        drifted.set_clock(50.0)
        _, stationary_value = estimate_optimum(stationary, space, samples=200, seed=0)
        _, drifted_value = estimate_optimum(drifted, space, samples=200, seed=0)
        assert drifted_value != stationary_value

        # Two clock epochs of one drifted environment are different
        # problems too: advancing the clock must miss the earlier entry.
        late = TrainingEnvironment(WORKLOAD, cluster, seed=0, drift=drift)
        late.set_clock(5.0)  # pre-drift epoch
        _, early_value = estimate_optimum(late, space, samples=200, seed=0)
        assert early_value != drifted_value
        assert early_value == stationary_value  # pre-onset surface is stationary
        clear_optimum_cache()


class TestCompareStrategies:
    """Two strategies over shared seeds, compared through one sweep."""

    def test_structure_and_ranking(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_experiment_cache()
        cells = [
            SweepCell(
                name=name,
                workload=WORKLOAD.name,
                nodes=8,
                strategy=strategy,
                max_trials=10,
            )
            for name, strategy in (("random", "random"), ("bo", "mlconfig-bo"))
        ]
        report = run_sweep(cells, seeds=[0, 1])
        assert set(report["cells"]) == {"random", "bo"}
        for cell in report["cells"].values():
            assert len(cell["results"]) == 2
            curve = metrics.mean_curve(
                [
                    metrics.normalized_best_so_far(result, cell["optimum_value"])
                    for result in cell["results"]
                ]
            )
            assert len(curve) >= 10
            assert 0 < cell["stats"]["mean"] <= 1.05
        ranking = sorted(
            report["cells"], key=lambda name: -report["cells"][name]["stats"]["mean"]
        )
        assert ranking[0] in {"random", "bo"}
        clear_experiment_cache()


class TestTables:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [[1, 2.5], [None, "x"]])
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert lines[0].startswith("a")
        assert "—" in lines[3]  # None renders as an em dash

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_series(self):
        text = render_series("x", [1, 2], {"s1": [0.1, 0.2], "s2": [0.3, 0.4]})
        assert "s1" in text and "s2" in text

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_series("x", [1, 2], {"s": [0.1]})
