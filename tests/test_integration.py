"""End-to-end integration tests across module boundaries."""

import pytest

from repro.baselines import (
    CherryPick,
    OtterTuneStyle,
    RandomSearch,
    SuccessiveHalving,
    TPE,
    default_strategy,
)
from repro.cluster import homogeneous
from repro.configspace import ml_config_space, to_training_config
from repro.core import HistoryRepository, MLConfigTuner, TuningBudget, knob_importance
from repro.harness import compare_strategies, estimate_optimum, metrics
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload


class TestFullTuningPipeline:
    """The complete story: space → tuner → probes → analysis."""

    def test_bo_tuning_with_importance_analysis(self):
        nodes = 8
        workload = get_workload("word2vec-wiki")
        env = TrainingEnvironment(workload, homogeneous(nodes), seed=0)
        space = ml_config_space(nodes)
        result = MLConfigTuner(seed=0).run(
            env, space, TuningBudget(max_trials=25), seed=0
        )
        assert result.best_objective > 0

        importance = knob_importance(result.history, space, seed=0)
        assert set(importance) == set(space.names())
        # For the most communication-bound workload, the communication
        # knobs together must carry substantial importance.
        comm_knobs = (
            importance["num_ps"]
            + importance["gradient_precision"]
            + importance["architecture"]
            + importance["colocate_ps"]
        )
        assert comm_knobs > 0.15

    def test_tuned_config_reproduces_outside_tuner(self):
        """The config a tuner reports must deliver its objective when
        re-measured independently (no hidden state)."""
        nodes = 8
        workload = get_workload("resnet50-imagenet")
        env = TrainingEnvironment(workload, homogeneous(nodes), seed=0)
        space = ml_config_space(nodes)
        result = MLConfigTuner(seed=0).run(
            env, space, TuningBudget(max_trials=15), seed=0
        )
        fresh_env = TrainingEnvironment(
            workload, homogeneous(nodes), seed=0, noise_cv=0.0
        )
        replay = fresh_env.measure(to_training_config(result.best_config))
        assert replay.ok
        assert replay.throughput == pytest.approx(
            result.best_objective, rel=0.15  # tuner saw noisy values
        )

    def test_objective_switch_changes_best_config_family(self):
        """Throughput- and TTA-tuning should be able to disagree (the
        batch-size knob trades hardware vs statistical efficiency)."""
        nodes = 8
        workload = get_workload("lstm-ptb")
        space = ml_config_space(nodes)
        thpt = MLConfigTuner(seed=0).run(
            TrainingEnvironment(workload, homogeneous(nodes), seed=0),
            space, TuningBudget(max_trials=25), seed=0,
        )
        tta = MLConfigTuner(seed=0).run(
            TrainingEnvironment(
                workload, homogeneous(nodes), seed=0, objective_name="tta"
            ),
            space, TuningBudget(max_trials=25), seed=0,
        )
        # TTA tuning prefers an equal or smaller global batch than pure
        # throughput tuning (statistical efficiency pushes batch down).
        thpt_batch = thpt.best_config["num_workers"] * thpt.best_config["batch_per_worker"]
        tta_batch = tta.best_config["num_workers"] * tta.best_config["batch_per_worker"]
        assert tta_batch <= thpt_batch * 1.5  # never dramatically larger


class TestAllStrategiesEndToEnd:
    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: MLConfigTuner(seed=1),
            lambda: CherryPick(seed=1),
            lambda: TPE(seed=1),
            lambda: SuccessiveHalving(seed=1),
            lambda: RandomSearch(),
        ],
        ids=["bo", "cherrypick", "tpe", "halving", "random"],
    )
    def test_strategy_beats_default(self, strategy_factory):
        nodes = 8
        workload = get_workload("resnet50-imagenet")
        space = ml_config_space(nodes)
        result = strategy_factory().run(
            TrainingEnvironment(workload, homogeneous(nodes), seed=2),
            space,
            TuningBudget(max_trials=20),
            seed=2,
        )
        default = default_strategy().run(
            TrainingEnvironment(workload, homogeneous(nodes), seed=2),
            space,
            TuningBudget(max_trials=1),
            seed=2,
        )
        assert result.best_objective > default.best_objective


class TestTransferPipeline:
    def test_repository_built_from_real_sessions_maps_correctly(self):
        """Tuning ResNet then warm-starting Inception (its architectural
        sibling) should map Inception onto ResNet, not word2vec."""
        nodes = 8
        space = ml_config_space(nodes)
        repo = HistoryRepository()
        for prior in ("resnet50-imagenet", "word2vec-wiki"):
            env = TrainingEnvironment(get_workload(prior), homogeneous(nodes), seed=3)
            session = RandomSearch().run(
                env, space, TuningBudget(max_trials=20), seed=3
            )
            repo.add_session(
                prior, [(t.config, t.objective) for t in session.history.successful()]
            )
        strategy = OtterTuneStyle(repository=repo, seed=3)
        env = TrainingEnvironment(
            get_workload("inception-imagenet"), homogeneous(nodes), seed=3
        )
        strategy.run(env, space, TuningBudget(max_trials=15), seed=3)
        assert strategy.mapped_workload == "resnet50-imagenet"


class TestComparisonOptimumConsistency:
    def test_no_strategy_beats_the_estimated_optimum_materially(self):
        nodes = 8
        workload = get_workload("lstm-ptb")
        comparison = compare_strategies(
            {
                "bo": lambda seed: MLConfigTuner(seed=seed),
                "random": lambda seed: RandomSearch(),
            },
            workload,
            homogeneous(nodes),
            TuningBudget(max_trials=15),
            repeats=2,
            seed=4,
        )
        for outcome in comparison.outcomes.values():
            # Measurement noise can push a observed value slightly past the
            # noise-free optimum, but not by more than the noise envelope.
            assert outcome.mean_normalized_best < 1.12
