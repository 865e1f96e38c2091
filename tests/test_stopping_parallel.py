"""Tests for stopping rules and constant-liar proposals."""

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.cluster import homogeneous
from repro.configspace import ConfigSpace, FloatParameter, ml_config_space
from repro.core import MLConfigTuner, TrialHistory, TuningBudget
from repro.core.bo import DEFAULT_COST_LIE_S, BayesianProposer, _fantasy_history
from repro.core.fleet import EnvironmentShard
from repro.core.stopping import StoppedStrategy, TargetRule
from repro.mlsim import Measurement, TrainingConfig, TrainingEnvironment
from repro.workloads import get_workload


def make_history(objectives, cost=10.0):
    history = TrialHistory()
    for objective in objectives:
        ok = objective is not None
        history.record(
            {"x": 0.5},
            Measurement(
                config=TrainingConfig(),
                ok=ok,
                fidelity="analytic",
                objective=objective,
                probe_cost_s=cost,
            ),
        )
    return history


def fantasy_lies(history):
    """The (objective, probe cost) a fantasy on ``history`` lies with."""
    fantasy = _fantasy_history(history, [{"x": 0.5}])[len(history)]
    return fantasy.measurement.objective, fantasy.measurement.probe_cost_s


class TestOtherRules:
    def test_target_rule(self):
        rule = TargetRule(target=100.0)
        assert not rule.should_stop(make_history([50.0]))
        assert rule.should_stop(make_history([50.0, 120.0]))

    def test_reasons_are_informative(self):
        assert "target" in TargetRule(10.0).reason()


class TestStoppedStrategy:
    def test_target_ends_session_early(self):
        def env():
            return TrainingEnvironment(
                get_workload("resnet50-imagenet"), homogeneous(8), seed=0
            )

        full = RandomSearch().run(
            env(), ml_config_space(8), TuningBudget(max_trials=60), seed=0
        )
        target = full.history.best_so_far_series()[9]
        strategy = StoppedStrategy(RandomSearch(), [TargetRule(target)])
        result = strategy.run(
            env(), ml_config_space(8), TuningBudget(max_trials=60), seed=0
        )
        assert result.num_trials <= 10
        assert result.best_objective >= target
        assert strategy.stop_reason == TargetRule(target).reason()

    def test_wraps_bo_tuner(self):
        env = TrainingEnvironment(
            get_workload("resnet50-imagenet"), homogeneous(8), seed=0
        )
        strategy = StoppedStrategy(MLConfigTuner(seed=0), [TargetRule(float("inf"))])
        result = strategy.run(
            env, ml_config_space(8), TuningBudget(max_trials=20), seed=0
        )
        assert strategy.stop_reason is None and result.num_trials == 20
        assert "stop" in strategy.name

    def test_needs_rules(self):
        with pytest.raises(ValueError):
            StoppedStrategy(RandomSearch(), [])


def liar_round(proposer, history, rng, k):
    """A barrier round's proposals: each member fantasises its predecessors."""
    batch = []
    for _ in range(k):
        batch.append(proposer.propose(history, rng, pending=list(batch)))
    return batch


class TestConstantLiar:
    def _setup(self):
        space = ConfigSpace(
            [FloatParameter("x", 0.0, 1.0), FloatParameter("y", 0.0, 1.0)]
        )
        proposer = BayesianProposer(space, n_initial=4, n_candidates=128, seed=0)
        history = TrialHistory()
        rng = np.random.default_rng(0)
        for _ in range(8):
            config = space.sample(rng)
            history.record(
                config,
                Measurement(
                    config=TrainingConfig(),
                    ok=True,
                    fidelity="analytic",
                    objective=-((config["x"] - 0.7) ** 2) - (config["y"] - 0.3) ** 2,
                    probe_cost_s=1.0,
                ),
            )
        return space, proposer, history

    def test_batch_size_and_validity(self):
        space, proposer, history = self._setup()
        rng = np.random.default_rng(1)
        batch = liar_round(proposer, history, rng, 4)
        assert len(batch) == 4
        for config in batch:
            assert space.is_valid(config)

    def test_batch_is_diverse(self):
        space, proposer, history = self._setup()
        rng = np.random.default_rng(1)
        batch = liar_round(proposer, history, rng, 4)
        points = np.array([[c["x"], c["y"]] for c in batch])
        # Pairwise distances must not all be ~0 (no near-duplicate batch).
        dists = [
            np.linalg.norm(points[i] - points[j])
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        assert max(dists) > 0.05

    def test_fantasies_do_not_leak_into_history(self):
        space, proposer, history = self._setup()
        before = len(history)
        liar_round(proposer, history, np.random.default_rng(2), 3)
        assert len(history) == before

    def test_validation(self):
        # The fantasies' cost lie is scaled by the target shard's
        # multiplier, and a shard rejects a non-positive one.
        with pytest.raises(ValueError, match="cost_multiplier"):
            EnvironmentShard("slow", None, cost_multiplier=-1.0)

    def test_cost_lie_falls_back_to_all_trials_then_default(self):
        """Regression: an all-failed history must not produce a 0s cost lie.

        Failed probes still burned machine time; a zero-cost fantasy is
        exactly the cost-surrogate poisoning the lie is meant to avoid.
        """
        all_failed = TrialHistory()
        for cost in (30.0, 50.0, 40.0):
            all_failed.record(
                {"x": 0.5},
                Measurement(
                    config=TrainingConfig(), ok=False, fidelity="analytic",
                    objective=None, probe_cost_s=cost,
                ),
            )
        fantasy = _fantasy_history(all_failed, [{"x": 0.5}])[3]
        # No success to lie about: the objective lie is None (the fantasy
        # records as a failed probe) — any constant would fabricate an
        # objective scale, and for negated objectives (tta) 0.0 would
        # outrank every feasible value.
        assert not fantasy.ok
        assert fantasy.measurement.objective is None
        assert fantasy.measurement.probe_cost_s == pytest.approx(40.0)

        # No trials at all (or only zero-cost ones): a positive default.
        assert fantasy_lies(TrialHistory())[1] == DEFAULT_COST_LIE_S
        zero_cost = make_history([None, None], cost=0.0)
        assert fantasy_lies(zero_cost)[1] == DEFAULT_COST_LIE_S
        # Zero-cost *successes* fall through too: first to the all-trials
        # median, then to the default.
        mixed = make_history([1.0], cost=0.0)
        mixed.record(
            {"x": 0.5},
            Measurement(
                config=TrainingConfig(), ok=False, fidelity="analytic",
                objective=None, probe_cost_s=20.0,
            ),
        )
        assert fantasy_lies(mixed) == (1.0, 10.0)
        zero_success = make_history([1.0, 2.0], cost=0.0)
        assert fantasy_lies(zero_success) == (2.0, DEFAULT_COST_LIE_S)

    def test_fantasy_measurement_carries_fantasy_config(self):
        """Regression: fantasies used to carry a default TrainingConfig."""
        from repro.configspace import to_training_config

        config = {"num_workers": 7, "batch_per_worker": 64}
        fantasy = _fantasy_history(make_history([1.0], cost=30.0), [config])[1]
        assert fantasy.measurement.fidelity == "fantasy"
        assert fantasy.measurement.config == to_training_config(config)
        assert fantasy.measurement.config.num_workers == 7
        assert fantasy.measurement.probe_cost_s == 30.0

    def test_fantasy_extension_preserves_replayed_metadata(self):
        """Regression: the per-fantasy O(k·n) replay dropped round/wall stamps."""
        history = TrialHistory()
        history.record(
            {"x": 0.1},
            Measurement(
                config=TrainingConfig(), ok=True, fidelity="analytic",
                objective=2.0, probe_cost_s=6.0,
            ),
            wall_clock_s=6.0,
            round_index=0,
            completed_at_wall_s=6.0,
        )
        history.record(
            {"x": 0.2},
            Measurement(
                config=TrainingConfig(), ok=True, fidelity="analytic",
                objective=3.0, probe_cost_s=2.0,
            ),
            wall_clock_s=0.0,
            round_index=0,
            completed_at_wall_s=2.0,
        )
        # Lies: the incumbent 3.0 at the median cost 4.0.
        extended = _fantasy_history(history, [{"x": 0.3}])
        assert extended[2].objective == 3.0
        assert [t.round_index for t in extended][:2] == [0, 0]
        assert extended[0].cumulative_wall_clock_s == 6.0
        assert extended[1].cumulative_wall_clock_s == 2.0
        assert extended.total_wall_clock_s == pytest.approx(
            history.total_wall_clock_s + 4.0
        )
        # The original history is untouched.
        assert len(history) == 2
        assert history.total_cost_s == pytest.approx(8.0)

    def test_history_clone_is_isolated(self):
        history = make_history([1.0, 2.0], cost=10.0)
        clone = _fantasy_history(history, [{"x": 0.9}])
        assert len(clone) == 3 and len(history) == 2
        assert history.total_cost_s == pytest.approx(20.0)
        assert clone.total_cost_s == pytest.approx(30.0)

    def test_propose_async_conditions_on_pending(self):
        space, proposer, history = self._setup()
        rng = np.random.default_rng(3)
        first = proposer.propose(history, np.random.default_rng(3))
        # Fantasising the first point away must steer the next proposal
        # elsewhere — the same seed without pending returns the same point.
        again = proposer.propose(history, np.random.default_rng(3))
        assert first == again
        second = proposer.propose(
            history, np.random.default_rng(3), pending=[first]
        )
        assert second != first
        assert space.is_valid(second)
        assert len(history) == 2 + 6  # setup's 8 trials, no fantasy leaked
