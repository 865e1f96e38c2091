"""Tests for the TuningSession / executor layer and its callbacks."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from repro.baselines import CherryPick, GridSearch, RandomSearch, SuccessiveHalving
from repro.cluster import homogeneous
from repro.configspace import FloatParameter, ConfigSpace, ml_config_space
from repro.core import (
    CHECKPOINT_VERSION,
    AsyncExecutor,
    EnvironmentPool,
    EnvironmentShard,
    MLConfigTuner,
    ParallelExecutor,
    SerialExecutor,
    TrialHistory,
    TuningBudget,
    TuningSession,
)
from repro.core.session import (
    JsonlTrialLog,
    ProgressLogger,
    SessionCallback,
    executor_for,
)
from repro.core.fleet import FailureInjector, OutageWindow
from repro.core.stopping import PlateauRule, StoppedStrategy, TargetRule
from repro.core.strategy import SearchStrategy
from repro.harness.chaos import result_fingerprint
from repro.mlsim import Measurement, TrainingConfig, TrainingEnvironment
from repro.workloads import get_workload

NODES = 8


def make_env(workload="resnet50-imagenet", seed=0, nodes=NODES):
    return TrainingEnvironment(get_workload(workload), homogeneous(nodes), seed=seed)


def space(nodes=NODES):
    return ml_config_space(nodes)


def seed_reference_loop(strategy, env, space_, budget, seed):
    """The pre-session serial run loop, reimplemented verbatim."""
    rng = np.random.default_rng(seed)
    history = TrialHistory()
    while not budget.exhausted(history) and not strategy.finished(history, space_):
        config = strategy.propose(history, space_, rng)
        measurement = strategy.measure(env, config)
        trial = history.record(config, measurement)
        strategy.observe(trial)
    return history


class CostedStrategy(SearchStrategy):
    """Deterministic stub with scripted probe costs (no real environment).

    ``oks`` optionally scripts per-probe success (default: all succeed).
    """

    name = "costed-stub"

    def __init__(self, costs, oks=None):
        self.costs = list(costs)
        self.oks = list(oks) if oks is not None else None
        self.cursor = 0

    def propose(self, history, space_, rng, pending=(), shard=None):
        return {"x": 0.5}

    def measure(self, env, config):
        cost = float(self.costs[self.cursor % len(self.costs)])
        ok = self.oks[self.cursor % len(self.oks)] if self.oks else True
        self.cursor += 1
        return Measurement(
            config=TrainingConfig(),
            ok=ok,
            fidelity="stub",
            objective=cost if ok else None,
            probe_cost_s=cost,
        )


class StubEnv:
    def describe(self):
        return {"workload": "stub"}


def stub_space():
    return ConfigSpace([FloatParameter("x", 0.0, 1.0)])


def round_proposals(strategy, space_, k):
    """Up to ``k`` members of one barrier round, proposed as the executor does."""
    rng = np.random.default_rng(0)
    batch = []
    for _ in range(k):
        config = strategy.propose(TrialHistory(), space_, rng, pending=list(batch))
        if config is None:
            break
        batch.append(config)
    return batch


class TestSerialEquivalence:
    """TuningSession + SerialExecutor must reproduce the seed loop exactly."""

    @pytest.mark.parametrize(
        "factory,trials",
        [(lambda: RandomSearch(), 10), (lambda: MLConfigTuner(seed=0), 14)],
    )
    def test_history_identical_to_seed_loop(self, factory, trials):
        budget = TuningBudget(max_trials=trials)
        reference = seed_reference_loop(
            factory(), make_env(), space(), budget, seed=0
        )
        result = factory().run(make_env(), space(), budget, seed=0)
        assert [t.config for t in result.history] == [t.config for t in reference]
        assert [t.objective for t in result.history] == [
            t.objective for t in reference
        ]
        assert result.history.cost_series() == reference.cost_series()

    def test_serial_wall_clock_equals_machine_cost(self):
        result = RandomSearch().run(
            make_env(), space(), TuningBudget(max_trials=8), seed=1
        )
        assert result.total_wall_clock_s == pytest.approx(result.total_cost_s)
        assert result.history.wall_clock_series() == result.history.cost_series()
        assert result.history.num_rounds == result.num_trials

    def test_explicit_session_matches_run_shim(self):
        shim = RandomSearch().run(make_env(), space(), TuningBudget(max_trials=6), seed=2)
        direct = TuningSession(RandomSearch(), executor=SerialExecutor()).run(
            make_env(), space(), TuningBudget(max_trials=6), seed=2
        )
        assert [t.config for t in shim.history] == [t.config for t in direct.history]


class TestParallelExecutor:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)

    def test_wall_clock_is_max_per_round(self):
        strategy = CostedStrategy([5.0, 3.0, 1.0, 2.0, 8.0, 4.0])
        result = TuningSession(strategy, executor=ParallelExecutor(3)).run(
            StubEnv(), stub_space(), TuningBudget(max_trials=6), seed=0
        )
        assert result.num_trials == 6
        assert result.history.num_rounds == 2
        assert result.total_cost_s == pytest.approx(23.0)
        # Round walls: max(5,3,1)=5 and max(2,8,4)=8.
        assert result.total_wall_clock_s == pytest.approx(13.0)
        assert [t.round_index for t in result.history] == [0, 0, 0, 1, 1, 1]

    def test_trial_stamps_are_physical_completion_times(self):
        strategy = CostedStrategy([5.0, 3.0, 1.0, 2.0, 8.0, 4.0])
        result = TuningSession(strategy, executor=ParallelExecutor(3)).run(
            StubEnv(), stub_space(), TuningBudget(max_trials=6), seed=0
        )
        # Each trial completes at its round's start plus its own probe cost.
        assert result.history.wall_clock_series() == pytest.approx(
            [5.0, 3.0, 1.0, 7.0, 13.0, 9.0]
        )

    def test_wall_clock_to_reach_is_order_independent(self):
        # The cheap high-objective probe reaches the threshold at its own
        # completion time regardless of where it sits in the batch.
        for costs, want in ([9.0, 1.0], 1.0), ([1.0, 9.0], 1.0):
            strategy = CostedStrategy(costs)
            result = TuningSession(strategy, executor=ParallelExecutor(2)).run(
                StubEnv(), stub_space(), TuningBudget(max_trials=2), seed=0
            )
            # CostedStrategy reports objective == cost, so threshold 1.0 is
            # first met by the 1-second probe.
            assert result.history.wall_clock_to_reach(1.0) == pytest.approx(want)

    def test_truncates_batch_at_trial_budget(self):
        strategy = CostedStrategy([1.0])
        result = TuningSession(strategy, executor=ParallelExecutor(4)).run(
            StubEnv(), stub_space(), TuningBudget(max_trials=6), seed=0
        )
        assert result.num_trials == 6
        assert [t.round_index for t in result.history] == [0, 0, 0, 0, 1, 1]

    def test_cost_budget_stops_after_round(self):
        strategy = CostedStrategy([10.0])
        result = TuningSession(strategy, executor=ParallelExecutor(2)).run(
            StubEnv(), stub_space(), TuningBudget(max_trials=None, max_cost_s=35.0), seed=0
        )
        # Rounds cost 20 machine-seconds each; the second pushes past 35.
        assert result.num_trials == 4
        assert result.total_cost_s == pytest.approx(40.0)

    def test_cost_budget_cancels_rest_of_round_and_bills_elapsed(self):
        strategy = CostedStrategy([10.0])
        result = TuningSession(strategy, executor=ParallelExecutor(4)).run(
            StubEnv(), stub_space(), TuningBudget(max_trials=None, max_cost_s=15.0), seed=0
        )
        # The cap hits after the second member records; the other two are
        # cancelled, so recorded overshoot stays within one probe (as in
        # serial execution) — but their slots were occupied from the round
        # start until the cancellation instant (the tripping member's
        # 10s completion), and that elapsed wall-clock is billed as
        # cancelled machine cost: 20 recorded + 2 x 10 cancelled.
        assert result.num_trials == 2
        assert result.history.cancelled_cost_s == pytest.approx(20.0)
        assert result.total_cost_s == pytest.approx(40.0)
        assert sum(result.history.cost_by_shard().values()) == pytest.approx(
            result.total_cost_s
        )

    def test_wall_cap_does_not_cancel_round_members_by_recording_order(self):
        # All four members launched at the round start; the slow one
        # recording first must not cancel round-mates that physically
        # completed before the cap.  Either batch order records all four.
        for costs in ([12.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 12.0]):
            strategy = CostedStrategy(costs)
            result = TuningSession(strategy, executor=ParallelExecutor(4)).run(
                StubEnv(), stub_space(),
                TuningBudget(max_trials=None, max_wall_clock_s=10.0), seed=0,
            )
            assert result.num_trials == 4
            assert result.total_wall_clock_s == pytest.approx(12.0)

    def test_round_proposals_advance_grid_cursor(self):
        strategy = GridSearch(resolution=1, seed=0)
        batch = round_proposals(strategy, space(), 4)
        assert len(batch) == 4
        seen = [tuple(sorted(c.items())) for c in batch]
        assert len(seen) == len(set(seen))

    def test_grid_declines_at_exhaustion(self):
        strategy = GridSearch(resolution=1, seed=0)
        size = len(list(space().grid(1)))
        batch = round_proposals(strategy, space(), size + 5)
        # Every grid point once, then None: a round never pads past the
        # grid with random samples.
        assert len(batch) == size
        assert strategy.propose(
            TrialHistory(), space(), np.random.default_rng(0), pending=batch
        ) is None

    def test_parallel_grid_stops_at_exhaustion_without_random_padding(self):
        serial = GridSearch(resolution=1, seed=0)
        serial_result = serial.run(make_env(), space(), TuningBudget(max_trials=500))
        parallel = GridSearch(resolution=1, seed=0)
        parallel_result = parallel.run(
            make_env(), space(), TuningBudget(max_trials=500),
            executor=ParallelExecutor(4),
        )
        # Same grid, same exhaustion point: no off-grid random fillers.
        assert parallel_result.num_trials == serial_result.num_trials
        assert {tuple(sorted(t.config.items())) for t in parallel_result.history} == {
            tuple(sorted(t.config.items())) for t in serial_result.history
        }

    def test_halving_batch_stays_within_one_rung(self):
        strategy = SuccessiveHalving(bracket_size=6, eta=3, seed=0)
        batch = round_proposals(strategy, space(), 100)
        # The first rung has bracket_size members; the round never crosses
        # into the next rung even when more slots are available.
        assert len(batch) == 6

    def test_parallel_cherrypick_still_stops_on_ei_threshold(self):
        from repro.baselines import CherryPick

        result = CherryPick(seed=0).run(
            make_env(), space(), TuningBudget(max_trials=40), seed=0,
            executor=ParallelExecutor(4),
        )
        assert result.num_trials < 40

    @pytest.mark.parametrize(
        "verdicts, expected_trials", [(("stop", "go"), 6), (("go", "stop"), 2)]
    )
    def test_cherrypick_round_verdict_is_the_last_members(
        self, verdicts, expected_trials
    ):
        """A round stops on its last member's fit, whatever earlier
        members' fits said: that fit is conditioned on every round-mate."""

        class ScriptedProposer:
            def __init__(self):
                self.calls = 0
                self.last_fit_diagnostics = {}

            def propose(self, history, rng, pending=(), shard=None):
                acquisition = 0.0 if verdicts[self.calls % 2] == "stop" else 1.0
                self.calls += 1
                self.last_fit_diagnostics = {
                    "incumbent": 1.0, "acquisition_value": acquisition,
                }
                return {"x": 0.5}

        class ScriptedCherryPick(CherryPick):
            def _ensure_proposer(self, space_):
                if self._proposer is None:
                    self._proposer = ScriptedProposer()
                return self._proposer

            def measure(self, env, config):
                return Measurement(
                    config=TrainingConfig(), ok=True, fidelity="stub",
                    objective=1.0, probe_cost_s=1.0,
                )

        result = TuningSession(
            ScriptedCherryPick(min_trials=0), executor=ParallelExecutor(2)
        ).run(StubEnv(), stub_space(), TuningBudget(max_trials=6), seed=0)
        assert result.num_trials == expected_trials


class TestAsyncExecutor:
    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncExecutor(workers=0)

    def test_executor_for_modes(self):
        assert isinstance(executor_for(4, mode="async"), AsyncExecutor)
        assert isinstance(executor_for(4, mode="sync"), ParallelExecutor)
        # One worker has no barrier to remove: serial in both modes.
        assert isinstance(executor_for(1, mode="async"), SerialExecutor)
        assert isinstance(executor_for(1), SerialExecutor)
        with pytest.raises(ValueError):
            executor_for(4, mode="bsp")
        with pytest.raises(ValueError):
            executor_for(0, mode="async")

    def _run(self, costs, executor, budget=None, trials=None):
        strategy = CostedStrategy(costs)
        budget = budget or TuningBudget(max_trials=trials or len(costs))
        return TuningSession(strategy, executor=executor).run(
            StubEnv(), stub_space(), budget, seed=0
        )

    def test_async_beats_sync_wall_clock_on_heterogeneous_costs(self):
        # Sync rounds: max(4,1)=4 then max(1,1)=1 -> 5.  Async: worker 0
        # holds the 4s probe while worker 1 chews through the three 1s
        # probes -> makespan 4.
        costs = [4.0, 1.0, 1.0, 1.0]
        sync = self._run(costs, ParallelExecutor(2))
        asyn = self._run(costs, AsyncExecutor(2))
        assert asyn.total_wall_clock_s < sync.total_wall_clock_s
        assert sync.total_wall_clock_s == pytest.approx(5.0)
        assert asyn.total_wall_clock_s == pytest.approx(4.0)

    def test_machine_cost_identical_per_probe(self):
        costs = [4.0, 1.0, 2.0, 8.0, 1.0, 3.0]
        sync = self._run(costs, ParallelExecutor(3))
        asyn = self._run(costs, AsyncExecutor(3))
        assert asyn.total_cost_s == pytest.approx(sync.total_cost_s)
        # Probe-for-probe: the same multiset of machine costs is billed.
        assert sorted(
            t.measurement.probe_cost_s for t in asyn.history
        ) == sorted(t.measurement.probe_cost_s for t in sync.history)

    def test_async_matches_sync_on_homogeneous_costs(self):
        # With equal probe durations the barrier never causes idling.
        sync = self._run([2.0] * 6, ParallelExecutor(3))
        asyn = self._run([2.0] * 6, AsyncExecutor(3))
        assert asyn.total_wall_clock_s == pytest.approx(sync.total_wall_clock_s)

    def test_trials_recorded_in_completion_order(self):
        # Launch order is [5s, 1s]; the 1s probe finishes first and is
        # recorded as trial 0 with its own physical completion stamp.
        result = self._run([5.0, 1.0], AsyncExecutor(2))
        assert [t.objective for t in result.history] == [1.0, 5.0]
        assert result.history.wall_clock_series() == pytest.approx([1.0, 5.0])
        assert result.total_wall_clock_s == pytest.approx(5.0)
        # launch_index correlates each trial with its trial_start event.
        assert [t.launch_index for t in result.history] == [1, 0]
        assert [t.index for t in result.history] == [0, 1]

    def test_callback_ordering_with_out_of_order_completions(self):
        recorder = RecordingCallback()
        TuningSession(
            CostedStrategy([5.0, 1.0, 1.0]),
            executor=AsyncExecutor(2),
            callbacks=[recorder],
        ).run(StubEnv(), stub_space(), TuningBudget(max_trials=3), seed=0)
        # trial_start indices are launch ordinals, trial_end indices are
        # completion ordinals: the 5s probe launched first ends last.
        assert recorder.events == [
            "session_start",
            "trial_start:0",
            "trial_start:1",
            "trial_end:0",
            "round_end:0",
            "trial_start:2",
            "trial_end:1",
            "round_end:1",
            "trial_end:2",
            "round_end:2",
            "session_end",
        ]

    def test_never_launches_beyond_trial_budget(self):
        result = self._run([1.0], AsyncExecutor(4), trials=5)
        assert result.num_trials == 5

    def test_max_wall_clock_budget_gates_launches(self):
        # 4s probes on 2 workers: launches at 0,0,4,4,8,8 all start before
        # the 10s cap; the completions at 12 overshoot it (by less than one
        # probe per worker), and nothing launches at t >= 10.
        result = self._run(
            [4.0],
            AsyncExecutor(2),
            budget=TuningBudget(max_trials=None, max_wall_clock_s=10.0),
        )
        assert result.num_trials == 5
        assert result.total_wall_clock_s == pytest.approx(12.0)
        assert max(result.history.wall_clock_series()) <= 10.0 + 4.0

    def test_max_wall_clock_budget_serial(self):
        result = self._run(
            [4.0],
            SerialExecutor(),
            budget=TuningBudget(max_trials=None, max_wall_clock_s=10.0),
        )
        # 4s, 8s, 12s: the probe crossing the cap is the last.
        assert result.num_trials == 3

    def test_wall_clock_budget_validation(self):
        with pytest.raises(ValueError):
            TuningBudget(max_trials=None, max_wall_clock_s=-1.0)
        # A wall-clock cap alone is a valid budget.
        budget = TuningBudget(max_trials=None, max_wall_clock_s=60.0)
        assert budget.max_wall_clock_s == 60.0

    def test_cost_budget_counts_in_flight_probes(self):
        # Cap 15 with 10s probes: the second launch commits 20 machine
        # seconds, so no third probe is ever launched.
        result = self._run(
            [10.0],
            AsyncExecutor(4),
            budget=TuningBudget(max_trials=None, max_cost_s=15.0),
        )
        assert result.total_cost_s == pytest.approx(20.0)

    def test_reused_executor_resets_free_list(self):
        executor = AsyncExecutor(2)
        first = self._run([3.0, 1.0, 2.0, 1.0], executor)
        second = self._run([3.0, 1.0, 2.0, 1.0], executor)
        assert second.num_trials == first.num_trials
        assert second.total_wall_clock_s == pytest.approx(first.total_wall_clock_s)

    def test_halving_async_waits_at_rung_boundary(self):
        from repro.baselines import SuccessiveHalving

        strategy = SuccessiveHalving(bracket_size=4, eta=2, seed=0)
        strategy.reset()
        rng = np.random.default_rng(0)
        sp = space()
        history = TrialHistory()
        launched = []
        for _ in range(4):
            config = strategy.propose(history, sp, rng, pending=launched)
            assert config is not None
            launched.append(config)
        # Rung fully launched, nothing observed: promotion would run on an
        # empty result set — the strategy must wait, not cross the rung.
        assert strategy.propose(history, sp, rng, pending=launched) is None

    def test_halving_async_preserves_rung_structure(self):
        """Regression: async halving must not promote on partial rungs.

        A 6-wide bracket at eta=3 has rungs of 6 then 2; the two promoted
        configs must be drawn from the first rung's members.
        """
        from repro.baselines import SuccessiveHalving

        result = SuccessiveHalving(bracket_size=6, eta=3, seed=0).run(
            make_env(), space(), TuningBudget(max_trials=8), seed=0,
            executor=AsyncExecutor(4),
        )
        assert result.num_trials == 8
        trials = sorted(result.history, key=lambda t: t.launch_index)
        rung0 = {tuple(sorted(t.config.items())) for t in trials[:6]}
        rung1 = [tuple(sorted(t.config.items())) for t in trials[6:]]
        assert len(rung0) == 6
        assert len(rung1) == 2
        assert set(rung1) <= rung0

    def test_async_grid_drains_in_flight_at_exhaustion(self):
        """Regression: a finished strategy must not discard in-flight probes.

        When the grid cursor exhausts with probes still in flight, the
        session drains them — every grid point is recorded, exactly as
        under serial or synchronous-parallel execution.
        """
        serial = GridSearch(resolution=1, seed=0).run(
            make_env(), space(), TuningBudget(max_trials=500)
        )
        asyn = GridSearch(resolution=1, seed=0).run(
            make_env(), space(), TuningBudget(max_trials=500),
            executor=AsyncExecutor(4),
        )
        assert asyn.num_trials == serial.num_trials
        assert {tuple(sorted(t.config.items())) for t in asyn.history} == {
            tuple(sorted(t.config.items())) for t in serial.history
        }
        assert asyn.total_cost_s == pytest.approx(serial.total_cost_s)

    def test_unfinishing_stop_rule_cannot_launch_in_the_past(self):
        """Regression: a worker idled behind a launch gate relaunches *now*.

        FailureStreakRule fires after two fast failures, the slow success
        drains and breaks the streak, and the session resumes.  The idle
        worker's free-time (t=20) is stale by then; launching there would
        produce time-travelling trials and non-monotone completion stamps.
        """
        from repro.core.stopping import FailureStreakRule

        strategy = StoppedStrategy(
            CostedStrategy(
                [10.0, 1000.0, 10.0, 100.0],
                oks=[False, True, False, True],
            ),
            [FailureStreakRule(streak=2)],
        )
        result = TuningSession(strategy, executor=AsyncExecutor(2)).run(
            StubEnv(), stub_space(), TuningBudget(max_trials=5), seed=0
        )
        stamps = result.history.wall_clock_series()
        assert stamps == sorted(stamps)
        # The post-resume launches start at the session clock (t=1000),
        # not at the stale free-time (t=20).
        assert stamps[-1] == pytest.approx(1100.0)
        assert result.total_wall_clock_s == pytest.approx(1100.0)

    def test_async_bo_tuner_runs_and_accounts_honestly(self):
        result = MLConfigTuner(seed=0).run(
            make_env(), space(), TuningBudget(max_trials=16), seed=0,
            executor=AsyncExecutor(4),
        )
        assert result.num_trials == 16
        assert result.best_objective is not None
        # All probes billed, but the stopwatch only sees per-worker timelines.
        assert result.total_cost_s > result.total_wall_clock_s

    def test_budget_cancellation_bills_partial_cost(self):
        # Both probes launch at t=0; the 1s completion exhausts the wall
        # cap, so the 10s probe is cancelled after 1 elapsed second — that
        # second was still burned on the cluster and must appear in the
        # machine-cost total (itemised as cancelled cost).
        result = self._run(
            [1.0, 10.0],
            AsyncExecutor(2),
            budget=TuningBudget(max_trials=None, max_wall_clock_s=0.5),
        )
        assert result.num_trials == 1
        assert result.history.cancelled_cost_s == pytest.approx(1.0)
        assert result.total_cost_s == pytest.approx(2.0)

    def test_cancellation_charge_clamped_to_probe_duration(self):
        # Completion order records the 2s probe first (wall=2); the 10s
        # probe launched at t=0 is billed its 2 elapsed seconds, while a
        # probe that completed exactly at the stop is billed in full, never
        # more than its own duration.
        result = self._run(
            [10.0, 2.0],
            AsyncExecutor(2),
            budget=TuningBudget(max_trials=None, max_wall_clock_s=1.0),
        )
        assert result.num_trials == 1
        assert result.history.cancelled_cost_s == pytest.approx(2.0)
        assert result.total_cost_s == pytest.approx(4.0)

    def test_drained_in_flight_probes_are_not_billed_as_cancelled(self):
        # Strategy-finish drains in-flight probes to completion: they are
        # recorded as trials, so no cancellation charge may apply.
        result = GridSearch(resolution=1, seed=0).run(
            make_env(), space(), TuningBudget(max_trials=500),
            executor=AsyncExecutor(4),
        )
        assert result.history.cancelled_cost_s == 0.0

    def test_cancelled_cost_survives_history_clone(self):
        history = TrialHistory()
        history.charge_cancelled(7.0)
        clone = history.clone()
        assert clone.cancelled_cost_s == pytest.approx(7.0)
        assert clone.total_cost_s == pytest.approx(7.0)
        with pytest.raises(ValueError):
            history.charge_cancelled(-1.0)

    def test_stopping_rule_stops_async_session(self):
        # The stub's objective is its probe cost, so the target is first
        # reached by the fourth probe.
        strategy = StoppedStrategy(
            CostedStrategy([1.0, 2.0, 3.0, 4.0, 5.0]), [TargetRule(target=4.0)]
        )
        result = TuningSession(strategy, executor=AsyncExecutor(2)).run(
            StubEnv(), stub_space(), TuningBudget(max_trials=100), seed=0
        )
        assert 4 <= result.num_trials < 100
        assert result.best_objective >= 4.0
        assert "target" in strategy.stop_reason


class RecordingCallback(SessionCallback):
    def __init__(self):
        self.events = []

    def on_session_start(self, strategy, env, space_, budget):
        self.events.append("session_start")

    def on_trial_start(self, index, config):
        self.events.append(f"trial_start:{index}")

    def on_trial_end(self, trial):
        self.events.append(f"trial_end:{trial.index}")

    def on_round_end(self, round_index, trials, history):
        self.events.append(f"round_end:{round_index}")

    def on_session_end(self, result):
        self.events.append("session_end")


class TestCallbacks:
    def test_serial_callback_ordering(self):
        recorder = RecordingCallback()
        TuningSession(
            CostedStrategy([1.0]), callbacks=[recorder]
        ).run(StubEnv(), stub_space(), TuningBudget(max_trials=2), seed=0)
        assert recorder.events == [
            "session_start",
            "trial_start:0",
            "trial_end:0",
            "round_end:0",
            "trial_start:1",
            "trial_end:1",
            "round_end:1",
            "session_end",
        ]

    def test_parallel_callback_ordering(self):
        recorder = RecordingCallback()
        TuningSession(
            CostedStrategy([1.0]), executor=ParallelExecutor(2), callbacks=[recorder]
        ).run(StubEnv(), stub_space(), TuningBudget(max_trials=4), seed=0)
        assert recorder.events == [
            "session_start",
            "trial_start:0",
            "trial_start:1",
            "trial_end:0",
            "trial_end:1",
            "round_end:0",
            "trial_start:2",
            "trial_start:3",
            "trial_end:2",
            "trial_end:3",
            "round_end:1",
            "session_end",
        ]

    def test_progress_logger_writes_per_round(self):
        stream = io.StringIO()
        TuningSession(
            CostedStrategy([1.0]), callbacks=[ProgressLogger(stream=stream)]
        ).run(StubEnv(), stub_space(), TuningBudget(max_trials=3), seed=0)
        lines = [line for line in stream.getvalue().splitlines() if line]
        assert len(lines) == 3
        assert "costed-stub" in lines[0]
        assert "wall=" in lines[0]

    def test_progress_logger_validation(self):
        with pytest.raises(ValueError):
            ProgressLogger(every=0)

    def test_jsonl_trial_log(self, tmp_path):
        path = str(tmp_path / "trials.jsonl")
        result = RandomSearch().run(
            make_env(),
            space(),
            TuningBudget(max_trials=4),
            seed=0,
            callbacks=[JsonlTrialLog(path)],
        )
        records = [json.loads(line) for line in open(path)]
        header, end = records[0], records[-1]
        assert header["type"] == "header"
        assert header["version"] == CHECKPOINT_VERSION
        assert header["strategy"] == "random"
        assert header["budget"]["max_trials"] == 4
        assert end["type"] == "end"
        trials = [r["trial"] for r in records if r["type"] == "trial"]
        assert len(trials) == 4 == len(records) - 2
        assert [t["index"] for t in trials] == [0, 1, 2, 3]
        assert trials[-1]["cumulative_cost_s"] == pytest.approx(result.total_cost_s)
        assert end["ledgers"]["total_cost_s"] == result.total_cost_s
        assert trials[0]["config"] == result.history[0].config
        rebuilt = TrialHistory.from_payload(records)
        assert rebuilt.to_payload() == result.history.to_payload()

    def test_jsonl_session_end_without_start_is_noop(self, tmp_path):
        """Regression: session_end before session_start must not crash.

        The sink used to call ``self._handle.close()`` unguarded — an
        ``AttributeError`` on ``None`` when the callback was attached to a
        session that aborted before ``on_session_start`` ever fired.
        """
        import os

        from repro.core import TuningResult

        path = str(tmp_path / "aborted.jsonl")
        log = JsonlTrialLog(path)
        result = TuningResult(
            strategy="aborted", history=TrialHistory(), best_trial=None,
            environment={},
        )
        log.on_session_end(result)  # must not raise
        assert not os.path.exists(path)

    def test_jsonl_double_session_end_is_idempotent(self, tmp_path):
        path = str(tmp_path / "trials.jsonl")
        log = JsonlTrialLog(path)
        RandomSearch().run(
            make_env(), space(), TuningBudget(max_trials=3), seed=0,
            callbacks=[log],
        )
        before = open(path).read()
        # A stray second end event must neither crash nor truncate the log
        # to a lone session_end record (the lazy _write reopens in "w").
        from repro.core import TuningResult

        result_stub = TuningResult(
            strategy="stray", history=TrialHistory(), best_trial=None,
            environment={},
        )
        log.on_session_end(result_stub)
        assert open(path).read() == before


class TestSessionReset:
    def test_reused_tuner_matches_fresh_tuner(self):
        """Stale incumbent/proposer state must not leak across run() calls."""
        budget = TuningBudget(max_trials=12)
        reused = MLConfigTuner(seed=0)
        reused.run(make_env("resnet50-imagenet"), space(), budget, seed=0)
        first_early = reused.probes_terminated_early
        second = reused.run(make_env("lstm-ptb"), space(), budget, seed=0)
        fresh_tuner = MLConfigTuner(seed=0)
        fresh = fresh_tuner.run(make_env("lstm-ptb"), space(), budget, seed=0)
        assert [t.config for t in second.history] == [t.config for t in fresh.history]
        assert [t.objective for t in second.history] == [
            t.objective for t in fresh.history
        ]
        # The counter reflects only the latest session.
        assert reused.probes_terminated_early == fresh_tuner.probes_terminated_early
        assert first_early >= 0

    def test_reused_grid_search_restarts_sweep(self):
        strategy = GridSearch(resolution=1, seed=0)
        first = strategy.run(make_env(), space(), TuningBudget(max_trials=500))
        second = strategy.run(make_env(), space(), TuningBudget(max_trials=500))
        assert second.num_trials == first.num_trials

    def test_reused_ottertune_remaps_per_session(self):
        from repro.baselines import OtterTuneStyle

        strategy = OtterTuneStyle(seed=0)
        strategy.run(make_env(), space(), TuningBudget(max_trials=6), seed=0)
        strategy._landmarks = [{"sentinel": True}]  # would crash if reused
        strategy.mapped_workload = "stale"
        strategy.reset()
        assert strategy._landmarks is None
        assert strategy.mapped_workload is None

    def test_stopped_strategy_clears_stop_reason(self):
        strategy = StoppedStrategy(
            RandomSearch(), [PlateauRule(patience=5, min_relative_gain=0.02)]
        )
        strategy.run(make_env(), space(), TuningBudget(max_trials=60), seed=0)
        assert strategy.stop_reason is not None
        strategy.reset()
        assert strategy.stop_reason is None


class TestParallelSpeedup:
    def test_parallel_4x_reaches_matched_quality_faster(self):
        """Acceptance: 4 workers hit matched quality faster, near serial's best.

        Compared at *matched quality* — the incumbent both runs reached —
        because the two arms need not land the same final optimum: the
        analytic-gradient marginal-likelihood fits sharpened the serial
        surrogate enough that 36 sequential model updates can out-search 9
        constant-liar rounds on final incumbent.  The parallel claims that
        must hold regardless: the session's total wall-clock collapses
        (same trial budget, a fraction of the stopwatch time), matched
        quality is reached measurably sooner, the parallel incumbent stays
        within 10% of serial's, and machine cost is still billed honestly.
        """
        nodes = 16
        budget = TuningBudget(max_trials=36)
        space_ = ml_config_space(nodes)

        def env():
            return TrainingEnvironment(
                get_workload("resnet50-imagenet"), homogeneous(nodes), seed=0
            )

        serial = MLConfigTuner(seed=0).run(env(), space_, budget, seed=0)
        parallel = MLConfigTuner(seed=0).run(
            env(), space_, budget, seed=0, executor=ParallelExecutor(4)
        )
        assert parallel.best_objective >= 0.9 * serial.best_objective
        assert parallel.total_wall_clock_s * 2.0 <= serial.total_wall_clock_s
        matched = min(serial.best_objective, parallel.best_objective)
        serial_reach = serial.history.wall_clock_to_reach(matched)
        parallel_reach = parallel.history.wall_clock_to_reach(matched)
        assert serial_reach is not None and parallel_reach is not None
        assert parallel_reach * 1.2 <= serial_reach
        # Machine cost is still honestly accounted: more than wall-clock.
        assert parallel.total_cost_s > parallel.total_wall_clock_s


class NanCostAtProbe(TrainingEnvironment):
    """Reports probe ``bad_index`` with a NaN probe cost."""

    bad_index = 2

    def measure(self, config, probe_iterations=None, charge_startup=True):
        index = self.trials_run
        measurement = super().measure(config, probe_iterations, charge_startup)
        if index == self.bad_index:
            measurement = dataclasses.replace(measurement, probe_cost_s=float("nan"))
        return measurement


class TestProbeCostBoundary:
    """A NaN, infinite or negative probe cost is a failed, unbilled trial."""

    def _run(self, env_cls, tmp_path):
        env = env_cls(get_workload("resnet50-imagenet"), homogeneous(NODES), seed=0)
        log = tmp_path / "trials.jsonl"
        session = TuningSession(RandomSearch(), callbacks=[JsonlTrialLog(str(log))])
        budget = TuningBudget(max_trials=40, max_cost_s=600.0)
        return session.run(env, space(), budget, seed=0), log

    def test_nan_cost_probe_fails_and_cost_cap_still_fires(self, tmp_path):
        clean, _ = self._run(TrainingEnvironment, tmp_path)
        result, log = self._run(NanCostAtProbe, tmp_path)
        bad = result.history[NanCostAtProbe.bad_index]
        assert not bad.ok
        assert bad.objective is None
        assert bad.measurement.probe_cost_s == 0.0
        assert bad.measurement.error == "invalid probe cost nan"
        # The cap fires (not all 40 trials run) on a finite ledger.
        assert math.isfinite(result.total_cost_s)
        assert result.total_cost_s >= 600.0
        assert result.num_trials < 40
        assert clean.num_trials <= result.num_trials <= clean.num_trials + 1
        # Every trial-log line is strict JSON (no bare NaN).
        for line in log.read_text().splitlines():
            json.loads(line, parse_constant=pytest.fail)

    @pytest.mark.parametrize("cost", [float("inf"), -5.0])
    def test_infinite_or_negative_cost_is_failed_and_unbilled(self, cost):
        history = TrialHistory()
        trial = history.record(
            {"x": 0.5},
            Measurement(
                config=TrainingConfig(),
                ok=False,
                fidelity="stub",
                error="crashed",
                probe_cost_s=cost,
            ),
        )
        assert history.total_cost_s == 0.0
        assert history.total_wall_clock_s == 0.0
        assert trial.measurement.probe_cost_s == 0.0
        assert trial.measurement.error == f"crashed; invalid probe cost {cost}"

    def test_in_flight_nan_cost_is_not_committed(self):
        # Costs cycle NaN, 40 on three workers under a 35 s cap.  The NaN
        # probe is in flight when the third slot asks to launch: committed
        # cost is 0 + 40, so the cap holds the slot.  Summed as NaN, the
        # committed cost would never reach the cap and NaN/40 probes would
        # keep launching into the overshoot.
        strategy = CostedStrategy([float("nan"), 40.0])
        result = TuningSession(strategy, executor=AsyncExecutor(3)).run(
            StubEnv(),
            stub_space(),
            TuningBudget(max_trials=40, max_cost_s=35.0),
            seed=0,
        )
        assert result.num_trials == 2
        assert result.total_cost_s == 40.0


class TestBudgetCaps:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("cap", ["max_trials", "max_cost_s", "max_wall_clock_s"])
    def test_non_finite_cap_rejected(self, cap, bad):
        caps = {"max_trials": None, cap: bad}
        with pytest.raises(ValueError, match=f"{cap} must be finite"):
            TuningBudget(**caps)


def one_slot_outage_pool(seed=0):
    """One shard that goes down twice, so probes get preempted."""
    return EnvironmentPool(
        [EnvironmentShard("solo", make_env(seed=seed))],
        injector=FailureInjector(
            outages=[
                OutageWindow("solo", 40.0, 160.0),
                OutageWindow("solo", 300.0, 500.0),
                OutageWindow("solo", 900.0, 1000.0),
            ]
        ),
    )


def three_shard_pool(seed=0):
    return EnvironmentPool(
        [
            EnvironmentShard(f"s{i}", make_env(seed=seed + i), cost_multiplier=m)
            for i, m in enumerate((1.0, 1.25, 0.8))
        ]
    )


EQUIVALENT_STRATEGIES = {
    "random": lambda: RandomSearch(),
    "grid": lambda: GridSearch(),
    "bo": lambda: MLConfigTuner(n_initial=4),
    "cherrypick": lambda: CherryPick(n_initial=4),
    "halving": lambda: SuccessiveHalving(),
}

EQUIVALENT_BUDGETS = {
    "trials": TuningBudget(max_trials=10),
    "cost": TuningBudget(max_trials=None, max_cost_s=1500.0),
    "wall": TuningBudget(max_trials=None, max_wall_clock_s=1500.0),
}


class TestOneWorkerEquivalence:
    """The executors are one engine: at one slot they must agree bit-for-bit."""

    @staticmethod
    def fingerprint(strategy, executor, env, budget, seed=1):
        result = TuningSession(strategy, executor=executor).run(
            env, space(), budget, seed=seed
        )
        return result_fingerprint(result)

    @pytest.mark.parametrize("budget", sorted(EQUIVALENT_BUDGETS))
    @pytest.mark.parametrize("strategy", sorted(EQUIVALENT_STRATEGIES))
    def test_serial_async_parallel_agree_at_one_worker(self, strategy, budget):
        factory = EQUIVALENT_STRATEGIES[strategy]
        cap = EQUIVALENT_BUDGETS[budget]
        serial = self.fingerprint(factory(), SerialExecutor(), make_env(), cap)
        assert self.fingerprint(factory(), AsyncExecutor(1), make_env(), cap) == serial
        assert (
            self.fingerprint(factory(), ParallelExecutor(1), make_env(), cap) == serial
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("strategy", ["random", "bo"])
    def test_serial_matches_async_on_one_slot_pool_with_outages(self, strategy, seed):
        factory = EQUIVALENT_STRATEGIES[strategy]
        cap = TuningBudget(max_trials=12)
        serial_result = TuningSession(
            factory(), executor=SerialExecutor(pool=one_slot_outage_pool(seed))
        ).run(None, space(), cap, seed=seed)
        async_result = TuningSession(
            factory(), executor=AsyncExecutor(pool=one_slot_outage_pool(seed))
        ).run(None, space(), cap, seed=seed)
        assert serial_result.history.cancelled_cost_s > 0  # preemptions happened
        assert result_fingerprint(async_result) == result_fingerprint(serial_result)

    @pytest.mark.parametrize("strategy", ["random", "bo"])
    def test_serial_matches_one_worker_parallel_on_a_fleet(self, strategy):
        factory = EQUIVALENT_STRATEGIES[strategy]
        cap = TuningBudget(max_trials=10)
        serial = self.fingerprint(
            factory(), SerialExecutor(pool=three_shard_pool()), None, cap
        )
        parallel = self.fingerprint(
            factory(), ParallelExecutor(1, pool=three_shard_pool()), None, cap
        )
        assert parallel == serial
