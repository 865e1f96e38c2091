"""Tests for the non-stationarity stack.

Covers the drift-schedule layer (`repro.mlsim.drift`), the fleet failure
injector (`repro.core.fleet`), the Page–Hinkley change-point detector and
re-tuning policies (`repro.core.detect`), the stale-history surrogate
plumbing (`repro.core.gp` / `repro.core.bo` / `repro.core.tuner`), and the
interaction between shard outages and failed probes — a shard outage
redirects probes instead of recording failures a stopping rule would see.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import homogeneous
from repro.configspace import (
    ConfigSpace,
    FloatParameter,
    ml_config_space,
    to_training_config,
)
from repro.core import (
    ChangePointDetector,
    DriftEvent,
    EnvironmentPool,
    EnvironmentShard,
    FailureInjector,
    MLConfigTuner,
    OutageWindow,
    RetuningPolicy,
    RoundRobinScheduler,
    SerialExecutor,
    TrialHistory,
    TuningBudget,
    TuningSession,
    parse_outage_spec,
)
from repro.core.bo import BayesianProposer
from repro.core import detect as detect_module
from repro.core.detect import _PageHinkley
from repro.core.gp import GaussianProcess, GPFitError
from repro.core.strategy import SearchStrategy
from repro.mlsim import (
    CompositeDrift,
    Measurement,
    PeriodicDrift,
    RampDrift,
    StepDrift,
    StragglerOnset,
    TrainingConfig,
    TrainingEnvironment,
    parse_drift_spec,
)
from repro.workloads import get_workload

NODES = 8


def make_env(seed=0, **kwargs):
    return TrainingEnvironment(
        get_workload("resnet50-imagenet"), homogeneous(NODES), seed=seed, **kwargs
    )


def stub_space():
    return ConfigSpace([FloatParameter("x", 0.0, 1.0)])


def stub_measurement(objective, ok=True, cost=1.0):
    return Measurement(
        config=TrainingConfig(),
        ok=ok,
        fidelity="stub",
        objective=objective if ok else None,
        probe_cost_s=cost,
    )


class TestDriftSchedules:
    def test_step_is_identity_before_onset(self):
        drift = StepDrift(at_s=100.0, speed_scale=0.5, intensity=2.0)
        assert drift.state_at(99.9, NODES).is_identity
        state = drift.state_at(100.0, NODES)
        assert state.speed_scale == 0.5
        assert state.intensity == 2.0

    def test_ramp_interpolates_linearly(self):
        drift = RampDrift(start_s=100.0, end_s=200.0, speed_scale=0.5)
        assert drift.state_at(50.0, NODES).is_identity
        assert drift.state_at(150.0, NODES).speed_scale == pytest.approx(0.75)
        assert drift.state_at(1e9, NODES).speed_scale == pytest.approx(0.5)

    def test_periodic_oscillates_within_bounds(self):
        drift = PeriodicDrift(period_s=100.0, amplitude=0.4)
        scales = [drift.state_at(t, NODES).speed_scale for t in range(0, 200, 5)]
        assert min(scales) >= 0.6 - 1e-12
        assert max(scales) <= 1.0 + 1e-12
        assert min(scales) < 0.65 and max(scales) > 0.95

    def test_straggler_set_is_deterministic_and_nonempty(self):
        drift = StragglerOnset(at_s=10.0, fraction=0.25, slowdown=4.0, seed=3)
        nodes = drift.straggler_nodes(NODES)
        assert nodes == drift.straggler_nodes(NODES)
        assert len(nodes) == 2
        state = drift.state_at(10.0, NODES)
        scale = state.speed_scale
        assert isinstance(scale, tuple) and len(scale) == NODES
        for i in range(NODES):
            expected = 0.25 if i in nodes else 1.0
            assert scale[i] == pytest.approx(expected)
        assert drift.state_at(9.9, NODES).is_identity

    def test_composite_multiplies_scales_and_sums_boosts(self):
        drift = CompositeDrift(
            (
                StepDrift(at_s=0.0, speed_scale=0.5, failure_rate_boost=0.3),
                StepDrift(at_s=0.0, intensity=2.0, failure_rate_boost=0.9),
                StragglerOnset(at_s=0.0, fraction=0.25, slowdown=2.0, seed=0),
            )
        )
        state = drift.state_at(1.0, NODES)
        assert isinstance(state.speed_scale, tuple)
        stragglers = StragglerOnset(
            at_s=0.0, fraction=0.25, slowdown=2.0, seed=0
        ).straggler_nodes(NODES)
        for i in range(NODES):
            expected = 0.5 * (0.5 if i in stragglers else 1.0)
            assert state.speed_scale[i] == pytest.approx(expected)
        assert state.intensity == pytest.approx(2.0)
        assert state.failure_rate_boost == pytest.approx(0.999)  # clipped

    def test_parse_spec_single_and_composite(self):
        assert parse_drift_spec("") is None
        single = parse_drift_spec("step:at=100,intensity=1.5")
        assert isinstance(single, StepDrift)
        assert single.at_s == 100.0 and single.intensity == 1.5
        combo = parse_drift_spec(
            "stragglers:at=3600,fraction=0.25,slowdown=2.5;step:at=3600,intensity=1.2"
        )
        assert isinstance(combo, CompositeDrift)
        assert len(combo.schedules) == 2

    def test_parse_spec_rejects_unknown_kind_and_key(self):
        with pytest.raises(ValueError):
            parse_drift_spec("meteor:at=3")
        with pytest.raises(ValueError):
            parse_drift_spec("ramp:start=1,end=2,scale=0.5")  # key is 'speed'

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            StepDrift(at_s=-1.0)
        with pytest.raises(ValueError):
            RampDrift(start_s=10.0, end_s=10.0)
        with pytest.raises(ValueError):
            StragglerOnset(at_s=0.0, slowdown=1.0)
        with pytest.raises(ValueError):
            CompositeDrift(())


class TestEnvironmentDrift:
    def test_drift_none_is_bit_identical(self):
        space = ml_config_space(NODES)
        rng = np.random.default_rng(5)
        configs = [space.sample(rng) for _ in range(6)]
        plain = make_env(seed=7)
        gated = make_env(seed=7, drift=None)
        for config in configs:
            a = plain.measure(to_training_config(config))
            b = gated.measure(to_training_config(config))
            assert a == b

    def test_pre_onset_drift_is_bit_identical(self):
        space = ml_config_space(NODES)
        rng = np.random.default_rng(5)
        configs = [space.sample(rng) for _ in range(4)]
        plain = make_env(seed=7)
        drifting = make_env(seed=7, drift=StepDrift(at_s=1e12, speed_scale=0.1))
        for config in configs:
            assert plain.measure(to_training_config(config)) == drifting.measure(
                to_training_config(config)
            )

    def test_same_seed_drift_replay_is_identical(self):
        drift = CompositeDrift(
            (
                StragglerOnset(at_s=0.0, fraction=0.25, slowdown=3.0),
                StepDrift(at_s=0.0, intensity=1.5),
            )
        )
        space = ml_config_space(NODES)
        rng = np.random.default_rng(11)
        configs = [space.sample(rng) for _ in range(4)]
        first = [
            make_env(seed=3, drift=drift).measure(to_training_config(c))
            for c in configs
        ]
        second = [
            make_env(seed=3, drift=drift).measure(to_training_config(c))
            for c in configs
        ]
        assert first == second

    def test_step_drift_degrades_throughput(self):
        space = ml_config_space(NODES)
        rng = np.random.default_rng(2)
        plain = make_env(seed=1)
        slowed = make_env(seed=1, drift=StepDrift(at_s=0.0, speed_scale=0.5))
        for _ in range(20):
            config = to_training_config(space.sample(rng))
            base = plain.true_objective(config)
            if base is not None:
                break
        assert base is not None
        degraded = slowed.true_objective(config)
        assert degraded is not None
        assert degraded < base


class TestFailureInjector:
    def test_outage_window_queries(self):
        injector = FailureInjector(
            outages=[
                OutageWindow("s0", 100.0, 200.0),
                OutageWindow("s0", 200.0, 250.0),
            ]
        )
        assert not injector.is_down("s0", 99.9)
        assert injector.is_down("s0", 100.0)
        assert injector.is_down("s0", 199.9)
        assert not injector.is_down("s0", 250.0)
        assert not injector.is_down("s1", 150.0)
        # chained windows are walked through
        assert injector.up_after("s0", 150.0) == pytest.approx(250.0)
        assert injector.up_after("s0", 50.0) == pytest.approx(50.0)

    def test_preemption_at(self):
        injector = FailureInjector(outages=[OutageWindow("s0", 100.0, 200.0)])
        # probe running across the window start gets preempted at it
        assert injector.preemption_at("s0", 50.0, 150.0) == pytest.approx(100.0)
        # launch while down preempts immediately
        assert injector.preemption_at("s0", 120.0, 180.0) == pytest.approx(120.0)
        # probe entirely clear of the window runs through
        assert injector.preemption_at("s0", 200.0, 300.0) is None
        assert injector.preemption_at("s1", 50.0, 150.0) is None

    def test_parse_outage_spec(self):
        windows = parse_outage_spec("shard0:100-2000;shard2:1000-1500,9000-9900")
        assert [(w.shard, w.start_s, w.end_s) for w in windows] == [
            ("shard0", 100.0, 2000.0),
            ("shard2", 1000.0, 1500.0),
            ("shard2", 9000.0, 9900.0),
        ]
        with pytest.raises(ValueError):
            parse_outage_spec("shard0")
        with pytest.raises(ValueError):
            parse_outage_spec("shard0:200-100")


class StubEnv:
    def describe(self):
        return {"workload": "stub"}


class ScriptedStrategy(SearchStrategy):
    """Stub with scripted per-probe success and cost."""

    name = "scripted-stub"

    def __init__(self, ok=True, cost=1.0):
        self.ok = ok
        self.cost = cost

    def propose(self, history, space, rng, pending=(), shard=None):
        return {"x": 0.5}

    def measure(self, env, config):
        return stub_measurement(self.cost, ok=self.ok, cost=self.cost)


class TestOutageAndFailureStreak:
    def test_outage_redirects_instead_of_failing(self):
        """A downed shard records no failed probes: probes are redirected
        to healthy shards and the session runs to budget."""
        injector = FailureInjector(outages=[OutageWindow("s0", 0.0, 1e9)])
        pool = EnvironmentPool(
            [
                EnvironmentShard("s0", StubEnv(), capacity=2),
                EnvironmentShard("s1", StubEnv(), capacity=1),
            ],
            scheduler=RoundRobinScheduler(),
            injector=injector,
        )
        result = TuningSession(
            ScriptedStrategy(ok=True), executor=SerialExecutor(pool=pool)
        ).run(None, stub_space(), TuningBudget(max_trials=6), seed=0)
        assert result.num_trials == 6
        assert all(t.ok for t in result.history)
        assert all(t.shard == "s1" for t in result.history)

    def test_preempted_probe_bills_cancelled_wall(self):
        """Preemption mid-probe bills the burned wall-clock and the probe
        completes after the window; per-shard billing stays consistent."""
        injector = FailureInjector(outages=[OutageWindow("s0", 0.5, 2.0)])
        pool = EnvironmentPool(
            [EnvironmentShard("s0", StubEnv(), capacity=1)],
            scheduler=RoundRobinScheduler(),
            injector=injector,
        )
        result = TuningSession(
            ScriptedStrategy(ok=True, cost=1.0), executor=SerialExecutor(pool=pool)
        ).run(None, stub_space(), TuningBudget(max_trials=2), seed=0)
        assert result.num_trials == 2
        assert all(t.ok for t in result.history)
        assert result.history.cancelled_cost_s == pytest.approx(0.5)
        assert sum(result.history.cost_by_shard().values()) == pytest.approx(
            result.total_cost_s
        )


class TestPageHinkley:
    def test_stationary_stream_never_alarms(self):
        """Production knobs stay quiet over a session-length unit-variance
        stream (random-walk excursions must not reach the threshold)."""
        ph = _PageHinkley(delta=0.3, threshold=8.0)
        rng = np.random.default_rng(0)
        for value in rng.normal(size=60):
            assert ph.update(float(value)) is None

    def test_constant_offset_is_absorbed(self):
        """Running-mean centering: a persistently biased stream (BO
        acquisition bias) must not masquerade as drift."""
        ph = _PageHinkley(delta=0.3, threshold=8.0)
        for _ in range(500):
            assert ph.update(-0.8) is None

    def test_mean_shift_alarms_with_direction(self):
        ph = _PageHinkley(delta=0.3, threshold=8.0)
        rng = np.random.default_rng(1)
        for value in rng.normal(size=50):
            assert ph.update(float(value)) is None
        alarm = None
        for value in rng.normal(loc=-3.0, size=50):
            alarm = ph.update(float(value))
            if alarm is not None:
                break
        assert alarm is not None
        direction, statistic = alarm
        assert direction == "decrease"
        assert statistic > 8.0

    def test_upward_shift_alarms_increase(self):
        ph = _PageHinkley(delta=0.3, threshold=8.0)
        rng = np.random.default_rng(2)
        for value in rng.normal(size=50):
            ph.update(float(value))
        alarm = None
        for value in rng.normal(loc=3.0, size=50):
            alarm = ph.update(float(value))
            if alarm is not None:
                break
        assert alarm is not None
        assert alarm[0] == "increase"

    def test_reset_clears_state(self):
        ph = _PageHinkley(delta=0.3, threshold=8.0)
        for _ in range(30):
            ph.update(-2.0)
        ph.reset()
        assert ph._n == 0 and ph._mean == 0.0
        assert ph.update(-2.0) is None


class TestChangePointDetector:
    def _feed(self, detector, history, objective, index):
        trial = history.record(
            {"x": 0.5}, stub_measurement(objective), wall_clock_s=1.0
        )
        detector.on_round_end(index, [trial], history)
        return trial

    def test_detects_drop_records_event_and_retunes(self, monkeypatch):
        monkeypatch.setattr(detect_module, "WARMUP", 8)
        tuner = MLConfigTuner(seed=0)
        detector = ChangePointDetector(policy=RetuningPolicy(mode="evict"))
        detector.on_session_start(tuner, None, stub_space(), None)
        history = TrialHistory()
        index = 0
        for _ in range(12):
            self._feed(detector, history, 100.0 + 0.01 * index, index)
            index += 1
        assert detector.events == []
        for _ in range(8):
            self._feed(detector, history, 10.0, index)
            index += 1
            if detector.events:
                break
        assert len(detector.events) == 1
        event = detector.events[0]
        assert isinstance(event, DriftEvent)
        assert event.direction == "decrease"
        assert history.events == [event]
        # the policy reached the tuner: pending re-tune stashed (no
        # proposer built yet), incumbent re-probe queued, refresh queued
        assert tuner._pending_retune is not None
        assert tuner._pending_retune[1] is None  # evict mode
        assert len(tuner._reprobe_queue) == 1
        assert tuner._refresh_remaining == 2

    def test_off_policy_records_without_touching_strategy(self, monkeypatch):
        monkeypatch.setattr(detect_module, "WARMUP", 8)
        tuner = MLConfigTuner(seed=0)
        detector = ChangePointDetector(policy=RetuningPolicy(mode="off"))
        detector.on_session_start(tuner, None, stub_space(), None)
        history = TrialHistory()
        index = 0
        for _ in range(12):
            self._feed(detector, history, 100.0, index)
            index += 1
        for _ in range(8):
            self._feed(detector, history, 10.0, index)
            index += 1
            if detector.events:
                break
        assert len(detector.events) == 1
        assert tuner._pending_retune is None
        assert tuner._reprobe_queue == []

    def test_stationary_session_is_bit_identical_with_detector(self):
        """Attaching the detector to a drift-free session must not change
        the trajectory: it only observes until an alarm fires."""
        budget = TuningBudget(max_trials=14)
        space = ml_config_space(NODES)
        plain = TuningSession(MLConfigTuner(seed=3)).run(
            make_env(seed=3), space, budget, seed=3
        )
        detector = ChangePointDetector()
        watched = TuningSession(MLConfigTuner(seed=3), detector=detector).run(
            make_env(seed=3), space, budget, seed=3
        )
        assert detector.events == []
        assert [t.objective for t in plain.history] == [
            t.objective for t in watched.history
        ]
        assert [t.config for t in plain.history] == [
            t.config for t in watched.history
        ]

    def test_unpredictable_surrogate_residual_is_counted_and_skipped(self, monkeypatch):
        """A cached GP that cannot predict is a counted skip (the window
        residual stands in); any other error is not swallowed."""
        monkeypatch.setattr(detect_module, "WARMUP", 8)

        class FailingGP:
            def __init__(self, error):
                self.error = error

            def predict(self, x):
                raise self.error

        def strategy(error):
            proposer = SimpleNamespace(
                space=stub_space(),
                _objective_cache=SimpleNamespace(gp=FailingGP(error)),
            )
            return SimpleNamespace(_proposer=proposer)

        history = TrialHistory()
        errors = (GPFitError("singular"), np.linalg.LinAlgError("not PD"), ValueError("dim"))
        for error in errors:
            detector = ChangePointDetector()
            detector.on_session_start(strategy(error), None, stub_space(), None)
            for index in range(5):
                self._feed(detector, history, 100.0 + index, index)
            assert detector.skipped_residuals == 5
            # From the fourth probe on, the window holds three objectives
            # and its z-score stands in for the skipped residual.
            assert len(detector._resid_hist) == 2
            detector.on_session_start(strategy(error), None, stub_space(), None)
            assert detector.skipped_residuals == 0

        detector = ChangePointDetector()
        detector.on_session_start(strategy(KeyError("x")), None, stub_space(), None)
        with pytest.raises(KeyError):
            self._feed(detector, history, 100.0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetuningPolicy(mode="panic")


class TestRecommendation:
    def test_recommendation_rebases_on_drift_event(self):
        history = TrialHistory()
        history.record({"x": 0.1}, stub_measurement(100.0))
        history.record({"x": 0.2}, stub_measurement(90.0))
        assert history.recommendation().config == {"x": 0.1}
        history.record_event(
            DriftEvent(
                trial_index=1,
                wall_clock_s=2.0,
                statistic=9.0,
                threshold=5.0,
                direction="decrease",
            )
        )
        # post-change window still empty: fall back to the global best
        assert history.recommendation().config == {"x": 0.1}
        history.record({"x": 0.3}, stub_measurement(40.0))
        history.record({"x": 0.4}, stub_measurement(55.0))
        # stale 100.0 record no longer outranks fresh measurements
        assert history.recommendation().config == {"x": 0.4}
        assert history.best().config == {"x": 0.1}
        assert history.best(since_index=2).config == {"x": 0.4}


class TestStaleHistorySurrogate:
    def _fitted_gp(self, noise_scale=None):
        rng = np.random.default_rng(0)
        x = np.linspace(0.0, 1.0, 12)[:, None]
        y = np.sin(3.0 * x[:, 0]) + 0.05 * rng.normal(size=12)
        gp = GaussianProcess()
        gp.fit(x, y, optimize_hypers=False, noise_scale=noise_scale)
        return gp, x, y

    def test_none_scale_matches_legacy_fit(self):
        gp_a, x, _ = self._fitted_gp()
        gp_b, _, _ = self._fitted_gp(noise_scale=None)
        grid = np.linspace(0.0, 1.0, 20)[:, None]
        mu_a, var_a = gp_a.predict(grid)
        mu_b, var_b = gp_b.predict(grid)
        assert np.array_equal(mu_a, mu_b)
        assert np.array_equal(var_a, var_b)

    def test_inflated_noise_discounts_observations(self):
        scale = np.ones(12)
        scale[:6] = 100.0
        gp_unit, x, y = self._fitted_gp()
        gp_scaled, _, _ = self._fitted_gp(noise_scale=scale)
        mu_unit, _ = gp_unit.predict(x[:6])
        mu_scaled, _ = gp_scaled.predict(x[:6])
        # discounted points pull the posterior toward them far less
        assert np.mean(np.abs(mu_scaled - y[:6])) > np.mean(
            np.abs(mu_unit - y[:6])
        )

    def test_extend_appends_at_unit_scale(self):
        scale = np.ones(12)
        scale[:4] = 10.0
        gp, x, y = self._fitted_gp(noise_scale=scale)
        gp.extend(np.array([[0.55]]), np.array([0.3]))
        assert gp._noise_scale.shape == (13,)
        assert gp._noise_scale[-1] == 1.0

    def test_scale_validation(self):
        gp = GaussianProcess()
        x = np.linspace(0.0, 1.0, 5)[:, None]
        y = np.zeros(5)
        with pytest.raises(ValueError):
            gp.fit(x, y, noise_scale=np.ones(4))
        with pytest.raises(ValueError):
            gp.fit(x, y, noise_scale=np.array([1.0, 1.0, -1.0, 1.0, 1.0]))


class TestProposerRetuning:
    def _history(self, n=10):
        history = TrialHistory()
        for i in range(n):
            history.record({"x": i / max(n - 1, 1)}, stub_measurement(float(i)))
        return history

    def test_evict_drops_stale_rows(self):
        space = stub_space()
        proposer = BayesianProposer(space, n_initial=2)
        history = self._history(10)
        proposer.apply_retuning(6, discount=None)
        rows, targets, noise_scale = proposer._training_set(history)
        assert rows.shape[0] == 4
        assert targets.shape[0] == 4
        assert noise_scale is None

    def test_discount_inflates_stale_noise(self):
        space = stub_space()
        proposer = BayesianProposer(space, n_initial=2)
        history = self._history(10)
        proposer.apply_retuning(6, discount=0.25)
        rows, targets, noise_scale = proposer._training_set(history)
        assert rows.shape[0] == 10
        assert noise_scale is not None
        assert np.all(noise_scale[:6] == pytest.approx(4.0))
        assert np.all(noise_scale[6:] == 1.0)

    def test_retuning_validation(self):
        proposer = BayesianProposer(stub_space())
        with pytest.raises(ValueError):
            proposer.apply_retuning(-1)
        with pytest.raises(ValueError):
            proposer.apply_retuning(3, discount=0.0)

    def test_tuner_reprobe_and_refresh_queue(self):
        tuner = MLConfigTuner(seed=0)
        space = stub_space()
        rng = np.random.default_rng(0)
        tuner.apply_retuning(0, reprobe={"x": 0.5}, refresh_initial=1)
        history = TrialHistory()
        first = tuner.propose(history, space, rng)
        assert first == {"x": 0.5}
        second = tuner.propose(history, space, rng)
        assert 0.0 <= second["x"] <= 1.0
        assert tuner._refresh_remaining == 0
        assert tuner._incumbent is None
