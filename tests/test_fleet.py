"""Tests for the EnvironmentPool fleet layer (shards, schedulers, executors)."""

import json

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.cluster import homogeneous
from repro.configspace import ConfigSpace, FloatParameter, ml_config_space
from repro.core import (
    AsyncExecutor,
    CheapestEligibleScheduler,
    EnvironmentPool,
    EnvironmentShard,
    LeastLoadedScheduler,
    MLConfigTuner,
    ParallelExecutor,
    RoundRobinScheduler,
    SerialExecutor,
    TrialHistory,
    TuningBudget,
    TuningSession,
    make_scheduler,
    parse_shard_spec,
)
from repro.core import bo
from repro.core.bo import BayesianProposer, _fantasy_history
from repro.core.fleet import ShardDescriptor
from repro.core.session import JsonlTrialLog, executor_for
from repro.mlsim import Measurement, TrainingConfig, TrainingEnvironment
from repro.workloads import get_workload

NODES = 8


def make_env(seed=0, nodes=NODES, workload="resnet50-imagenet"):
    return TrainingEnvironment(get_workload(workload), homogeneous(nodes), seed=seed)


def space(nodes=NODES):
    return ml_config_space(nodes)


def stub_space():
    return ConfigSpace([FloatParameter("x", 0.0, 1.0)])


class StubEnv:
    def describe(self):
        return {"workload": "stub"}


from repro.core.strategy import SearchStrategy  # noqa: E402


class CostedStrategy(SearchStrategy):
    """Deterministic stub with scripted probe costs (mirrors test_session)."""

    name = "costed-stub"

    def __init__(self, costs):
        self.costs = list(costs)
        self.cursor = 0

    def propose(self, history, space_, rng, pending=(), shard=None):
        return {"x": 0.5}

    def measure(self, env, config):
        cost = float(self.costs[self.cursor % len(self.costs)])
        self.cursor += 1
        return Measurement(
            config=TrainingConfig(),
            ok=True,
            fidelity="stub",
            objective=cost,
            probe_cost_s=cost,
        )


def two_speed_pool(multipliers=(1.0, 2.0), capacities=None, scheduler=None):
    capacities = capacities or [1] * len(multipliers)
    shards = [
        EnvironmentShard(
            f"s{i}", StubEnv(), capacity=c, cost_multiplier=m
        )
        for i, (m, c) in enumerate(zip(multipliers, capacities))
    ]
    return EnvironmentPool(shards, scheduler=scheduler or RoundRobinScheduler())


class TestPoolConstruction:
    def test_validation(self):
        env = StubEnv()
        with pytest.raises(ValueError):
            EnvironmentPool([])
        with pytest.raises(ValueError):
            EnvironmentPool(
                [EnvironmentShard("a", env), EnvironmentShard("a", env)]
            )
        with pytest.raises(ValueError):
            EnvironmentShard("", env)
        with pytest.raises(ValueError):
            EnvironmentShard("a", env, capacity=0)
        with pytest.raises(ValueError):
            EnvironmentShard("a", env, cost_multiplier=0.0)

    def test_capacity_and_descriptors(self):
        pool = two_speed_pool(capacities=[2, 1])
        assert pool.total_capacity == 3
        descriptors = pool.descriptors()
        assert [d.name for d in descriptors] == ["s0", "s1"]
        assert [d.capacity for d in descriptors] == [2, 1]
        assert descriptors[1].cost_multiplier == 2.0

    def test_occupancy_bookkeeping(self):
        pool = two_speed_pool(capacities=[1, 1])
        pool.acquire("s0")
        assert pool.free_slots("s0") == 0 and pool.busy("s0") == 1
        with pytest.raises(RuntimeError):
            pool.acquire("s0")
        pool.release("s0")
        with pytest.raises(RuntimeError):
            pool.release("s0")

    def test_reset_restores_occupancy_and_rng_streams(self):
        pool = two_speed_pool()
        pool.acquire("s0")
        pool.reset(seed=7)
        assert pool.busy("s0") == 0
        first = pool.rng_for("s0").random(3)
        pool.reset(seed=7)
        assert np.allclose(pool.rng_for("s0").random(3), first)
        pool.reset(seed=8)
        assert not np.allclose(pool.rng_for("s0").random(3), first)
        # Distinct shards get distinct streams at the same session seed.
        pool.reset(seed=7)
        assert not np.allclose(
            pool.rng_for("s0").random(3), pool.rng_for("s1").random(3)
        )

    def test_shard_measure_scales_probe_cost_only(self):
        shard = EnvironmentShard("slow", StubEnv(), cost_multiplier=2.5)
        measurement = shard.measure(CostedStrategy([4.0]), {"x": 0.5})
        assert measurement.probe_cost_s == pytest.approx(10.0)
        assert measurement.objective == pytest.approx(4.0)

    def test_describe_summarises_fleet(self):
        description = two_speed_pool().describe()
        assert description["pool"] is True
        assert description["num_shards"] == 2
        assert description["total_capacity"] == 2
        assert [s["name"] for s in description["shards"]] == ["s0", "s1"]


class TestSchedulers:
    def test_round_robin_cycles_and_skips_saturated(self):
        pool = two_speed_pool(multipliers=(1.0, 1.0, 1.0))
        picks = []
        for _ in range(3):
            shard = pool.scheduler.select(pool)
            pool.acquire(shard.name)
            picks.append(shard.name)
        assert picks == ["s0", "s1", "s2"]
        assert pool.scheduler.select(pool) is None
        pool.release("s1")
        assert pool.scheduler.select(pool).name == "s1"

    def test_round_robin_cursor_only_advances_on_launch(self):
        # select() is pure: an executor may select and then decline (budget
        # gate, strategy waiting at a rung boundary) — repeated selections
        # without a launch must not drift the rotation.
        pool = two_speed_pool(multipliers=(1.0, 1.0, 1.0))
        assert pool.scheduler.select(pool).name == "s0"
        assert pool.scheduler.select(pool).name == "s0"
        pool.acquire("s0")  # the commit point advances the cursor
        assert pool.scheduler.select(pool).name == "s1"
        assert pool.scheduler.select(pool).name == "s1"

    def test_least_loaded_picks_emptiest_fraction(self):
        pool = two_speed_pool(
            multipliers=(1.0, 1.0), capacities=[4, 1],
            scheduler=LeastLoadedScheduler(),
        )
        pool.acquire("s0")
        # s0 is 1/4 loaded, s1 empty: the empty 1-slot shard wins.
        assert pool.scheduler.select(pool).name == "s1"
        pool.acquire("s1")
        assert pool.scheduler.select(pool).name == "s0"

    def test_cheapest_eligible_prefers_fast_shards(self):
        pool = two_speed_pool(
            multipliers=(1.5, 0.5, 1.0), scheduler=CheapestEligibleScheduler()
        )
        assert pool.scheduler.select(pool).name == "s1"
        pool.acquire("s1")
        assert pool.scheduler.select(pool).name == "s2"
        pool.acquire("s2")
        assert pool.scheduler.select(pool).name == "s0"
        pool.acquire("s0")
        assert pool.scheduler.select(pool) is None

    def test_make_scheduler_names(self):
        assert isinstance(make_scheduler("roundrobin"), RoundRobinScheduler)
        assert isinstance(make_scheduler("least-loaded"), LeastLoadedScheduler)
        assert isinstance(make_scheduler("cheapest"), CheapestEligibleScheduler)
        with pytest.raises(ValueError, match="least-loaded"):
            make_scheduler("fifo")


class TestShardSpecParsing:
    def test_full_grammar(self):
        recipes = parse_shard_spec("std-cpu:16,std-cpu:16x2@1.5,gpu-v100:8@0.5")
        assert [r["node_type"] for r in recipes] == ["std-cpu", "std-cpu", "gpu-v100"]
        assert [r["nodes"] for r in recipes] == [16, 16, 8]
        assert [r["capacity"] for r in recipes] == [1, 2, 1]
        assert [r["cost_multiplier"] for r in recipes] == [1.0, 1.5, 0.5]

    @pytest.mark.parametrize(
        "bad", ["", "std-cpu", "std-cpu:", "std-cpu:x2", ":16", "std-cpu:0"]
    )
    def test_bad_entries_raise(self, bad):
        with pytest.raises(ValueError):
            parse_shard_spec(bad)


class TestSeedDeterminism:
    """A homogeneous pool over one shared environment is seed-identical."""

    @pytest.mark.parametrize(
        "factory,trials",
        [(lambda: RandomSearch(), 10), (lambda: MLConfigTuner(seed=0), 14)],
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_two_shard_round_robin_serial_matches_single_env(
        self, factory, trials, seed
    ):
        budget = TuningBudget(max_trials=trials)
        single = factory().run(make_env(seed=seed), space(), budget, seed=seed)
        # Two shards wrapping one environment instance at multiplier 1.0.
        shared = make_env(seed=seed)
        pool = EnvironmentPool(
            [EnvironmentShard(f"shard{i}", shared) for i in range(2)],
            scheduler=RoundRobinScheduler(),
        )
        fleet = factory().run(
            None, space(), budget, seed=seed, executor=executor_for(1, pool=pool)
        )
        assert [t.config for t in fleet.history] == [
            t.config for t in single.history
        ]
        assert [t.objective for t in fleet.history] == [
            t.objective for t in single.history
        ]
        assert fleet.history.cost_series() == single.history.cost_series()
        assert fleet.history.wall_clock_series() == single.history.wall_clock_series()
        # Round-robin over two shards alternates deterministically.
        assert [t.shard for t in fleet.history] == ["shard0", "shard1"] * (
            trials // 2
        )

    def test_pool_reuse_across_runs_is_deterministic(self):
        shared = make_env()
        pool = EnvironmentPool(
            [EnvironmentShard(f"shard{i}", shared) for i in range(2)]
        )
        executor = executor_for(1, pool=pool)
        budget = TuningBudget(max_trials=8)
        first = RandomSearch().run(None, space(), budget, seed=1, executor=executor)
        second = RandomSearch().run(None, space(), budget, seed=1, executor=executor)
        assert [t.objective for t in first.history] == [
            t.objective for t in second.history
        ]


class TestExecutorDispatch:
    def test_executor_for_pool_routing(self):
        pool = two_speed_pool()
        serial = executor_for(1, pool=pool)
        assert isinstance(serial, SerialExecutor) and serial.pool is pool
        sync = executor_for(4, mode="sync", pool=pool)
        assert isinstance(sync, ParallelExecutor) and sync.workers == 2
        asyn = executor_for(4, mode="async", pool=pool)
        assert isinstance(asyn, AsyncExecutor) and asyn.workers == 2
        one_slot = EnvironmentPool([EnvironmentShard("only", StubEnv())])
        assert isinstance(executor_for(4, mode="async", pool=one_slot), SerialExecutor)

    def test_executor_for_unknown_mode_names_valid_modes(self):
        with pytest.raises(ValueError, match="'sync', 'async'"):
            executor_for(4, mode="bsp")
        with pytest.raises(ValueError, match="'sync', 'async'"):
            executor_for(4, mode="bsp", pool=two_speed_pool())

    def test_async_per_shard_timelines(self):
        # Equal 2s probes; shard s1 runs them at 2x duration.  Slot s0
        # completes at 2,4,6,8 while s1 completes at 4,8: the fast shard
        # absorbs twice the probes in the same makespan.
        pool = two_speed_pool(multipliers=(1.0, 2.0))
        result = TuningSession(
            CostedStrategy([2.0]), executor=AsyncExecutor(pool=pool)
        ).run(None, stub_space(), TuningBudget(max_trials=6), seed=0)
        per_shard = {}
        for trial in result.history:
            per_shard.setdefault(trial.shard, []).append(trial)
        assert len(per_shard["s0"]) == 4 and len(per_shard["s1"]) == 2
        assert [t.cumulative_wall_clock_s for t in per_shard["s0"]] == [2, 4, 6, 8]
        assert [t.cumulative_wall_clock_s for t in per_shard["s1"]] == [4, 8]
        assert result.total_wall_clock_s == pytest.approx(8.0)
        assert result.history.wall_clock_by_shard() == {"s0": 8.0, "s1": 8.0}
        assert result.history.cost_by_shard() == {"s0": 8.0, "s1": 8.0}
        assert sum(result.history.cost_by_shard().values()) == pytest.approx(
            result.total_cost_s
        )

    def test_parallel_round_spans_pool_capacity(self):
        pool = two_speed_pool(multipliers=(1.0, 2.0), capacities=[2, 1])
        result = TuningSession(
            CostedStrategy([3.0]), executor=ParallelExecutor(pool=pool)
        ).run(None, stub_space(), TuningBudget(max_trials=6), seed=0)
        assert result.num_trials == 6
        assert result.history.num_rounds == 2
        # Round-robin interleaves until a shard saturates (s0, s1, then s0
        # again — s1's single slot is taken) and the cursor carries across
        # rounds, so round two starts at s1.
        assert [t.shard for t in result.history] == [
            "s0", "s1", "s0", "s1", "s0", "s0",
        ]
        # Round wall is its slowest member: the 2x shard's 6s probe.
        assert result.total_wall_clock_s == pytest.approx(12.0)
        assert result.history.cost_by_shard() == {"s0": 12.0, "s1": 12.0}

    def test_async_cancellation_bills_under_shard(self):
        # Two slots; the 1s probe on s0 completes and exhausts the wall
        # cap, cancelling s1's 10s in-flight probe after 1 elapsed second.
        pool = two_speed_pool(multipliers=(1.0, 1.0))
        result = TuningSession(
            CostedStrategy([1.0, 10.0]), executor=AsyncExecutor(pool=pool)
        ).run(
            None,
            stub_space(),
            TuningBudget(max_trials=None, max_wall_clock_s=0.5),
            seed=0,
        )
        assert result.num_trials == 1
        assert result.history.cancelled_cost_s == pytest.approx(1.0)
        assert result.history.cost_by_shard() == {"s0": 1.0, "s1": 1.0}
        assert sum(result.history.cost_by_shard().values()) == pytest.approx(
            result.total_cost_s
        )

    def test_sync_mid_round_cancellation_bills_under_shard(self):
        pool = two_speed_pool(multipliers=(1.0, 1.0, 1.0, 1.0))
        result = TuningSession(
            CostedStrategy([10.0]), executor=ParallelExecutor(pool=pool)
        ).run(
            None,
            stub_space(),
            TuningBudget(max_trials=None, max_cost_s=15.0),
            seed=0,
        )
        # Members on s0 and s1 record (20s); s2 and s3 are cancelled and
        # each billed the 10s their slots were occupied.
        assert result.num_trials == 2
        assert result.history.cancelled_cost_s == pytest.approx(20.0)
        assert result.history.cost_by_shard() == {
            "s0": 10.0, "s1": 10.0, "s2": 10.0, "s3": 10.0,
        }
        assert sum(result.history.cost_by_shard().values()) == pytest.approx(
            result.total_cost_s
        )
        # The pool must be fully released despite the mid-round stop.
        assert all(pool.busy(s.name) == 0 for s in pool.shards)

    def test_sync_cancellation_bills_running_round_wall(self):
        # The cap is detected when member 1 (10s) records, but member 0's
        # 30s completion is what pushed the total over it: each cancelled
        # slot was occupied for the round's running wall maximum (30s),
        # not the tripping member's own 10s.
        result = TuningSession(
            CostedStrategy([30.0, 10.0, 10.0, 10.0]),
            executor=ParallelExecutor(4),
        ).run(
            StubEnv(),
            stub_space(),
            TuningBudget(max_trials=None, max_cost_s=35.0),
            seed=0,
        )
        assert result.num_trials == 2
        assert result.history.cancelled_cost_s == pytest.approx(60.0)
        assert result.total_cost_s == pytest.approx(100.0)

    def test_parallel_releases_acquired_slots_when_scheduler_fails(self):
        class FlakyScheduler(RoundRobinScheduler):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def select(self, pool):
                self.calls += 1
                if self.calls >= 2:
                    return None  # violates the free-slot contract mid-round
                return super().select(pool)

        pool = two_speed_pool(
            multipliers=(1.0, 1.0), scheduler=FlakyScheduler()
        )
        with pytest.raises(RuntimeError, match="saturated mid-assignment"):
            TuningSession(
                CostedStrategy([1.0]), executor=ParallelExecutor(pool=pool)
            ).run(None, stub_space(), TuningBudget(max_trials=4), seed=0)
        # The slot acquired before the failure must not leak.
        assert all(pool.busy(s.name) == 0 for s in pool.shards)

    def test_heterogeneous_fleet_run_completes_with_itemisation(self):
        shards = [
            EnvironmentShard(
                f"shard{i}", make_env(seed=i), capacity=1, cost_multiplier=m
            )
            for i, m in enumerate([1.0, 1.5, 0.75, 2.0])
        ]
        pool = EnvironmentPool(shards, scheduler=CheapestEligibleScheduler())
        result = MLConfigTuner(seed=0, shard_cost_feature=True).run(
            None,
            space(),
            TuningBudget(max_trials=16),
            seed=0,
            executor=executor_for(4, mode="async", pool=pool),
        )
        assert result.num_trials == 16
        assert result.best_objective is not None
        cost_by_shard = result.history.cost_by_shard()
        assert all(shard is not None for shard in cost_by_shard)
        assert sum(cost_by_shard.values()) == pytest.approx(result.total_cost_s)
        timelines = result.history.wall_clock_by_shard()
        assert max(timelines.values()) == pytest.approx(result.total_wall_clock_s)
        # The fleet's stopwatch beats its machine bill: probes overlapped.
        assert result.total_wall_clock_s < result.total_cost_s

    def test_env_none_without_pool_raises(self):
        with pytest.raises(ValueError, match="EnvironmentPool"):
            RandomSearch().run(None, space(), TuningBudget(max_trials=2), seed=0)

    def test_async_rejects_explicit_workers_with_pool(self):
        # Async slots are the pool's shard slots: a separate worker count
        # is ambiguous and must not be silently ignored.
        with pytest.raises(ValueError, match="total capacity"):
            AsyncExecutor(workers=2, pool=two_speed_pool())


class TestShardAwareProposals:
    def test_strategy_receives_target_shard_descriptor(self):
        seen = []

        class Recorder(SearchStrategy):
            name = "recorder"

            def propose(self, history, space_, rng, pending=(), shard=None):
                seen.append(shard)
                return {"x": 0.5}

            def measure(self, env, config):
                return Measurement(
                    config=TrainingConfig(), ok=True, fidelity="stub",
                    objective=1.0, probe_cost_s=1.0,
                )

        pool = two_speed_pool(multipliers=(1.0, 2.0))
        TuningSession(Recorder(), executor=AsyncExecutor(pool=pool)).run(
            None, stub_space(), TuningBudget(max_trials=4), seed=0
        )
        assert all(s is not None for s in seen)
        assert {s.name for s in seen} == {"s0", "s1"}
        assert {s.cost_multiplier for s in seen} == {1.0, 2.0}

    def test_parallel_executor_passes_round_shards_to_batch(self):
        seen = []

        class Recorder(SearchStrategy):
            name = "recorder"

            def propose(self, history, space_, rng, pending=(), shard=None):
                config = {"x": 0.25 * (len(pending) + 1)}
                seen.append((len(history), list(pending), shard, config))
                return config

            def measure(self, env, config):
                return Measurement(
                    config=TrainingConfig(), ok=True, fidelity="stub",
                    objective=1.0, probe_cost_s=1.0,
                )

        pool = two_speed_pool(multipliers=(1.0, 2.0))
        TuningSession(Recorder(), executor=ParallelExecutor(pool=pool)).run(
            None, stub_space(), TuningBudget(max_trials=4), seed=0
        )
        # Two rounds of two members.  Each member's call saw its own
        # shard's descriptor (the slots are assigned before the proposals)
        # and the round's earlier members as pending.
        assert [recorded for recorded, *_ in seen] == [0, 0, 2, 2]
        for round_calls in (seen[:2], seen[2:]):
            (_, pending0, shard0, first), (_, pending1, shard1, _) = round_calls
            assert pending0 == [] and pending1 == [first]
            assert {shard0.name, shard1.name} == {"s0", "s1"}
            assert {shard0.cost_multiplier, shard1.cost_multiplier} == {1.0, 2.0}

    def test_constant_liar_scales_cost_lie_to_shard(self, monkeypatch):
        history = TrialHistory()
        for cost in (40.0, 60.0, 80.0):
            history.record(
                {"x": 0.5},
                Measurement(
                    config=TrainingConfig(), ok=True, fidelity="stub",
                    objective=1.0, probe_cost_s=cost,
                ),
            )
        extended = _fantasy_history(history, [{"x": 0.1}], 2.0)
        fantasy = extended[len(extended) - 1]
        # Median real probe cost is 60s; the fantasy lies at 2x for the
        # slow target shard.
        assert fantasy.measurement.fidelity == "fantasy"
        assert fantasy.measurement.probe_cost_s == pytest.approx(120.0)

        # A proposal for the slow shard lies at its multiplier, records the
        # shard's weight, and predicts cost at it.
        built = []

        def spy(*args):
            built.append(_fantasy_history(*args))
            return built[-1]

        monkeypatch.setattr(bo, "_fantasy_history", spy)
        proposer = BayesianProposer(stub_space(), seed=0)
        slow = ShardDescriptor("slow", 1, 1, 2.0)
        proposer.propose(
            history, np.random.default_rng(0), pending=[{"x": 0.1}], shard=slow
        )
        assert built[0][3].measurement.probe_cost_s == pytest.approx(120.0)
        assert proposer.shard_weights == {"slow": 2.0}
        assert proposer._target_shard_weight == 2.0
        with pytest.raises(ValueError, match="cost_multiplier"):
            EnvironmentShard("free", StubEnv(), cost_multiplier=0.0)

    def test_shard_cost_feature_widens_cost_model_input(self):
        sp = space()
        proposer = BayesianProposer(
            sp, acquisition="eipc", n_initial=4, n_candidates=32,
            shard_cost_feature=True, seed=0,
        )
        proposer.shard_weights.update({"fast": 0.5, "slow": 2.0})
        rng = np.random.default_rng(0)
        history = TrialHistory()
        for i in range(8):
            config = sp.sample(rng)
            history.record(
                config,
                Measurement(
                    config=TrainingConfig(), ok=True, fidelity="stub",
                    objective=float(rng.random() * 100),
                    probe_cost_s=float(30 + rng.random() * 60),
                ),
                shard="fast" if i % 2 else "slow",
            )
        config = proposer.propose(
            history, rng, shard=ShardDescriptor("fast", 0, 1, 0.5)
        )
        assert sp.is_valid(config)
        cost_gp = proposer._cost_cache.gp
        assert cost_gp is not None
        # One extra input column: the shard cost multiplier.
        assert cost_gp.kernel.num_params() == make_num_params(sp.dims + 1)

    def test_fantasy_rows_encode_at_target_shard_weight(self):
        # A fantasy's probe-cost lie is scaled to the target shard, so its
        # training row must be encoded at that same weight — weight 1.0
        # would teach the cost GP that baseline probes cost the scaled lie.
        sp = space()
        proposer = BayesianProposer(
            sp, acquisition="eipc", shard_cost_feature=True, seed=0
        )
        proposer._target_shard_weight = 2.0
        history = TrialHistory()
        real = history.record(
            {"x": 0.5},
            Measurement(
                config=TrainingConfig(), ok=True, fidelity="stub",
                objective=1.0, probe_cost_s=60.0,
            ),
            shard="slow",
        )
        fantasy = history.record(
            {"x": 0.5},
            Measurement(
                config=TrainingConfig(), ok=True, fidelity="fantasy",
                objective=1.0, probe_cost_s=120.0,
            ),
        )
        proposer.shard_weights["slow"] = 1.5
        assert proposer._row_weight(real) == pytest.approx(1.5)
        assert proposer._row_weight(fantasy) == pytest.approx(2.0)
        proposer._target_shard_weight = None
        assert proposer._row_weight(fantasy) == pytest.approx(1.0)

    def test_shard_feature_off_keeps_cost_model_width(self):
        sp = space()
        proposer = BayesianProposer(
            sp, acquisition="eipc", n_initial=4, n_candidates=32, seed=0
        )
        rng = np.random.default_rng(0)
        history = TrialHistory()
        for _ in range(8):
            config = sp.sample(rng)
            history.record(
                config,
                Measurement(
                    config=TrainingConfig(), ok=True, fidelity="stub",
                    objective=float(rng.random() * 100),
                    probe_cost_s=float(30 + rng.random() * 60),
                ),
            )
        proposer.propose(history, rng)
        assert proposer._cost_cache.gp.kernel.num_params() == make_num_params(
            sp.dims
        )


def make_num_params(dims):
    """ARD Matérn-5/2 parameter count for an input dimensionality."""
    from repro.core.kernels import make_kernel

    return make_kernel("matern52", dims).num_params()


class TestFleetLogging:
    def test_jsonl_records_shard_and_cost_by_shard(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        pool = two_speed_pool(multipliers=(1.0, 2.0))
        TuningSession(
            CostedStrategy([2.0]),
            executor=AsyncExecutor(pool=pool),
            callbacks=[JsonlTrialLog(path)],
        ).run(None, stub_space(), TuningBudget(max_trials=4), seed=0)
        records = [json.loads(line) for line in open(path)]
        trials = [r["trial"] for r in records if r["type"] == "trial"]
        assert {t["shard"] for t in trials} == {"s0", "s1"}
        end = records[-1]
        assert end["type"] == "end"
        cost_by_shard = dict(map(tuple, end["ledgers"]["cost_by_shard"]))
        assert set(cost_by_shard) == {"s0", "s1"}
        assert sum(cost_by_shard.values()) == pytest.approx(
            end["ledgers"]["total_cost_s"]
        )

    def test_jsonl_records_cancelled_cost(self, tmp_path):
        path = str(tmp_path / "cancelled.jsonl")
        pool = two_speed_pool(multipliers=(1.0, 1.0))
        TuningSession(
            CostedStrategy([1.0, 10.0]),
            executor=AsyncExecutor(pool=pool),
            callbacks=[JsonlTrialLog(path)],
        ).run(
            None,
            stub_space(),
            TuningBudget(max_trials=None, max_wall_clock_s=0.5),
            seed=0,
        )
        end = [json.loads(line) for line in open(path)][-1]
        assert end["type"] == "end"
        assert end["ledgers"]["cancelled_cost_s"] == pytest.approx(1.0)

    def test_jsonl_shard_is_null_outside_pools(self, tmp_path):
        path = str(tmp_path / "single.jsonl")
        TuningSession(
            CostedStrategy([1.0]), callbacks=[JsonlTrialLog(path)]
        ).run(StubEnv(), stub_space(), TuningBudget(max_trials=2), seed=0)
        records = [json.loads(line) for line in open(path)]
        trials = [r["trial"] for r in records if r["type"] == "trial"]
        assert len(trials) == 2
        assert all(t["shard"] is None for t in trials)
        # All machine cost sits under the null shard.
        assert [shard for shard, _ in records[-1]["ledgers"]["cost_by_shard"]] == [
            None
        ]


class TestHarnessIntegration:
    def test_fleet_cell_sweep(self, tmp_path, monkeypatch):
        from repro.harness import SweepCell, run_sweep

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cell = SweepCell(
            name="fleet",
            workload="resnet50-imagenet",
            nodes=NODES,
            strategy="random",
            max_trials=6,
            workers=2,
            executor_mode="async",
            shard_multipliers=(1.0, 1.5),
        )
        results = run_sweep([cell], seeds=[0, 1])["cells"]["fleet"]["results"]
        assert len(results) == 2
        for result in results:
            assert all(t.shard in ("shard0", "shard1") for t in result.history)
            # Both shards probe at once: the stopwatch reads less than the
            # machine bill.
            assert result.total_wall_clock_s < result.total_cost_s
        # Every seed builds its own fleet from the same environment seeds,
        # so the seeds stay comparable.
        assert results[0].num_trials == results[1].num_trials

    def test_exp_p4_fleet_light(self):
        from repro.harness.cache import clear_experiment_cache
        from repro.harness.experiments import exp_p4_fleet

        clear_experiment_cache()
        table = exp_p4_fleet(
            nodes=NODES, budget_trials=10, schedulers=("roundrobin",)
        )
        rendered = table.render()
        assert "P4" in rendered
        assert "single" in rendered and "roundrobin" in rendered
        clear_experiment_cache()
