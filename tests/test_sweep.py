"""Tests for the N-seed statistical sweep harness."""

import dataclasses
import json

import numpy as np
import pytest

from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import TuningBudget
from repro.core.session import executor_for
from repro.harness import (
    SweepCell,
    clear_optimum_cache,
    estimate_optimum,
    run_sweep,
    seed_spread_stats,
    strategy_registry,
    sweep,
)
from repro.harness.cache import clear_experiment_cache
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def isolated_caches(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_experiment_cache()
    clear_optimum_cache()
    yield
    clear_experiment_cache()
    clear_optimum_cache()


def small_cells():
    return [
        SweepCell(
            name="resnet-random",
            workload="resnet50-imagenet",
            nodes=8,
            strategy="random",
            max_trials=6,
        ),
        SweepCell(
            name="resnet-coordinate",
            workload="resnet50-imagenet",
            nodes=8,
            strategy="coordinate",
            max_trials=6,
        ),
    ]


def execution_cells():
    """A serial, an async (3 workers) and a 4-shard async fleet cell."""
    common = dict(workload="resnet50-imagenet", nodes=8, max_trials=10)
    return [
        SweepCell(name="serial", strategy="random", **common),
        SweepCell(
            name="async3", strategy="mlconfig-bo", workers=3, executor_mode="async",
            **common,
        ),
        SweepCell(
            name="fleet4", strategy="random", workers=4, executor_mode="async",
            shard_multipliers=(1.0, 1.25, 0.8, 1.5), **common,
        ),
    ]


def comparable(report):
    """The report with each session result replaced by its history payload
    (results carry live histories, which compare by identity)."""
    return {
        **report,
        "cells": {
            name: {**cell, "results": [r.history.to_payload() for r in cell["results"]]}
            for name, cell in report["cells"].items()
        },
    }


def session_files(cache_dir):
    """The disk-tier files that hold sweep sessions (not optima)."""
    return [
        path
        for path in cache_dir.glob("cell-*.json")
        if json.loads(path.read_text())["key"][0] == "sweep-session"
    ]


class TestSeedSpreadStats:
    def test_boxplot_ordering(self):
        stats = seed_spread_stats([0.9, 0.2, 0.5, 0.7, 0.4])
        assert (
            stats["min"]
            <= stats["q1"]
            <= stats["median"]
            <= stats["q3"]
            <= stats["max"]
        )
        assert stats["iqr"] == pytest.approx(stats["q3"] - stats["q1"])
        assert stats["mean"] == pytest.approx(0.54)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            seed_spread_stats([])


class TestSweepCell:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            SweepCell(name="x", workload="resnet50-imagenet", nodes=8, strategy="gibberish")

    def test_expert_reads_the_cell(self):
        from repro.baselines import expert_strategy

        for workload in ("resnet50-imagenet", "word2vec-wiki"):
            cell = SweepCell(
                name="x", workload=workload, nodes=12, strategy="expert", max_trials=1
            )
            expected = expert_strategy(12, get_workload(workload).compute_comm_ratio)
            assert strategy_registry()["expert"](0, cell).config == expected.config

    def test_cells_are_hashable_and_frozen(self):
        cell = small_cells()[0]
        assert hash(cell)
        with pytest.raises(AttributeError):
            cell.max_trials = 3


class TestRunSweep:
    def test_report_structure_and_stats(self):
        seeds = [0, 1, 2]
        report = run_sweep(small_cells(), seeds=seeds, n_jobs=1)
        assert report["seeds"] == seeds
        assert report["n_cells"] == 2
        assert report["n_sessions"] == 6
        for name in ("resnet-random", "resnet-coordinate"):
            cell = report["cells"][name]
            assert len(cell["values"]) == len(seeds)
            # Normalised against the noise-free optimum: nothing above ~1
            # beyond measurement noise.
            assert all(0.0 <= v <= 1.1 for v in cell["values"])
            stats = cell["stats"]
            assert stats["min"] <= stats["median"] <= stats["max"]
            assert cell["mean_trials"] <= 6.0
            assert cell["optimum_value"] > 0
            # One result per seed, the source of its ``values`` entry.
            assert len(cell["results"]) == len(seeds)
            assert [r.num_trials for r in cell["results"]] == [6] * len(seeds)

    def test_parallel_matches_serial(self):
        cells = small_cells() + execution_cells()
        serial = run_sweep(cells, seeds=[0, 1], n_jobs=1)
        clear_experiment_cache()
        clear_optimum_cache()
        parallel = run_sweep(cells, seeds=[0, 1], n_jobs=2)
        assert comparable(serial) == comparable(parallel)

    def test_sessions_are_memoised_across_calls(self):
        from repro.harness import cache

        cells = small_cells()[:1]
        first = run_sweep(cells, seeds=[0, 1], n_jobs=1)
        # Drop only the in-memory tier: the persistent disk tier must
        # serve the rerun with identical session summaries.
        cache._memo.clear()
        clear_optimum_cache()
        second = run_sweep(cells, seeds=[0, 1], n_jobs=1)
        assert comparable(first) == comparable(second)

    def test_warm_sweep_runs_no_optimum_search(self, monkeypatch):
        from repro.harness import cache

        cells = small_cells() + [
            dataclasses.replace(small_cells()[0], name="env-seed-3", env_seed=3)
        ]
        cold = run_sweep(cells, seeds=[0, 1], n_jobs=1)
        cache._memo.clear()
        clear_optimum_cache()
        searches = []

        def counting(*args, **kwargs):
            searches.append(args)
            return estimate_optimum(*args, **kwargs)

        monkeypatch.setattr(sweep, "estimate_optimum", counting)
        warm = run_sweep(cells, seeds=[0, 1], n_jobs=1)
        assert searches == []
        assert comparable(warm) == comparable(cold)

    @pytest.mark.parametrize("cell", execution_cells(), ids=lambda cell: cell.name)
    def test_memoised_session_comes_back_exact(self, cell, tmp_path, monkeypatch):
        from repro.harness import cache

        seed = 2
        run_sweep([cell], seeds=[seed])
        # The session must have reached the disk tier: a payload JSON does
        # not reproduce would silently stay memory-only.
        assert len(session_files(tmp_path / "cache")) == 1
        cache._memo.clear()

        def recompute(*_):
            raise AssertionError("the disk tier should have served the session")

        monkeypatch.setattr(sweep, "_session", recompute)
        rebuilt = run_sweep([cell], seeds=[seed])["cells"][cell.name]["results"][0]

        workload = get_workload(cell.workload)
        env = pool = None
        if cell.shard_multipliers:
            pool = sweep.build_fleet_pool(
                workload, cell.nodes, cell.env_seed, cell.shard_multipliers
            )
        else:
            env = TrainingEnvironment(
                workload, homogeneous(cell.nodes), seed=cell.env_seed
            )
        live = strategy_registry()[cell.strategy](seed, cell).run(
            env,
            ml_config_space(cell.nodes),
            TuningBudget(max_trials=cell.max_trials),
            seed=seed,
            executor=executor_for(cell.workers, cell.executor_mode, pool=pool),
        )
        assert rebuilt.history.to_payload() == live.history.to_payload()
        assert rebuilt.best_config == live.best_config
        assert rebuilt.best_objective == live.best_objective

    def test_rejects_duplicate_names_and_empty_inputs(self):
        cells = small_cells()
        with pytest.raises(ValueError, match="unique"):
            run_sweep([cells[0], cells[0]], seeds=[0])
        with pytest.raises(ValueError, match="cell"):
            run_sweep([], seeds=[0])
        with pytest.raises(ValueError, match="seed"):
            run_sweep(cells, seeds=[])


#: A test-sized P8 scenario: straggler onset plus an intensity step at
#: 900 s, on 8 nodes, to a 2,700 s horizon.  At session seed 0 the
#: adaptive arm's detector alarms once after the drift.
DRIFT_AT_S = 900.0
HORIZON_S = 2700.0
DRIFT = "stragglers:at=900,fraction=0.4,slowdown=5;step:at=900,intensity=2"


def drift_cells():
    """The oblivious and the ``discount`` re-tuning arm of one scenario."""
    common = dict(
        workload="resnet50-imagenet",
        nodes=8,
        strategy="mlconfig-bo",
        objective="tta",
        max_trials=None,
        max_wall_clock_s=HORIZON_S,
        drift=DRIFT,
    )
    return [
        SweepCell(name="oblivious", **common),
        SweepCell(name="adaptive", retune="discount", **common),
    ]


class TestDriftCells:
    def run_arms(self):
        report = run_sweep(drift_cells(), seeds=[0])["cells"]
        return [report[name]["results"][0].history for name in ("oblivious", "adaptive")]

    def run_adaptive_live(self):
        """The adaptive arm at seed 0 as a live session: (detector, result)."""
        cell = drift_cells()[1]
        detector = cell.detector()
        result = strategy_registry()[cell.strategy](0, cell).run(
            TrainingEnvironment(
                get_workload(cell.workload),
                homogeneous(cell.nodes),
                objective_name=cell.objective,
                drift=cell.drift_schedule(),
            ),
            ml_config_space(cell.nodes),
            TuningBudget(max_trials=None, max_wall_clock_s=HORIZON_S),
            seed=0,
            callbacks=[detector],
        )
        return detector, result

    def recovery(self, history):
        from repro.harness import estimate_optimum, metrics
        from repro.mlsim import parse_drift_spec

        env = TrainingEnvironment(
            get_workload("resnet50-imagenet"),
            homogeneous(8),
            objective_name="tta",
            drift=parse_drift_spec(DRIFT),
        )
        env.set_clock(DRIFT_AT_S + 1.0)
        _, optimum = estimate_optimum(env, ml_config_space(8), samples=200)
        return metrics.recovery_time_s(
            history, env, optimum / 0.625, DRIFT_AT_S, HORIZON_S
        )

    def test_cold_and_warm_agree_with_the_live_detector(self, tmp_path):
        from repro.harness import cache

        cold = self.run_arms()
        assert len(session_files(tmp_path / "cache")) == 2
        cache._memo.clear()
        clear_optimum_cache()
        warm = self.run_arms()

        # The same session run live: its detector's events are the record.
        detector, live = self.run_adaptive_live()
        assert detector.events, "the scenario must alarm at least once"
        expected = [dataclasses.asdict(event) for event in detector.events]
        for history in (cold[1], warm[1]):
            assert [event.kind for event in history.events] == ["DriftEvent"] * len(
                expected
            )
            assert [event.fields for event in history.events] == expected
        assert cold[1].to_payload() == live.history.to_payload()
        assert not cold[0].events and not warm[0].events
        for cold_history, warm_history in zip(cold, warm):
            assert cold_history.to_payload() == warm_history.to_payload()
            assert self.recovery(cold_history) == self.recovery(warm_history)

    def test_result_recommends_a_post_event_trial(self):
        # The adaptive arm's best measurement comes before its alarm, on
        # the surface the drift replaced; the session's result and the
        # sweep's rebuilt result both carry the best trial after the alarm.
        swept = run_sweep(drift_cells(), seeds=[0])["cells"]["adaptive"]["results"][0]
        _, live = self.run_adaptive_live()
        for result in (live, swept):
            history = result.history
            cutoff = history.events[-1].trial_index
            recommended = history.recommendation()
            assert history.best().index <= cutoff < recommended.index
            assert result.best_trial.index == recommended.index
            assert result.best_config == recommended.config
            assert result.best_objective == recommended.objective

    def test_arms_are_identical_until_the_first_alarm(self):
        oblivious, adaptive = self.run_arms()
        first = adaptive.events[0].trial_index
        assert first < len(oblivious) - 1
        prefix = slice(0, first + 1)
        assert [t.to_payload() for t in list(oblivious)[prefix]] == [
            t.to_payload() for t in list(adaptive)[prefix]
        ]
        # ...and the re-tune changes what follows.
        assert [t.to_payload() for t in oblivious] != [
            t.to_payload() for t in adaptive
        ]

    @pytest.mark.parametrize(
        "fields, message",
        [
            (dict(drift="quake:at=5"), "drift spec"),
            (dict(drift="step:at=soon"), "drift spec"),
            (dict(drift="step:when=5"), "drift spec"),
            (dict(retune="forget"), "mode"),
            (dict(max_wall_clock_s=0.0), "positive"),
            (dict(max_wall_clock_s=-60.0), "positive"),
            (dict(max_wall_clock_s=float("inf")), "finite"),
            (dict(max_wall_clock_s=float("nan")), "finite"),
            (dict(max_trials=None), "budget"),
        ],
    )
    def test_invalid_scenarios_raise_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            SweepCell(
                name="x", workload="resnet50-imagenet", nodes=8, strategy="random",
                **fields,
            )
