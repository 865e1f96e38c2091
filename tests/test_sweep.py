"""Tests for the N-seed statistical sweep harness."""

import numpy as np
import pytest

from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import TuningBudget
from repro.core.session import executor_for
from repro.harness import (
    SweepCell,
    clear_optimum_cache,
    run_sweep,
    seed_spread_stats,
    strategy_registry,
    sweep,
)
from repro.harness.experiments import clear_experiment_cache
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
            optimum_samples=150,
        ),
        SweepCell(
            name="resnet-coordinate",
            workload="resnet50-imagenet",
            nodes=8,
            strategy="coordinate",
            max_trials=6,
            optimum_samples=150,
        ),
    ]


def execution_cells():
    """A serial, an async (3 workers) and a 4-shard async fleet cell."""
    common = dict(
        workload="resnet50-imagenet", nodes=8, max_trials=10, optimum_samples=150
    )
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
        from repro.harness import experiments

        cells = small_cells()[:1]
        first = run_sweep(cells, seeds=[0, 1], n_jobs=1)
        # Drop only the in-memory tier: the persistent disk tier must
        # serve the rerun with identical session summaries.
        experiments._memo.clear()
        clear_optimum_cache()
        second = run_sweep(cells, seeds=[0, 1], n_jobs=1)
        assert comparable(first) == comparable(second)

    @pytest.mark.parametrize("cell", execution_cells(), ids=lambda cell: cell.name)
    def test_memoised_session_comes_back_exact(self, cell, tmp_path, monkeypatch):
        from repro.harness import experiments

        seed = 2
        run_sweep([cell], seeds=[seed])
        # The session must have reached the disk tier: a payload JSON does
        # not reproduce would silently stay memory-only.
        assert len(list((tmp_path / "cache").glob("cell-*.json"))) == 1
        experiments._memo.clear()

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
        live = strategy_registry()[cell.strategy](seed).run(
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
