"""Tests for the process-parallel harness layers.

Covers the fork-based cell runner and its serial fallback,
``run_sweep(n_jobs=)`` serial-equivalence, the disk tier of the
experiment memoiser, and the removal of the GP hyperfit pool
(``fit_workers``).
"""

import ast
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import MLConfigTuner
from repro.harness import (
    SweepCell,
    fork_available,
    resolve_n_jobs,
    run_cells,
    run_sweep,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


class TestRunCells:
    def test_serial_results_in_order(self):
        assert run_cells([lambda i=i: i * 3 for i in range(5)], n_jobs=1) == [
            0, 3, 6, 9, 12,
        ]

    @needs_fork
    def test_parallel_results_in_order(self):
        assert run_cells([lambda i=i: i * 3 for i in range(9)], n_jobs=3) == [
            i * 3 for i in range(9)
        ]

    @needs_fork
    def test_closures_need_no_pickling(self):
        # Lambdas over local state cannot be pickled; the fork runner must
        # still execute them.
        local = {"offset": 10}
        cells = [lambda i=i: local["offset"] + i for i in range(4)]
        assert run_cells(cells, n_jobs=2) == [10, 11, 12, 13]

    @needs_fork
    def test_cell_exception_propagates(self):
        def boom():
            raise RuntimeError("cell failed")

        with pytest.raises(RuntimeError, match="cell failed"):
            run_cells([boom, boom], n_jobs=2)

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(None, cells=2) == min(os.cpu_count() or 1, 2)
        assert resolve_n_jobs(8, cells=3) == 3
        assert resolve_n_jobs(1, cells=10) == 1
        with pytest.raises(ValueError):
            resolve_n_jobs(0, cells=2)

    def test_empty(self):
        assert run_cells([], n_jobs=4) == []

    @needs_fork
    def test_pool_that_cannot_start_runs_serially_and_warns_once(
        self, monkeypatch
    ):
        import multiprocessing

        import repro.harness.runner as runner

        class NoPools:
            def Pool(self, processes):
                raise PermissionError("subprocesses are not allowed here")

        monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: NoPools())
        monkeypatch.setattr(runner, "_POOL_UNAVAILABLE_WARNED", False)
        cells = [lambda i=i: i * 3 for i in range(5)]
        serial = run_cells(cells, n_jobs=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = [run_cells(cells, n_jobs=2), run_cells(cells, n_jobs=2)]
        assert results == [serial, serial]
        assert [type(w.message) for w in caught] == [RuntimeWarning]
        assert "PermissionError: subprocesses are not allowed here" in str(
            caught[0].message
        )


class TestRunSweepNJobs:
    @needs_fork
    def test_parallel_sweep_equals_serial(self, tmp_path, monkeypatch):
        import repro.harness.cache as cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cells = [
            SweepCell(name=name, workload="resnet50-imagenet", nodes=8,
                      strategy=name, max_trials=5, optimum_seed=3)
            for name in ("random", "annealing")
        ]
        cache.clear_experiment_cache()
        serial = run_sweep(cells, seeds=[3, 4], n_jobs=1)["cells"]
        cache.clear_experiment_cache()  # the parallel arm runs its sessions
        parallel = run_sweep(cells, seeds=[3, 4], n_jobs=4)["cells"]
        cache.clear_experiment_cache()
        for cell in cells:
            a, b = serial[cell.name], parallel[cell.name]
            assert a["optimum_value"] == b["optimum_value"]
            assert a["values"] == b["values"]
            assert a["mean_probe_hours"] == b["mean_probe_hours"]
            assert [r.history.to_payload() for r in a["results"]] == [
                r.history.to_payload() for r in b["results"]
            ]


class TestDiskMemoiser:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch):
        import repro.harness.cache as cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache._memo.clear()
        yield
        cache._memo.clear()

    def test_round_trip_without_recompute(self):
        import repro.harness.cache as cache

        value = cache._memoised(
            ("cell", 1, 2.5), lambda: [[1, None, "x", 2.5]]
        )
        cache._memo.clear()  # simulate a fresh process
        calls = []
        reloaded = cache._memoised(
            ("cell", 1, 2.5), lambda: calls.append(1) or [["fresh"]]
        )
        assert calls == []
        assert reloaded == value

    def test_distinct_keys_do_not_collide(self):
        import repro.harness.cache as cache

        cache._memoised(("k", 1), lambda: "one")
        cache._memo.clear()
        assert cache._memoised(("k", 2), lambda: "two") == "two"

    def test_numpy_scalars_serialisable(self):
        import repro.harness.cache as cache

        value = cache._memoised(
            ("np-cell",), lambda: [[np.float64(1.5), np.int64(3)]]
        )
        cache._memo.clear()
        assert cache._memoised(("np-cell",), lambda: None) == [[1.5, 3]]
        assert value[0][0] == 1.5

    def test_unserialisable_values_stay_memory_only(self, tmp_path):
        import repro.harness.cache as cache

        value = cache._memoised(("obj-cell",), lambda: {("tuple", "key"): 1})
        assert value == {("tuple", "key"): 1}
        assert not [f for f in os.listdir(tmp_path) if f.startswith("cell-")]
        # memory tier still serves it
        assert cache._memoised(("obj-cell",), lambda: None) == value

    def test_clear_experiment_cache_wipes_disk(self, tmp_path):
        import repro.harness.cache as cache

        cache._memoised(("wipe-cell",), lambda: [1, 2, 3])
        assert [f for f in os.listdir(tmp_path) if f.startswith("cell-")]
        cache.clear_experiment_cache()
        assert not [f for f in os.listdir(tmp_path) if f.startswith("cell-")]
        calls = []
        cache._memoised(("wipe-cell",), lambda: calls.append(1) or [9])
        assert calls == [1]

    def test_experiment_table_round_trips_through_disk(self):
        import repro.harness.cache as cache
        import repro.harness.experiments as experiments

        kwargs = dict(node_counts=(8,), budget_trials=3, seed=0)
        cold = experiments.exp_f5_scalability(**kwargs)
        cache._memo.clear()
        warm = experiments.exp_f5_scalability(**kwargs)
        assert [list(map(str, r)) for r in warm.rows] == [
            list(map(str, r)) for r in cold.rows
        ]


class TestFitWorkers:
    def test_fit_workers_validated(self, capsys):
        from repro.cli import main as cli_main

        MLConfigTuner(fit_workers=1)  # the old default is still accepted
        with pytest.raises(ValueError, match="fit_workers was removed"):
            MLConfigTuner(fit_workers=2)
        with pytest.raises(SystemExit) as exc:
            cli_main(["tune", "--nodes", "8", "--trials", "2", "--fit-workers", "2"])
        assert exc.value.code == 2
        assert "--fit-workers" in capsys.readouterr().err

    def test_src_has_one_process_pool_site_and_no_exit_hook(self):
        """Only the harness's cell runner starts worker processes, and
        nothing registers an interpreter-exit hook."""
        src = Path(__file__).resolve().parents[1] / "src"
        pool_sites, exit_hooks = set(), []
        for path in sorted(src.rglob("*.py")):
            rel = path.relative_to(src).as_posix()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "attr", getattr(func, "id", None))
                    if name in ("Pool", "ProcessPoolExecutor"):
                        pool_sites.add(rel)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    modules = [alias.name for alias in node.names]
                    if isinstance(node, ast.ImportFrom):
                        modules.append(node.module or "")
                    if any(m.split(".")[0] == "atexit" for m in modules):
                        exit_hooks.append(rel)
                    if any(m.startswith("concurrent") for m in modules):
                        pool_sites.add(rel)
        assert pool_sites == {"repro/harness/runner.py"}
        assert exit_hooks == []


class TestCandidatePipeline:
    def test_proposal_deterministic_and_valid(self):
        from repro.configspace import ml_config_space
        from repro.core.bo import BayesianProposer
        from repro.core.trial import TrialHistory
        from repro.mlsim import Measurement, TrainingConfig

        space = ml_config_space(8)

        def history():
            rng = np.random.default_rng(0)
            h = TrialHistory()
            for _ in range(12):
                c = space.sample(rng)
                h.record(
                    c,
                    Measurement(
                        config=TrainingConfig(),
                        ok=True,
                        fidelity="analytic",
                        objective=float(rng.random() * 10),
                        probe_cost_s=60.0,
                    ),
                )
            return h

        first = BayesianProposer(space, n_initial=4, seed=0).propose(
            history(), np.random.default_rng(9)
        )
        assert space.is_valid(first)
        # same seed: bit-reproducible
        again = BayesianProposer(space, n_initial=4, seed=0).propose(
            history(), np.random.default_rng(9)
        )
        assert first == again
