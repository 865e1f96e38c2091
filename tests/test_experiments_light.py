"""Smoke tests for the cheap experiment functions and table rendering.

The heavy sweeps (T3, F2-F5, A1-A3) run at full size in the benchmark
suite; here the light experiments produce well-formed tables fast, and
the tables built on ``run_sweep`` render at light settings.
"""

import os
import shutil

import pytest

import repro
from repro.harness import cache, clear_optimum_cache
from repro.harness import experiments
from repro.harness.cache import clear_experiment_cache
from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    ExperimentTable,
    exp_t1_config_space,
    exp_t2_workloads,
)

#: Every table that runs its sessions through run_sweep, with the
#: arguments that make it light.  Tables without budget arguments shrink
#: through the module's recipe constants (8 nodes, 8 trials).
SWEPT_TABLES = {
    "T3": {},
    "F2": {},
    "F3": {},
    "F4": {},
    "F5": dict(node_counts=(8,), budget_trials=8),
    "A1": {},
    "A2": {},
    "P1": dict(budget_trials=8),
    "P2": dict(budget_trials=8),
    "P4": {},
}


class TestLightExperiments:
    def test_t1_table_structure(self):
        table = exp_t1_config_space(nodes=8)
        assert table.exp_id == "T1"
        rendered = table.render()
        assert "num_workers" in rendered
        assert "TOTAL" in rendered
        # One row per knob + total.
        assert len(table.rows) == 10

    def test_t1_scales_with_nodes(self):
        small = exp_t1_config_space(nodes=4)
        large = exp_t1_config_space(nodes=32)
        def total(table):
            return table.rows[-1][-1]
        assert total(large) > total(small)

    def test_t2_covers_suite(self):
        from repro.workloads import SUITE

        table = exp_t2_workloads()
        assert len(table.rows) == len(SUITE)
        names = {row[0] for row in table.rows}
        assert names == set(SUITE)

    def test_registry_contains_all_ids(self):
        expected = {
            "T1", "T2", "T3",
            "F1", "F2", "F3", "F4", "F5", "F6",
            "P1", "P2", "P4",
            "A1", "A2", "A3",
            "E1", "E2", "V1",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_render_includes_notes(self):
        table = ExperimentTable(
            exp_id="X0",
            title="demo",
            headers=["a"],
            rows=[[1]],
            notes="remember this",
        )
        assert "remember this" in table.render()
        assert "[X0]" in table.render()

    def test_cache_clears(self):
        clear_experiment_cache()  # must not raise


class TestCodeFingerprint:
    """The memo's code key hashes the source, not file times."""

    @pytest.fixture
    def tree(self, tmp_path):
        source = os.path.dirname(os.path.abspath(repro.__file__))
        return shutil.copytree(
            source, tmp_path / "a", ignore=shutil.ignore_patterns("__pycache__")
        )

    def test_copies_with_different_mtimes_agree(self, tree, tmp_path):
        copy = shutil.copytree(tree, tmp_path / "b", copy_function=shutil.copy)
        os.utime(copy / "cli.py", ns=(1, 1))
        assert cache._source_digest(str(tree)) == cache._source_digest(str(copy))

    def test_touching_a_file_keeps_it(self, tree):
        before = cache._source_digest(str(tree))
        os.utime(tree / "core" / "gp.py", ns=(10**18, 10**18))
        assert cache._source_digest(str(tree)) == before

    def test_a_one_byte_edit_changes_it(self, tree):
        before = cache._source_digest(str(tree))
        with open(tree / "core" / "gp.py", "ab") as handle:
            handle.write(b" ")
        assert cache._source_digest(str(tree)) != before


class TestMemoWrite:
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A disk-tier write that fails keeps the value in memory and
        leaves nothing behind in the cache directory."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_experiment_cache()

        def failing_replace(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(cache.os, "replace", failing_replace)
        assert cache._memoised(("memo-write-test", 1), lambda: {"v": 1}) == {"v": 1}
        assert os.listdir(tmp_path) == []
        clear_experiment_cache()


class TestSweptTables:
    @pytest.mark.parametrize("exp_id", sorted(SWEPT_TABLES))
    def test_warm_render_equals_cold(self, exp_id, tmp_path, monkeypatch):
        """A render served by the disk tier equals the cold render."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(experiments, "NODES", 8)
        monkeypatch.setattr(experiments, "P4_NODES", 8)
        monkeypatch.setitem(experiments.TRIALS, exp_id, 8)
        clear_experiment_cache()
        clear_optimum_cache()

        def render():
            result = ALL_EXPERIMENTS[exp_id](**SWEPT_TABLES[exp_id])
            tables = result if isinstance(result, list) else [result]
            return "\n".join(table.render() for table in tables)

        cold = render()
        assert list(tmp_path.glob("cell-*.json"))
        cache._memo.clear()
        clear_optimum_cache()
        assert render() == cold
        clear_experiment_cache()
