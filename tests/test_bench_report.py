"""Tests for the benchmark report/gate script (``scripts/bench_report.py``)."""

import importlib.util
import json
import pathlib
import sys

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_report.py"
_spec = importlib.util.spec_from_file_location("bench_report", _SCRIPT)
bench_report = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_report", bench_report)
_spec.loader.exec_module(bench_report)


@pytest.fixture
def results():
    return {
        "schema": "bench-p3/v4",
        "quick": False,
        "propose": {"n=64": {"incremental_ms": 4.0, "full_fits": 4}},
        "large": {
            "n=1024": {"exact_ms": 900.0, "sparse_ms": 30.0, "speedup": 30.0},
            "n=4096": {"exact_ms": 4000.0, "sparse_ms": 40.0, "speedup": 100.0},
        },
    }


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRender:
    def test_large_section_renders_after_propose(self, results):
        text = bench_report.render(results)
        assert "## large" in text
        assert "n=4096" in text
        assert text.index("## propose") < text.index("## large")

    def test_service_section_renders_in_preferred_order(self, results):
        results["service"] = {
            "seed=0": {"warm_vs_cold": 4.05, "cold_sessions_per_hour": 2.27},
            "sessions_per_hour": {"warm_vs_cold": 2.93},
        }
        assert "service" in bench_report.PREFERRED_SECTION_ORDER
        text = bench_report.render(results)
        assert "## service" in text
        assert text.index("## large") < text.index("## service")

    def test_sweep_section_renders_last_in_preferred_order(self, results):
        results["drift"] = {"seed=0": {"recovery_speedup": 10.96}}
        results["sweep"] = {
            "optimum": {"batch_ms": 47.8, "scalar_evals": 0},
            "demo:resnet:random": {"median": 0.48, "iqr": 0.06},
        }
        assert "sweep" in bench_report.PREFERRED_SECTION_ORDER
        text = bench_report.render(results)
        assert "## sweep" in text
        assert text.index("## drift") < text.index("## sweep")
        assert "47.80" in text


class TestCheck:
    def test_ratio_gate_passes_and_fails(self, tmp_path, results, capsys):
        baseline = _write(tmp_path, "base.json", results)
        worse = json.loads(json.dumps(results))
        worse["large"]["n=1024"]["speedup"] = 10.0
        current = _write(tmp_path, "cur.json", worse)
        argv = [
            "check", "--baseline", baseline, "--current", current,
            "--metric", "large/n=1024/speedup",
        ]
        assert bench_report.main(argv + ["--min-ratio", "0.25"]) == 0
        assert bench_report.main(argv + ["--min-ratio", "0.5"]) == 1

    def test_value_gate_needs_no_baseline(self, tmp_path, results):
        current = _write(tmp_path, "cur.json", results)
        argv = ["check", "--current", current, "--metric", "large/n=4096/speedup"]
        assert bench_report.main(argv + ["--min-value", "5.0"]) == 0
        assert bench_report.main(argv + ["--min-value", "500.0"]) == 1
        counter = ["check", "--current", current, "--metric", "propose/n=64/full_fits"]
        assert bench_report.main(counter + ["--max-value", "4"]) == 0
        assert bench_report.main(counter + ["--max-value", "3"]) == 1

    def test_exactly_one_bound_required(self, tmp_path, results):
        current = _write(tmp_path, "cur.json", results)
        argv = ["check", "--current", current, "--metric", "large/n=4096/speedup"]
        assert bench_report.main(argv) == 2
        assert bench_report.main(argv + ["--min-value", "1", "--max-value", "2"]) == 2

    def test_ratio_without_baseline_is_usage_error(self, tmp_path, results):
        current = _write(tmp_path, "cur.json", results)
        assert (
            bench_report.main(
                ["check", "--current", current,
                 "--metric", "large/n=4096/speedup", "--min-ratio", "0.5"]
            )
            == 2
        )

    def test_missing_section_fails_with_named_metric(self, tmp_path, results, capsys):
        stale = {k: v for k, v in results.items() if k != "large"}
        baseline = _write(tmp_path, "base.json", stale)
        current = _write(tmp_path, "cur.json", stale)
        code = bench_report.main(
            ["check", "--baseline", baseline, "--current", current,
             "--metric", "large/n=1024/speedup", "--min-ratio", "0.5"]
        )
        captured = capsys.readouterr().out
        assert code == 2
        assert "large/n=1024/speedup" in captured
        assert "regenerate" in captured
        assert "Traceback" not in captured

    def test_missing_metric_names_current_file(self, tmp_path, results, capsys):
        stale = {k: v for k, v in results.items() if k != "large"}
        current = _write(tmp_path, "cur.json", stale)
        code = bench_report.main(
            ["check", "--current", current,
             "--metric", "large/n=1024/speedup", "--min-value", "1.0"]
        )
        captured = capsys.readouterr().out
        assert code == 2
        assert f"current file {current!r}" in captured
        assert "baseline file" not in captured

    def test_missing_metric_names_stale_baseline(self, tmp_path, results, capsys):
        stale = {k: v for k, v in results.items() if k != "large"}
        baseline = _write(tmp_path, "base.json", stale)
        current = _write(tmp_path, "cur.json", results)
        code = bench_report.main(
            ["check", "--baseline", baseline, "--current", current,
             "--metric", "large/n=1024/speedup", "--min-ratio", "0.5"]
        )
        captured = capsys.readouterr().out
        assert code == 2
        assert f"baseline file {baseline!r}" in captured
        assert "committed baseline" in captured
        assert "current file" not in captured


def _fleet(quick=False, seeds=(0, 1, 2, 3)):
    """A BENCH_P4-shaped payload: per-seed cells plus a seed-list aggregate."""
    cells = {
        f"seed={seed}": {
            "matched_speedup": 1.5 + seed,
            "fleet_best": 3000.0 - seed,
            "shard0_machine_h": 0.4,
            "wall_speedup": 2.0,
        }
        for seed in seeds
    }
    cells["aggregate"] = {"matched_speedup": 2.76 if not quick else 2.5, "wall_speedup": 3.0}
    return {"schema": "bench_p4_fleet/v1", "quick": quick, "fleet": cells}


class TestCheckExact:
    def _check(self, tmp_path, baseline, current):
        argv = [
            "check", "--exact",
            "--baseline", _write(tmp_path, "base.json", baseline),
            "--current", _write(tmp_path, "cur.json", current),
        ]
        return bench_report.main(argv)

    def test_identical_passes(self, tmp_path, capsys):
        assert self._check(tmp_path, _fleet(), _fleet()) == 0
        assert "PASS: 18 deterministic field(s)" in capsys.readouterr().out

    def test_one_changed_field_fails_and_is_named(self, tmp_path, capsys):
        current = _fleet()
        current["fleet"]["seed=3"]["shard0_machine_h"] = 0.41
        assert self._check(tmp_path, _fleet(), current) == 1
        out = capsys.readouterr().out
        assert "fleet/seed=3/shard0_machine_h: baseline 0.4 current 0.41 DIFFERS" in out
        assert "FAIL: 1 of 18" in out

    def test_quick_run_checks_its_seeds_and_skips_run_size_cells(self, tmp_path, capsys):
        quick = _fleet(quick=True, seeds=(0, 3))
        assert self._check(tmp_path, _fleet(), quick) == 0
        out = capsys.readouterr().out
        assert "PASS: 8 deterministic field(s)" in out
        assert "1 run-size cell(s) skipped (quick vs full)" in out
        quick["fleet"]["seed=0"]["matched_speedup"] = 9.0
        assert self._check(tmp_path, _fleet(), quick) == 1

    def test_timings_are_never_compared(self, tmp_path):
        baseline = {
            "schema": "bench_p10_checkpoint/v1",
            "quick": False,
            "checkpoint": {
                "quick": {"fsyncs": 19, "replaces": 2, "trials": 16, "identical": 1,
                          "plain_ms": 521.7, "overhead_fraction": 0.047},
                "resume": {"identical": 1, "replay_ms": 633.9},
            },
        }
        current = json.loads(json.dumps(baseline))
        current["quick"] = True
        current["checkpoint"]["quick"]["plain_ms"] = 300.0
        current["checkpoint"]["resume"]["replay_ms"] = 100.0
        assert self._check(tmp_path, baseline, current) == 0
        current["checkpoint"]["quick"]["fsyncs"] = 35
        assert self._check(tmp_path, baseline, current) == 1

    def test_stale_baseline_and_unknown_schema_are_usage_errors(self, tmp_path, capsys):
        stale = _fleet()
        del stale["fleet"]["seed=3"]["fleet_best"]
        assert self._check(tmp_path, stale, _fleet()) == 2
        assert "fleet/seed=3/fleet_best is missing" in capsys.readouterr().out
        missing_cell = _fleet(seeds=(0, 1))
        assert self._check(tmp_path, missing_cell, _fleet()) == 2
        unknown = dict(_fleet(), schema="bench_p4_fleet/v9")
        assert self._check(tmp_path, unknown, unknown) == 2

    def test_exact_takes_no_metric_or_bound(self, tmp_path):
        path = _write(tmp_path, "f.json", _fleet())
        argv = ["check", "--exact", "--baseline", path, "--current", path]
        assert bench_report.main(argv + ["--metric", "fleet/seed=0/matched_speedup"]) == 2
        assert bench_report.main(argv + ["--min-value", "1.0"]) == 2
        assert bench_report.main(["check", "--exact", "--current", path]) == 2

    @pytest.mark.parametrize(
        "name", ["P3", "P4", "P5", "P7", "P8", "P9", "P10"],
    )
    def test_every_committed_file_lists_fields_that_exist(self, name):
        committed = json.loads((_SCRIPT.parent.parent / f"BENCH_{name}.json").read_text())
        compared, differences, stale, skipped = bench_report.check_exact(committed, committed)
        assert compared > 0 and differences == [] and stale == [] and skipped == 0
