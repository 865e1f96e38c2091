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
