"""Measurement, correctness checks and reporting behind ``perfbench/run.py``.

End-to-end metrics (tracing off):

- ``setup_s`` — median over :data:`SETUP_REPS` fresh interpreters
  (``setup_probe.py``) of the host seconds from start to the first
  proposal: imports, then the workload's objects (environments, spaces,
  pools, service, repository) built and run until they propose;
- ``trials_per_s`` — trials recorded ÷ host wall of the timed region;
- ``trial_ms_p50`` / ``trial_ms_p90`` — host ms per trial over every
  trial of the run (see :class:`TrialClock`);
- ``best_frac`` — median over sessions of the noise-free objective of
  ``TrialHistory.recommendation()`` as a fraction of the
  ``estimate_optimum`` reference (both at the session's final clock when
  the environment drifts);
- ``cost_to_q90_h`` — median over sessions of the simulated machine-hours
  (cancelled probes included) spent before the incumbent's noise-free
  value first reaches 0.9 of the reference; the whole spend otherwise;
- ``failed_probe_frac`` — failed trials ÷ trials;
- ``peak_rss_mb`` — peak resident memory of the process;
- ``error_frac`` — failed sessions ÷ sessions attempted;
- ``recovery_s`` — host seconds to resume the first finished checkpoint
  to a bit-identical result (checkpointing workloads only).

Quality fractions compare maximised objectives directly and negated
time-to-accuracy objectives inversely, so 1.0 is the reference for both.
The references are computed after the timed region.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Tuple

import numpy as np

from repro.configspace import to_training_config
from repro.core.session import SessionCallback
from repro.harness.chaos import result_fingerprint
from repro.harness.optimum import estimate_optimum
from repro.harness.tables import render_table
from spans import Tracer, layer_of
from workloads import WORKLOADS, Outcome

SETUP_REPS = 5
HERE = os.path.dirname(os.path.abspath(__file__))
QUALITY_TARGET = 0.9


class TrialClock(SessionCallback):
    """Host time per trial: between consecutive rounds, split over their trials.

    The serial and async executors record one trial per round, so this is
    exactly the time between consecutive ``on_trial_end`` callbacks.  The
    sync executor simulates a round's members one after another, but they
    complete together at its barrier, so each member is charged an equal
    share of the round.
    """

    def __init__(self) -> None:
        self.intervals_ns: List[float] = []
        self._last = time.perf_counter_ns()

    def on_round_end(self, round_index, trials, history) -> None:
        now = time.perf_counter_ns()
        self.intervals_ns.extend([(now - self._last) / len(trials)] * len(trials))
        self._last = now


class _FirstProposal(BaseException):
    """Ends a set-up probe; a BaseException so tenant isolation lets it out."""


class _StopAtFirstProposal(SessionCallback):
    def on_trial_start(self, index, config) -> None:
        raise _FirstProposal()


def time_setup(workload, seed: int, units: int, workdir: str) -> float:
    """Host seconds to build the workload and reach its first proposal."""
    os.makedirs(workdir)
    start = time.perf_counter()
    try:
        workload.run(seed, units, workdir, [_StopAtFirstProposal()])
    except _FirstProposal:
        return time.perf_counter() - start
    raise RuntimeError(f"{workload.name} finished without proposing")


def fresh_setup(workload, seed: int, units: int, workdir: str) -> float:
    """:func:`time_setup` plus imports, in a fresh interpreter."""
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "setup_probe.py"),
            workload.name,
            str(seed),
            str(units),
            workdir,
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def timed_run(workload, seed: int, units: int, workdir: str):
    os.makedirs(workdir)
    clock = TrialClock()
    start = time.perf_counter()
    outcomes = workload.run(seed, units, workdir, [clock])
    return outcomes, time.perf_counter() - start, clock.intervals_ns


# -- correctness -------------------------------------------------------------


def check(outcome: Outcome) -> List[str]:
    """Every way one session failed: raised, ended failed, or broke a check."""
    if outcome.error is not None:
        return [outcome.error]
    problems = list(outcome.checks)
    history = outcome.result.history
    if len(history) != outcome.trials:
        problems.append(f"{len(history)} trials recorded, budget {outcome.trials}")
    bad = [t.index for t in history if t.ok and not math.isfinite(t.objective)]
    if bad:
        problems.append(f"ok trials with non-finite objectives: {bad}")
    by_shard = sum(history.cost_by_shard().values())
    if not math.isclose(by_shard, history.total_cost_s, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(
            f"sum(cost_by_shard)={by_shard!r} != total_cost_s={history.total_cost_s!r}"
        )
    return problems


def traced_differs(untraced: List[Outcome], traced: List[Outcome]) -> Dict[str, str]:
    """Label → problem for every traced session whose fingerprint changed."""
    problems = {}
    for a, b in zip(untraced, traced):
        if a.result is None or b.result is None:
            continue
        if result_fingerprint(a.result) != result_fingerprint(b.result):
            problems[b.label] = "traced fingerprint differs from the untraced run"
    return problems


# -- quality -----------------------------------------------------------------


def quality(outcome: Outcome) -> Tuple[float, float]:
    """(best_frac, cost_to_q90_h) of one finished session."""
    history = outcome.result.history
    env = outcome.reference_env()
    if env.drift is not None:
        env.set_clock(history.total_wall_clock_s)
    _, reference = estimate_optimum(env, outcome.space)

    def frac(config) -> float:
        value = env.true_objective(to_training_config(config))
        if value is None:
            return 0.0
        return value / reference if reference > 0 else reference / value

    recommended = history.recommendation()
    best = 0.0 if recommended is None else frac(recommended.config)
    cost_s = history.total_cost_s
    incumbent = None
    for trial in history:
        if trial.ok and (incumbent is None or trial.objective > incumbent):
            incumbent = trial.objective
            if frac(trial.config) >= QUALITY_TARGET:
                cost_s = trial.cumulative_cost_s
                break
    return best, cost_s / 3600.0


def end_to_end(outcomes, wall_s, intervals_ns, setup_s, recovery_s) -> Dict[str, tuple]:
    finished = [o for o in outcomes if o.result is not None]
    trials = sum(len(o.result.history) for o in finished)
    failed_trials = sum(len(o.result.history.failed()) for o in finished)
    qualities = [quality(o) for o in finished]
    interval_ms = np.asarray(intervals_ns, dtype=float) / 1e6
    metrics = {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (trials / wall_s, "1/s"),
        "trial_ms_p50": (float(np.percentile(interval_ms, 50)), "ms"),
        "trial_ms_p90": (float(np.percentile(interval_ms, 90)), "ms"),
        "best_frac": (statistics.median(q[0] for q in qualities), "frac"),
        "cost_to_q90_h": (statistics.median(q[1] for q in qualities), "h"),
        "failed_probe_frac": (failed_trials / trials, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if recovery_s is not None:
        metrics["recovery_s"] = (recovery_s, "s")
    return metrics


# -- per-layer ---------------------------------------------------------------


def per_layer(tracer: Tracer, root: int, recovery: int, counts: dict, outcomes, wall_untraced_s):
    """Every per-layer metric the traced run measures, with units.

    ``root`` spans the workload and ``recovery`` the resume after it;
    ``counts`` are the counters at the end of the workload span.
    """
    rows = tracer.by_name(root)
    recovery_rows = tracer.by_name(recovery)
    wall_ns = tracer.duration_ns(root)

    def self_ms(*names):
        return sum(rows.get(n, {}).get("self_ns", 0) for n in names) / 1e6

    def calls(*names):
        return sum(rows.get(n, {}).get("calls", 0) for n in names)

    histories = [o.result.history for o in outcomes if o.result is not None]
    metrics = {
        "gp.refit_calls": (calls("gp.refit"), "count"),
        "gp.refit_ms": (self_ms("gp.refit"), "ms"),
        "gp.rebuild_calls": (calls("gp.rebuild"), "count"),
        "gp.rebuild_ms": (self_ms("gp.rebuild"), "ms"),
        "gp.extend_calls": (calls("gp.extend"), "count"),
        "gp.extend_ms": (self_ms("gp.extend"), "ms"),
        "gp.extend_fallbacks": (counts.get("gp.extend_fallbacks", 0), "count"),
        "gp.predict_calls": (calls("gp.predict"), "count"),
        "gp.predict_ms": (self_ms("gp.predict"), "ms"),
        "gp.lml_evals": (counts.get("gp.lml_evals", 0), "count"),
        "bo.propose_calls": (calls("bo.propose"), "count"),
        "bo.propose_self_ms": (self_ms("bo.propose"), "ms"),
        "space.candidates": (counts.get("space.candidates", 0), "count"),
        "space.ms": (self_ms("space.sample", "space.neighbors", "space.encode"), "ms"),
        "sim.probes": (calls("sim.probe"), "count"),
        "sim.probe_ms": (self_ms("sim.probe"), "ms"),
        "sim.failed_probes": (counts.get("sim.failed_probes", 0), "count"),
        "session.round_calls": (calls("session.round"), "count"),
        "session.round_self_ms": (self_ms("session.round"), "ms"),
        "ckpt.wal_appends": (counts.get("ckpt.wal_appends", 0), "count"),
        "ckpt.wal_ms": (self_ms("ckpt.wal", "ckpt.create"), "ms"),
        "ckpt.snapshots": (calls("ckpt.snapshot"), "count"),
        "ckpt.snapshot_ms": (self_ms("ckpt.snapshot"), "ms"),
        "ckpt.load_ms": (
            recovery_rows.get("ckpt.load", {}).get("self_ns", 0) / 1e6, "ms"
        ),
        "ckpt.replayed": (
            tracer.counts.get("ckpt.replayed", 0) - counts.get("ckpt.replayed", 0),
            "count",
        ),
        "fleet.select_ms": (self_ms("fleet.select"), "ms"),
        "fleet.preemptions": (counts.get("fleet.preemptions", 0), "count"),
        "fleet.cancelled_cost_h": (
            sum(h.cancelled_cost_s for h in histories) / 3600.0, "h"
        ),
        "detect.ms": (self_ms("detect.observe"), "ms"),
        "detect.alarms": (sum(len(h.events) for h in histories), "count"),
        "transfer.prior_fit_ms": (self_ms("transfer.prior_fit"), "ms"),
        "transfer.prior_predict_ms": (self_ms("transfer.prior_predict"), "ms"),
        "transfer.repo_ms": (self_ms("transfer.repo"), "ms"),
        "service.run_self_ms": (self_ms("service.run"), "ms"),
        "service.tenants_warm": (sum(1 for o in outcomes if o.warm), "count"),
        "trace.overhead_frac": (wall_ns / 1e9 / wall_untraced_s - 1.0, "frac"),
        "trace.unattributed_frac": (tracer.self_ns()[root] / wall_ns, "frac"),
    }
    return metrics, rows


def layer_tables(tracer: Tracer, root: int, rows: dict, counts: dict) -> str:
    """The per-span and per-layer self-time tables plus the counters."""
    wall_ns = tracer.duration_ns(root)
    root_self_ns = tracer.self_ns()[root]
    ordered = sorted(rows.items(), key=lambda kv: -kv[1]["self_ns"])
    span_rows = [
        [
            name,
            layer_of(name),
            row["calls"],
            row["total_ns"] / 1e6,
            row["self_ns"] / 1e6,
            100.0 * row["self_ns"] / wall_ns,
        ]
        for name, row in ordered
    ]
    layers: Dict[str, int] = {}
    for name, row in rows.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0) + row["self_ns"]
    layer_rows = [
        [layer, ns / 1e6, 100.0 * ns / wall_ns]
        for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1])
    ]
    layer_rows.append(["(unattributed)", root_self_ns / 1e6, 100.0 * root_self_ns / wall_ns])
    return "\n\n".join(
        [
            render_table(
                ["span", "layer", "calls", "total ms", "self ms", "% of wall"],
                span_rows,
                title="Spans (self time = duration minus child spans)",
            ),
            render_table(["layer", "self ms", "% of wall"], layer_rows, title="Layers"),
            render_table(
                ["counter", "value"], sorted(counts.items()), title="Counters"
            ),
        ]
    )


# -- output ------------------------------------------------------------------


def declared_metrics(root: str, key: str) -> List[dict]:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)[key]


def emit(declared, measured, attempted, failed, problems) -> int:
    """Print the metric report and the final JSON line; return the exit code."""
    print(
        render_table(
            ["metric", "value", "unit"],
            [[name, value, unit] for name, (value, unit) in measured.items()],
            title="Metrics",
        )
    )
    for label, problem in problems:
        print(f"CHECK FAILED {label}: {problem}", file=sys.stderr)
    metrics = {}
    for spec in declared:
        value, unit = measured[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: measured in {unit}, declared {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    correct = failed == 0
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


def _failures(outcomes, extra: Dict[str, str]) -> List[Tuple[str, str]]:
    problems = []
    for outcome in outcomes:
        found = check(outcome)
        if outcome.label in extra:
            found.append(extra[outcome.label])
        problems.extend((outcome.label, p) for p in found)
    return problems


def _recover(workload, outcomes, workdir) -> Tuple[object, float, Dict[str, str]]:
    start = time.perf_counter()
    recovered = workload.recover(outcomes, workdir)
    seconds = time.perf_counter() - start
    if recovered is None:
        return None, seconds, {}
    first = outcomes[0]
    if result_fingerprint(recovered) != result_fingerprint(first.result):
        return recovered, seconds, {first.label: "resumed fingerprint differs from live"}
    return recovered, seconds, {}


def run_untraced(args, workload, units, workdir, root) -> int:
    setups = [
        fresh_setup(workload, args.seed, units, os.path.join(workdir, f"setup{rep}"))
        for rep in range(SETUP_REPS)
    ]
    live_dir = os.path.join(workdir, "live")
    outcomes, wall_s, intervals = timed_run(workload, args.seed, units, live_dir)
    recovered, recovery_s, extra = _recover(workload, outcomes, live_dir)
    problems = _failures(outcomes, extra)
    failed = len({label for label, _ in problems})
    measured = end_to_end(
        outcomes,
        wall_s,
        intervals,
        statistics.median(setups),
        recovery_s if recovered is not None else None,
    )
    measured["error_frac"] = (failed / len(outcomes), "frac")
    print(
        f"{workload.name}: seed {args.seed}, {len(outcomes)} sessions, "
        f"{len(intervals)} trial intervals, timed wall {wall_s:.3f} s, "
        f"setup = median of {SETUP_REPS} fresh interpreters"
    )
    return emit(
        declared_metrics(root, "end_to_end"), measured, len(outcomes), failed, problems
    )


def run_traced(args, workload, units, workdir, root, scratch) -> int:
    untraced, wall_s, _ = timed_run(
        workload, args.seed, units, os.path.join(workdir, "untraced")
    )
    _, _, untraced_extra = _recover(workload, untraced, os.path.join(workdir, "untraced"))
    traced_dir = os.path.join(workdir, "traced")
    os.makedirs(traced_dir)
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("workload") as root_span:
            traced = workload.run(args.seed, units, traced_dir, [TrialClock()])
        counts = dict(tracer.counts)
        with tracer.span("recovery") as recovery_span:
            _, _, recovery_extra = _recover(workload, traced, traced_dir)
    extra = traced_differs(untraced, traced)
    extra.update(untraced_extra)
    extra.update(recovery_extra)
    problems = _failures(traced, extra)
    failed = len({label for label, _ in problems})
    measured, rows = per_layer(tracer, root_span, recovery_span, counts, traced, wall_s)
    print(
        f"{workload.name}: seed {args.seed}, {len(traced)} sessions, "
        f"untraced wall {wall_s:.3f} s, traced wall "
        f"{tracer.duration_ns(root_span) / 1e9:.3f} s"
    )
    print(layer_tables(tracer, root_span, rows, counts))
    recovery_rows = tracer.by_name(recovery_span)
    if recovery_rows:
        print()
        print(
            render_table(
                ["span", "calls", "self ms"],
                [[n, r["calls"], r["self_ns"] / 1e6] for n, r in recovery_rows.items()],
                title="Recovery (resume of the first finished checkpoint)",
            )
        )
    spans_dir = os.path.join(scratch, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, f"{workload.name}-seed{args.seed}.jsonl")
    tracer.write_jsonl(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path}")
    return emit(
        declared_metrics(root, "per_layer"), measured, len(traced), failed, problems
    )


def main(args, workdir: str, scratch: str) -> int:
    root = os.path.dirname(scratch)
    workload = WORKLOADS[args.workload]
    # A traced run does the work twice (untraced, then traced), so each
    # half gets half the run length.
    units = workload.units(args.seconds / 2 if args.trace else args.seconds)
    try:
        if args.trace:
            return run_traced(args, workload, units, workdir, root, scratch)
        return run_untraced(args, workload, units, workdir, root)
    except Exception:  # noqa: BLE001 - report, and fail without a result line
        traceback.print_exc()
        return 1
