"""P10 — checkpoint/resume: durability overhead and exactness of recovery.

Two claims, one payload:

- ``checkpoint/quick`` — the cost of running the quick BO cell with a
  crash-safe checkpoint at its most aggressive cadence
  (``every_n_trials=1``: per trial, an fsynced WAL probe record and a
  flushed trial record carrying the audit state; the WAL is the
  checkpoint's only file) against the same session with no
  checkpoint at all.  The two runs are timed in alternating pairs (the
  order flips every pair), and ``overhead_fraction`` is the median of
  the per-pair overheads, so a host that speeds up or slows down
  mid-run moves both halves of a pair together.  CI gates
  ``overhead_fraction <= 0.10`` — durability must stay under 10% of
  session wall time.  The cell also re-asserts the subsystem's core
  promise before any timing is trusted: the checkpointed run and a
  resume of its finished checkpoint are both bit-identical to the plain
  run (fingerprints over trials, ledgers, best config, and environment
  counters).  One more checkpointed run counts the cell's ``os.fsync``
  and ``os.replace`` calls (``fsyncs``, ``replaces``).  These are
  deterministic, so CI gates them with no timing noise: one fsync per
  probe record, one for the header and one at close (18 for 16 trials),
  and no replace (the session's end is one appended end record, not an
  atomically rewritten file).  A trial record that is fsynced, or any
  atomic rewrite, fails them.

- ``checkpoint/resume`` — how long a cold resume takes: load the WAL,
  replay every recorded probe through the full propose loop, and
  reconstruct strategy/executor/environment state, relative to the live
  run it replaces.  Replay skips the simulated probes but re-runs the
  real proposal math, so this ratio is the GP-refit share of a session.

Timings are wall-clock on the runner; identity checks are exact.  Run as
a script to (re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/bench_p10_checkpoint.py --output BENCH_P10.json
    PYTHONPATH=src python benchmarks/bench_p10_checkpoint.py --quick   # CI smoke

``scripts/bench_report.py`` renders the JSON and gates CI on regressions.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from unittest import mock

try:
    import repro  # noqa: F401
except ImportError:  # standalone `python benchmarks/bench_p10_checkpoint.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    )

from repro.cluster import homogeneous
from repro.core import CheckpointConfig, MLConfigTuner, TuningBudget, TuningSession
from repro.core.session import SerialExecutor
from repro.harness.chaos import result_fingerprint, resume_session
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload

SCHEMA = "bench_p10_checkpoint/v1"
WORKLOAD = "resnet50-imagenet"
NODES = 8
TRIALS = 16
N_INITIAL = 4
SEED = 3
TIMING_REPEATS = 3  # cold resumes timed; the fastest counts
TIMING_PAIRS = 9  # plain/checkpointed pairs; the median overhead counts
QUICK_TIMING_PAIRS = 7


def _env():
    return TrainingEnvironment(get_workload(WORKLOAD), homogeneous(NODES), seed=0)


def _space():
    from repro.configspace import ml_config_space

    return ml_config_space(NODES)


def _run(checkpoint=None):
    session = TuningSession(MLConfigTuner(n_initial=N_INITIAL))
    return session.run(
        _env(),
        _space(),
        TuningBudget(max_trials=TRIALS),
        seed=SEED,
        checkpoint=checkpoint,
    )


def _durability_calls():
    """One checkpointed run, with its ``os.fsync``/``os.replace`` counts."""
    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = CheckpointConfig(
            os.path.join(scratch, "count.ckpt"), every_n_trials=1
        )
        with mock.patch.object(os, "fsync", wraps=os.fsync) as fsync, \
                mock.patch.object(os, "replace", wraps=os.replace) as replace:
            result = _run(checkpoint=checkpoint)
    return result, fsync.call_count, replace.call_count


def _timed(checkpoint=None):
    start = time.perf_counter()
    result = _run(checkpoint=checkpoint)
    return result, time.perf_counter() - start


def _quick_cell(pairs, repeats):
    """Time plain vs checkpointed(every=1) runs in alternating pairs, then
    cold resumes; assert exact identity."""
    plain_times, ckpt_times, overheads = [], [], []
    resume_s, resumed_result = float("inf"), None
    with tempfile.TemporaryDirectory() as scratch:
        for pair in range(pairs):
            last_path = CheckpointConfig(
                os.path.join(scratch, f"bench-{pair}.ckpt"), every_n_trials=1
            )
            if pair % 2 == 0:
                plain_result, plain_s = _timed()
                ckpt_result, ckpt_s = _timed(last_path)
            else:
                ckpt_result, ckpt_s = _timed(last_path)
                plain_result, plain_s = _timed()
            plain_times.append(plain_s)
            ckpt_times.append(ckpt_s)
            overheads.append((ckpt_s - plain_s) / plain_s)

        for _ in range(repeats):
            start = time.perf_counter()
            resumed_result = resume_session(
                lambda: MLConfigTuner(n_initial=N_INITIAL),
                lambda: SerialExecutor(),
                _env,
                _space(),
                last_path,
            )
            resume_s = min(resume_s, time.perf_counter() - start)

    counted_result, fsyncs, replaces = _durability_calls()

    expected = result_fingerprint(plain_result)
    assert result_fingerprint(ckpt_result) == expected, (
        "checkpointed run diverged from the plain run"
    )
    assert result_fingerprint(counted_result) == expected, (
        "counted checkpointed run diverged from the plain run"
    )
    assert result_fingerprint(resumed_result) == expected, (
        "resume of the finished checkpoint diverged from the plain run"
    )
    plain_s = statistics.median(plain_times)
    return {
        "quick": {
            "trials": TRIALS,
            "plain_ms": round(plain_s * 1e3, 2),
            "checkpointed_ms": round(statistics.median(ckpt_times) * 1e3, 2),
            "overhead_fraction": round(max(0.0, statistics.median(overheads)), 4),
            "fsyncs": fsyncs,
            "replaces": replaces,
            "identical": 1,
        },
        "resume": {
            "replay_ms": round(resume_s * 1e3, 2),
            "replay_vs_live": round(resume_s / plain_s, 3),
            "identical": 1,
        },
    }


def run_suite(quick=False):
    repeats = 2 if quick else TIMING_REPEATS
    pairs = QUICK_TIMING_PAIRS if quick else TIMING_PAIRS
    results = {
        "schema": SCHEMA,
        "quick": bool(quick),
        "config": {
            "workload": WORKLOAD,
            "nodes": NODES,
            "trials": TRIALS,
            "n_initial": N_INITIAL,
            "seed": SEED,
            "timing_repeats": repeats,
            "timing_pairs": pairs,
            "every_n_trials": 1,
        },
        "checkpoint": {},
    }
    cells = _quick_cell(pairs, repeats)
    results["checkpoint"].update(cells)
    q, r = cells["quick"], cells["resume"]
    print(
        f"quick cell ({TRIALS} trials): plain {q['plain_ms']:.0f} ms  "
        f"checkpointed {q['checkpointed_ms']:.0f} ms  "
        f"overhead {q['overhead_fraction'] * 100:.1f}% (bit-identical)"
    )
    print(f"durability calls: {q['fsyncs']} fsyncs, {q['replaces']} replaces")
    print(
        f"cold resume: replay {r['replay_ms']:.0f} ms "
        f"({r['replay_vs_live']:.2f}x live wall, bit-identical)"
    )
    return results


def bench_p10_checkpoint(benchmark):
    """pytest-benchmark entry: load+parse a finished session checkpoint."""
    from repro.core import Checkpoint

    with tempfile.TemporaryDirectory() as scratch:
        checkpoint = CheckpointConfig(os.path.join(scratch, "bench.ckpt"))
        _run(checkpoint=checkpoint)
        loaded = benchmark(lambda: Checkpoint.load(checkpoint.path))
    assert len(loaded.history) == TRIALS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer timing pairs and resume repeats (the cell is otherwise unchanged)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the results JSON here (default: print only)",
    )
    args = parser.parse_args(argv)

    results = run_suite(quick=args.quick)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
