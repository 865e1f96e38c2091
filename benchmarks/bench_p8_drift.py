"""P8 — drift recovery: change-point detection + re-tuning vs oblivious BO.

At ``DRIFT_AT_S`` of simulated wall-clock the environment shifts under the
tuner: 40% of the nodes become 5x stragglers and ambient interference
inflates workload intensity.  Under the ``tta`` (time-to-accuracy)
objective this *moves* the optimal configuration — the post-drift
optimum switches architecture and sync mode, it doesn't just sit lower.
Two arms tune the same workload at the same seed.  They are two
:class:`~repro.harness.SweepCell` scenarios (the drift as a ``--drift``
spec string, a wall-clock budget) run by one
:func:`~repro.harness.run_sweep` call, so each session is memoised on
disk and a rerun loads it:

- *oblivious* — the stock :class:`~repro.core.MLConfigTuner`; its
  surrogate keeps averaging pre- and post-drift observations and its
  early-termination incumbent keeps gating probes against a throughput
  the cluster no longer delivers;
- *adaptive* — the same tuner plus a default
  :class:`~repro.core.detect.ChangePointDetector` (Page–Hinkley over
  normalised surrogate residuals) driving a ``discount``
  :class:`~repro.core.detect.RetuningPolicy` that noise-discounts
  pre-drift history in the surrogate, drops the stale incumbent,
  re-probes the incumbent configuration, and queues fresh exploration
  points.

The two arms are bit-identical until the first alarm (the detector only
observes), so the comparison isolates the detect-and-re-tune loop.

*Recovery time* (:func:`repro.harness.metrics.recovery_time_s`) is how
long after the drift each arm takes until its **recommendation** — the
config a deployment would copy, per
:meth:`~repro.core.trial.TrialHistory.recommendation` — clears
``RECOVERY_FRACTION`` of the post-drift optimum on the *true* post-drift
objective (optimum found by :func:`~repro.harness.estimate_optimum` on
the drifted environment at a post-drift clock).  Scoring recommendations
is what keeps the comparison honest: the oblivious arm stumbles across
decent post-drift configs too, but its recommendation stays pinned to
the stale pre-drift record because post-drift measurements are worse on
an absolute scale.  Both arms run to the same simulated ``HORIZON_S``;
an arm that never recovers is charged the full post-drift horizon.
``recovery_speedup`` — the ratio CI gates at >= 2.0 — is oblivious
recovery time over adaptive recovery time.  The adaptive arm's alarms
are split at the drift (:func:`repro.harness.metrics.split_alarms`): an
alarm at or before ``DRIFT_AT_S`` is a ``false_alarms`` entry, and
``detections`` and ``first_detection_wall_s`` read only later ones.

Everything is simulated time, so the numbers are deterministic per seed —
independent of runner hardware.  Run as a script to (re)generate the
committed baseline::

    PYTHONPATH=src python benchmarks/bench_p8_drift.py --output BENCH_P8.json
    PYTHONPATH=src python benchmarks/bench_p8_drift.py --quick   # CI smoke

``scripts/bench_report.py`` renders the JSON and gates CI on regressions.
"""

import argparse
import json
import os
import sys

try:
    import repro  # noqa: F401
except ImportError:  # standalone `python benchmarks/bench_p8_drift.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    )

import numpy as np

from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.harness import SweepCell, estimate_optimum, metrics, run_sweep
from repro.mlsim import TrainingEnvironment, parse_drift_spec
from repro.workloads import get_workload

SCHEMA = "bench_p8_drift/v1"
WORKLOAD = "resnet50-imagenet"
OBJECTIVE = "tta"  # time-to-accuracy: straggler onset *moves* its argmax
NODES = 16
HORIZON_S = 10800.0  # same simulated wall-clock for both arms
DRIFT_AT_S = 1800.0
STRAGGLER_FRACTION = 0.4
STRAGGLER_SLOWDOWN = 5.0
INTENSITY = 2.0
RECOVERY_FRACTION = 0.625  # recovered = recommendation within 1.6x of optimal tta
POST_DRIFT_CLOCK_S = DRIFT_AT_S + 1.0  # both drift terms are steps
DRIFT = (
    f"stragglers:at={DRIFT_AT_S:g},fraction={STRAGGLER_FRACTION:g},"
    f"slowdown={STRAGGLER_SLOWDOWN:g};step:at={DRIFT_AT_S:g},intensity={INTENSITY:g}"
)


def post_drift_env():
    """The drifted environment with its clock past the drift: the surface
    recovery is scored on.  The schedule is seed-independent, so one
    environment serves every arm."""
    env = TrainingEnvironment(
        get_workload(WORKLOAD),
        homogeneous(NODES),
        objective_name=OBJECTIVE,
        drift=parse_drift_spec(DRIFT),
    )
    env.set_clock(POST_DRIFT_CLOCK_S)
    return env


def post_drift_optimum():
    """Noise-free post-drift optimum: a 1,500-sample search refined for up
    to 40 rounds (memoised on the drift schedule and the clock)."""
    _, optimum = estimate_optimum(
        post_drift_env(),
        ml_config_space(NODES),
        samples=1500,
        grid_resolution=1,
        refinement_rounds=40,
        seed=1234,
    )
    return optimum


def recovery_bar(optimum):
    """The objective value that counts as recovered.

    ``tta`` objectives are negative (higher is better), so "within 90% of
    the optimum" means at most ``1/RECOVERY_FRACTION`` times the optimal
    magnitude; positive objectives use the plain fraction.
    """
    if optimum >= 0:
        return RECOVERY_FRACTION * optimum
    return optimum / RECOVERY_FRACTION


def arm_cells(seed):
    """The oblivious and the adaptive arm at one seed, as sweep cells."""
    common = dict(
        workload=WORKLOAD,
        nodes=NODES,
        strategy="mlconfig-bo",
        objective=OBJECTIVE,
        max_trials=None,
        max_wall_clock_s=HORIZON_S,
        env_seed=seed,
        drift=DRIFT,
    )
    return [
        SweepCell(name="oblivious", **common),
        SweepCell(name="adaptive", retune="discount", **common),
    ]


def run_pair(seed):
    """Oblivious vs adaptive arm at one seed; returns the result cell."""
    env = post_drift_env()
    bar = recovery_bar(post_drift_optimum())
    report = run_sweep(arm_cells(seed), [seed])["cells"]
    oblivious, adaptive = (
        report[name]["results"][0].history for name in ("oblivious", "adaptive")
    )
    oblivious_s = metrics.recovery_time_s(oblivious, env, bar, DRIFT_AT_S, HORIZON_S)
    adaptive_s = metrics.recovery_time_s(adaptive, env, bar, DRIFT_AT_S, HORIZON_S)
    false_alarms, detections = metrics.split_alarms(adaptive, DRIFT_AT_S)
    return {
        "oblivious_recovery_s": oblivious_s,
        "adaptive_recovery_s": adaptive_s,
        "recovery_speedup": oblivious_s / max(adaptive_s, 1e-9),
        "false_alarms": len(false_alarms),
        "detections": len(detections),
        "first_detection_wall_s": detections[0].wall_clock_s if detections else None,
        "oblivious_trials": len(oblivious),
        "adaptive_trials": len(adaptive),
    }


def run_suite(quick=False):
    """Measure each seed pair and return the BENCH_P8 payload.

    Quick cells are byte-identical to the full run's same-seed cells
    (simulated time is deterministic), which is what lets CI gate a quick
    run against the committed full baseline.
    """
    seeds = (0,) if quick else (0, 1, 2)
    optimum = post_drift_optimum()
    results = {
        "schema": SCHEMA,
        "quick": bool(quick),
        "config": {
            "workload": WORKLOAD,
            "objective": OBJECTIVE,
            "nodes": NODES,
            "horizon_s": HORIZON_S,
            "drift_at_s": DRIFT_AT_S,
            "straggler_fraction": STRAGGLER_FRACTION,
            "straggler_slowdown": STRAGGLER_SLOWDOWN,
            "intensity": INTENSITY,
            "recovery_bar": round(recovery_bar(optimum), 1),
            "post_drift_optimum": round(optimum, 1),
        },
        "drift": {},
    }
    speedups = []
    for seed in seeds:
        cell = run_pair(seed)
        results["drift"][f"seed={seed}"] = cell
        speedups.append(cell["recovery_speedup"])
        print(
            f"seed={seed}: oblivious {cell['oblivious_recovery_s'] / 60:.1f} min  "
            f"adaptive {cell['adaptive_recovery_s'] / 60:.1f} min  "
            f"speedup x{cell['recovery_speedup']:.2f}  "
            f"({cell['detections']} detection(s), "
            f"{cell['false_alarms']} false alarm(s))"
        )
    results["drift"]["recovery"] = {
        "speedup_mean": float(np.mean(speedups)),
        "speedup_min": float(np.min(speedups)),
    }
    print(
        f"aggregate over {len(seeds)} seed(s): speedup x{np.mean(speedups):.2f} "
        f"(min x{np.min(speedups):.2f})"
    )
    return results


def bench_p8_drift(benchmark):
    """pytest-benchmark entry: time one Page–Hinkley detector update."""
    from repro.core.detect import _PageHinkley

    detector = _PageHinkley(delta=0.3, threshold=8.0)
    values = np.random.default_rng(0).normal(size=256)

    def feed():
        detector.reset()
        for value in values:
            detector.update(float(value))
        return detector

    assert benchmark(feed) is detector


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="seed-0 pair only (CI smoke; cell identical to the full run's)",
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
