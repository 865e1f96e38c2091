"""P9 — batch probe engine: vectorised optimum search + N-seed sweep throughput.

Two claims, one payload:

- ``sweep/optimum`` — :func:`~repro.harness.estimate_optimum` at its
  default budgets (3000 random samples + the coarse grid + refinement)
  through the vectorised batch path
  (:func:`~repro.mlsim.perf.estimate_columns` over the candidates' knob
  columns).  ``scalar_evals`` counts the per-config
  :meth:`~repro.mlsim.TrainingEnvironment.true_objective` calls inside
  the search; CI gates it at 0, a hardware-independent check that every
  candidate is evaluated in batches.  Bit-identity with a per-config
  loop is a tier-1 test (``tests/test_harness.py``).

- ``sweep/demo`` — a small :func:`~repro.harness.run_sweep` grid
  (workload × strategy over several seeds) run cold through the fork
  pool, reporting the per-cell seed-spread statistics the papers' box
  plots are built from plus the sessions/hour the sweep engine sustains
  on this box.

Optimum-search timings are wall-clock on the runner; the sweep *results*
(spread statistics) are deterministic per seed.  Run as a script to
(re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/bench_p9_sweep.py --output BENCH_P9.json
    PYTHONPATH=src python benchmarks/bench_p9_sweep.py --quick   # CI smoke

``scripts/bench_report.py`` renders the JSON and gates CI on regressions.
"""

import argparse
import json
import os
import sys
import tempfile
import time
from unittest import mock

try:
    import repro  # noqa: F401
except ImportError:  # standalone `python benchmarks/bench_p9_sweep.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    )

import numpy as np

from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.harness import SweepCell, run_sweep
from repro.harness.optimum import clear_optimum_cache, estimate_optimum
from repro.mlsim import TrainingEnvironment
from repro.workloads import get_workload

SCHEMA = "bench_p9_sweep/v2"
WORKLOAD = "resnet50-imagenet"
NODES = 16
OPTIMUM_SAMPLES = 3000  # estimate_optimum's default budget — what CI gates
TIMING_REPEATS = 3

DEMO_WORKLOAD = "resnet50-imagenet"
DEMO_NODES = 8
DEMO_TRIALS = 12
DEMO_STRATEGIES = ("random", "mlconfig-bo")


def _optimum_cell():
    """Best-of wall time and per-config evaluations of the optimum search."""
    env = TrainingEnvironment(
        get_workload(WORKLOAD), homogeneous(NODES), seed=3, objective_name="throughput"
    )
    space = ml_config_space(NODES)
    best_s = float("inf")
    with mock.patch.object(
        TrainingEnvironment,
        "true_objective",
        autospec=True,
        side_effect=TrainingEnvironment.true_objective,
    ) as scalar_eval:
        for _ in range(TIMING_REPEATS):
            clear_optimum_cache()
            start = time.perf_counter()
            estimate_optimum(env, space, samples=OPTIMUM_SAMPLES)
            best_s = min(best_s, time.perf_counter() - start)
    clear_optimum_cache()
    return {
        "samples": OPTIMUM_SAMPLES,
        "batch_ms": round(best_s * 1e3, 2),
        "scalar_evals": scalar_eval.call_count,
    }


def _demo_cells(quick):
    """Run the demo sweep cold and flatten its per-cell statistics."""
    seeds = list(range(3 if quick else 5))
    cells = [
        SweepCell(
            name=f"{DEMO_WORKLOAD}:{strategy}",
            workload=DEMO_WORKLOAD,
            nodes=DEMO_NODES,
            strategy=strategy,
            max_trials=DEMO_TRIALS,
        )
        for strategy in DEMO_STRATEGIES
    ]
    # Point the session memoiser at a throwaway directory: the committed
    # sessions-per-hour number must be a cold-cache measurement, not a
    # read of this checkout's warm .repro_cache.
    saved = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory() as scratch:
        os.environ["REPRO_CACHE_DIR"] = scratch
        try:
            start = time.perf_counter()
            report = run_sweep(cells, seeds=seeds, n_jobs=1)
            elapsed_s = time.perf_counter() - start
        finally:
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
    sessions_per_hour = report["n_sessions"] / (elapsed_s / 3600.0)
    out = {}
    for name, cell in report["cells"].items():
        stats = cell["stats"]
        out[f"demo:{name}"] = {
            "seeds": len(seeds),
            "mean": round(stats["mean"], 4),
            "median": round(stats["median"], 4),
            "q1": round(stats["q1"], 4),
            "q3": round(stats["q3"], 4),
            "iqr": round(stats["iqr"], 4),
            "min": round(stats["min"], 4),
            "max": round(stats["max"], 4),
            "mean_trials": cell["mean_trials"],
        }
    out["throughput"] = {
        "sessions": report["n_sessions"],
        "elapsed_s": round(elapsed_s, 2),
        "sessions_per_hour": round(sessions_per_hour, 1),
    }
    return out


def run_suite(quick=False):
    """Measure every cell and return the BENCH_P9 payload.

    The ``sweep/optimum`` cell runs the *full* default budget even under
    ``--quick`` — it is the gated cell, and shrinking the candidate count
    would benchmark a different search.  Quick mode only trims the demo
    sweep's seed list.
    """
    results = {
        "schema": SCHEMA,
        "quick": bool(quick),
        "config": {
            "workload": WORKLOAD,
            "nodes": NODES,
            "optimum_samples": OPTIMUM_SAMPLES,
            "timing_repeats": TIMING_REPEATS,
            "demo_workload": DEMO_WORKLOAD,
            "demo_nodes": DEMO_NODES,
            "demo_trials": DEMO_TRIALS,
        },
        "sweep": {},
    }
    optimum = _optimum_cell()
    results["sweep"]["optimum"] = optimum
    print(
        f"optimum search ({OPTIMUM_SAMPLES} samples): "
        f"batch {optimum['batch_ms']:.1f} ms  "
        f"scalar evals {optimum['scalar_evals']}"
    )
    for name, cell in _demo_cells(quick).items():
        results["sweep"][name] = cell
        if name == "throughput":
            print(
                f"sweep demo: {cell['sessions']} sessions in {cell['elapsed_s']:.1f} s "
                f"({cell['sessions_per_hour']:.0f} sessions/hour)"
            )
        else:
            print(
                f"{name}: median {cell['median']:.3f} "
                f"IQR [{cell['q1']:.3f}, {cell['q3']:.3f}] "
                f"range [{cell['min']:.3f}, {cell['max']:.3f}]"
            )
    return results


def bench_p9_sweep(benchmark):
    """pytest-benchmark entry: one vectorised 512-candidate objective batch."""
    from repro.configspace import to_training_config

    env = TrainingEnvironment(
        get_workload(WORKLOAD), homogeneous(NODES), seed=3, objective_name="throughput"
    )
    space = ml_config_space(NODES)
    rng = np.random.default_rng(0)
    configs = [to_training_config(space.sample(rng)) for _ in range(512)]
    values = benchmark(lambda: env.true_objective_batch(configs))
    assert np.isfinite(values).any()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="trim the demo sweep to 3 seeds (the gated optimum cell is unchanged)",
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
