"""P5 — vectorized proposal pipeline + process-parallel harness throughput.

Three axes, one per layer this change touches:

- ``throughput`` — steady-state BO proposal latency (and candidates/sec at
  the tuner's default 512-candidate set) through the vectorized candidate
  pipeline, which keeps candidates encoded end-to-end, at history sizes
  n in {16, 64, 256}.  ``scalar_samples`` counts the per-config
  :meth:`ConfigSpace.sample` calls the timed proposals make: a
  deterministic work counter that must stay 0, because every candidate
  comes from the batched sampler.
- ``harness`` — one P1-style strategy sweep (``run_sweep``) with its
  (strategy × seed) sessions fanned across ``n_jobs`` worker processes
  vs serial.  Each timed arm starts with both experiment-cache tiers
  empty, so it times sessions, not cache reads.  Session results are
  identical; the speedup is bounded by ``config.host_cpus``.
- ``cache`` — the disk-memoised experiment tier: one experiment cell
  computed cold (and persisted) vs re-loaded warm from the JSON cache by
  a fresh in-memory state, the cross-process repeat-run case.

Run as a script to (re)generate the committed baseline::

    PYTHONPATH=src python benchmarks/bench_p5_throughput.py --output BENCH_P5.json
    PYTHONPATH=src python benchmarks/bench_p5_throughput.py --quick   # CI smoke

``scripts/bench_report.py`` renders the JSON; CI gates on
``throughput/n=64/scalar_samples`` (a hardware-independent count).
"""

import argparse
import json
import os
import statistics
import sys
import time
from unittest import mock

try:
    import repro  # noqa: F401
except ImportError:  # standalone `python benchmarks/bench_p5_throughput.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    )

import numpy as np

from repro.configspace import ConfigSpace, ml_config_space
from repro.core import TrialHistory
from repro.core.bo import BayesianProposer
from repro.mlsim import Measurement, TrainingConfig

SCHEMA = "bench_p5_throughput/v2"
N_CANDIDATES = 512


def _history(space, n, seed=0):
    """A deterministic all-success history of ``n`` probes."""
    rng = np.random.default_rng(seed)
    history = TrialHistory()
    for _ in range(n):
        config = space.sample(rng)
        history.record(
            config,
            Measurement(
                config=TrainingConfig(),
                ok=True,
                fidelity="analytic",
                objective=float(rng.random() * 100.0),
                probe_cost_s=float(30.0 + rng.random() * 90.0),
            ),
        )
    return history


def time_propose(space, n, repeats, seed=0):
    """(median ms, scalar samples) of a steady-state proposal.

    The history is static; ``scalar samples`` counts
    :meth:`ConfigSpace.sample` calls during the timed proposals.

    ``refit_every`` is parked far out so the cells time the candidate
    pipeline + scoring, not hyperparameter refits (P3's ``hyperfit``
    section times those).
    """
    history = _history(space, n, seed=seed)
    proposer = BayesianProposer(
        space,
        acquisition="eipc",
        n_candidates=N_CANDIDATES,
        refit_every=10**9,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    proposer.propose(history, rng)  # warm-up: first model fit
    samples = []
    with mock.patch.object(
        ConfigSpace, "sample", autospec=True, side_effect=ConfigSpace.sample
    ) as scalar_sample:
        for _ in range(repeats):
            start = time.perf_counter()
            proposer.propose(history, rng)
            samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples), scalar_sample.call_count


def time_harness(quick, seed=0):
    """One P1-style strategy sweep: serial vs session-parallel wall-clock."""
    import tempfile

    import repro.harness.cache as cache
    from repro.harness import SweepCell, run_sweep

    strategies = ("mlconfig-bo", "random", "annealing", "coordinate")
    if quick:
        strategies = strategies[:2]
    repeats = 2 if quick else 3
    # Keep the BO cells past their initial design so every cell does real
    # surrogate work — near-empty cells would time pool overhead, not the
    # harness.
    trials = 12 if quick else 16
    cells = [
        SweepCell(
            name=name,
            workload="resnet50-imagenet",
            nodes=16,
            strategy=name,
            max_trials=trials,
            optimum_seed=seed,
        )
        for name in strategies
    ]
    seeds = range(seed, seed + repeats)

    def sweep(n_jobs):
        # Both cache tiers start empty: a warm memo would time reads.
        cache.clear_experiment_cache()
        start = time.perf_counter()
        report = run_sweep(cells, seeds, n_jobs=n_jobs)
        return time.perf_counter() - start, report

    previous = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="bench-p5-sweep-") as scratch:
        os.environ["REPRO_CACHE_DIR"] = scratch
        try:
            sweep(1)  # warm the optimum cache so both timed arms share it
            serial_s, serial = sweep(1)
            parallel_s, parallel = sweep(4)
            cache.clear_experiment_cache()
        finally:
            if previous is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = previous
    for name in strategies:
        if serial["cells"][name]["values"] != parallel["cells"][name]["values"]:
            raise AssertionError(f"n_jobs=4 diverged from serial on {name!r}")
    return {
        "cells": len(strategies) * repeats,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else None,
    }


def time_cache(quick, seed=0):
    """Disk-memoised experiment tier: cold compute vs warm cross-run load."""
    import tempfile

    import repro.harness.cache as cache
    import repro.harness.experiments as experiments

    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="bench-p5-cache-")
    try:
        budget_trials = 4 if quick else 8
        start = time.perf_counter()
        cold = experiments.exp_f5_scalability((8,), budget_trials, seed)
        cold_s = time.perf_counter() - start
        # A fresh process would start with an empty memory tier; simulate
        # that and let the disk tier answer.
        cache._memo.clear()
        start = time.perf_counter()
        warm = experiments.exp_f5_scalability((8,), budget_trials, seed)
        warm_s = time.perf_counter() - start
        if [list(map(str, row)) for row in warm.rows] != [
            list(map(str, row)) for row in cold.rows
        ]:
            raise AssertionError("disk-cached cell diverged from fresh compute")
        cache.clear_experiment_cache()
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else None,
    }


def run_suite(quick=False, seed=0):
    """Measure every axis and return the BENCH_P5 payload."""
    nodes = 16
    space = ml_config_space(nodes)
    history_sizes = (16, 64) if quick else (16, 64, 256)
    propose_repeats = 9 if quick else 31

    results = {
        "schema": SCHEMA,
        "quick": bool(quick),
        "config": {
            "nodes": nodes,
            "dims": space.dims,
            "acquisition": "eipc",
            "n_candidates": N_CANDIDATES,
            "propose_repeats": propose_repeats,
            "host_cpus": os.cpu_count(),
        },
        "throughput": {},
        "harness": {},
        "cache": {},
    }

    for n in history_sizes:
        ms, scalar_samples = time_propose(space, n, propose_repeats, seed)
        cell = {
            "vectorized_ms": ms,
            "vectorized_cps": N_CANDIDATES / ms * 1e3,
            "scalar_samples": scalar_samples,
        }
        results["throughput"][f"n={n}"] = cell
        print(
            f"throughput n={n:>3}: vectorized {ms:6.1f} ms  "
            f"({cell['vectorized_cps']:,.0f} cand/s)  "
            f"scalar samples {scalar_samples}"
        )

    results["harness"]["p1-sweep"] = time_harness(quick, seed)
    cell = results["harness"]["p1-sweep"]
    print(
        f"harness: {cell['cells']} cells  serial {cell['serial_s']:.1f} s  "
        f"n_jobs=4 {cell['parallel_s']:.1f} s  speedup {cell['speedup']:.2f}x"
    )

    results["cache"]["f5-cell"] = time_cache(quick, seed)
    cell = results["cache"]["f5-cell"]
    print(
        f"cache: cold {cell['cold_s']:.2f} s  warm {cell['warm_s']:.4f} s  "
        f"speedup {cell['speedup']:.0f}x"
    )
    return results


def bench_p5_throughput(benchmark):
    """pytest-benchmark entry: one vectorized proposal at n=64."""
    space = ml_config_space(16)
    history = _history(space, 64)
    proposer = BayesianProposer(
        space, acquisition="eipc", n_candidates=N_CANDIDATES, refit_every=10**9
    )
    rng = np.random.default_rng(1)
    proposer.propose(history, rng)  # warm the surrogate cache

    config = benchmark(lambda: proposer.propose(history, rng))
    assert space.is_valid(config)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller axes and fewer repeats (CI smoke)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the results JSON here (default: print only)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    results = run_suite(quick=args.quick, seed=args.seed)
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
