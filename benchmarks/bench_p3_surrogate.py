"""P3 — fast surrogate layer: proposal latency vs. history size and batch width.

Times the interactive hot path of the tuner — one BO proposal — against
history size (n in {16, 64, 256}) and constant-liar batch width on the
shipped ``incremental`` path: persistent surrogates whose cached Cholesky
factors are extended on append
(:meth:`repro.core.gp.GaussianProcess.extend`), hyperparameter refits on
the real-trial cadence with analytic LML gradients.  Next to each median
latency, ``full_fits`` counts the surrogate ``fit`` calls (objective and
cost GP, either tier) in the timed loop: a deterministic work counter
that rises if proposals stop extending their cached factors and refit
instead.

The ``hyperfit`` section times one full hyperparameter fit (restarts=2)
at each history size.

The ``large`` section measures the sparse surrogate tier at histories
where the exact tier stops being interactive (n in {1024, 4096}): both
arms run the shipped incremental path with hyper-refits parked (hypers
are warmed on a 64-trial prefix, the only regime where an exact hyperfit
is affordable at these sizes), and differ only in ``sparse_threshold`` —
``None`` pins the exact tier, the default 512 switches to the
inducing-point tier (:class:`repro.core.gp.SparseGaussianProcess`,
``max_inducing=256``).  Timed cells are the steady-state grow-by-one
loop, so the exact arm pays its O(n^2) extend + O(n^3) variance-factor
rebuild and the sparse arm its O(m^2) inner refactor.

Run as a script to (re)generate the committed latency baseline::

    PYTHONPATH=src python benchmarks/bench_p3_surrogate.py --output BENCH_P3.json
    PYTHONPATH=src python benchmarks/bench_p3_surrogate.py --quick   # CI smoke

``scripts/bench_report.py`` renders the JSON and gates CI on regressions.
"""

import argparse
import contextlib
import json
import os
import statistics
import sys
import time
from unittest import mock

try:
    import repro  # noqa: F401
except ImportError:  # standalone `python benchmarks/bench_p3_surrogate.py`
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    )

import numpy as np

from repro.configspace import ml_config_space
from repro.core import TrialHistory
from repro.core.bo import BayesianProposer
from repro.core.gp import GaussianProcess, SparseGaussianProcess
from repro.core.kernels import Matern52
from repro.mlsim import Measurement, TrainingConfig

SCHEMA = "bench_p3_surrogate/v4"


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


def _proposer(space, seed=0):
    return BayesianProposer(
        space,
        acquisition="eipc",  # the tuner's default: exercises the cost GP too
        n_initial=8,
        n_candidates=512,
        seed=seed,
    )


@contextlib.contextmanager
def _count_fits():
    """Count ``fit`` calls on either GP tier while the block runs.

    Yields a callable returning the count.  The sparse tier's scratch
    hyperfit is an exact-tier ``fit`` and counts too; the ``propose`` and
    ``batch`` cells stay below the sparse threshold.
    """
    with mock.patch.object(
        GaussianProcess, "fit", autospec=True, side_effect=GaussianProcess.fit
    ) as exact, mock.patch.object(
        SparseGaussianProcess,
        "fit",
        autospec=True,
        side_effect=SparseGaussianProcess.fit,
    ) as sparse:
        yield lambda: exact.call_count + sparse.call_count


def _record_objective(history, config, rng):
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


def time_propose(space, n, repeats, seed=0):
    """(median ms, full fits) of one proposal against an n-trial history.

    The history grows by one real observation per timed call — the
    steady-state loop a CherryPick-style tuner runs between probes, with
    hyperparameter refits landing at their natural cadence.
    """
    history = _history(space, n, seed=seed)
    proposer = _proposer(space, seed=seed)
    rng = np.random.default_rng(seed + 1)
    proposer.propose(history, rng)  # warm-up: first model fit
    samples = []
    with _count_fits() as fits:
        for _ in range(repeats):
            start = time.perf_counter()
            config = proposer.propose(history, rng)
            samples.append((time.perf_counter() - start) * 1e3)
            _record_objective(history, config, rng)
    return statistics.median(samples), fits()


def time_batch_round(space, n, k, repeats, seed=0):
    """(median ms, full fits) of one k-wide constant-liar proposal round.

    Each member is proposed as a ParallelExecutor asks for it: one
    ``proposer.propose`` call with the round's earlier members pending.
    """
    history = _history(space, n, seed=seed)
    proposer = _proposer(space, seed=seed)
    rng = np.random.default_rng(seed + 2)
    proposer.propose(history, rng)  # warm-up
    samples = []
    with _count_fits() as fits:
        for _ in range(repeats):
            start = time.perf_counter()
            batch = []
            for _ in range(k):
                batch.append(proposer.propose(history, rng, pending=list(batch)))
            samples.append((time.perf_counter() - start) * 1e3)
            for config in batch:
                _record_objective(history, config, rng)
    return statistics.median(samples), fits()


def time_large_propose(space, n, sparse, repeats, seed=0, warm=64):
    """Median latency (ms) of one proposal against an n-trial history,
    exact tier pinned (``sparse=False``) or sparse tier enabled.

    Protocol: hypers are fitted once against a ``warm``-trial prefix (the
    exact tier's hyperfit is the only O(n^3)-per-gradient step, so at
    n >= 1024 it must happen while the history is small), refits are then
    parked, the history grows to ``n``, one untimed proposal builds the
    full-size surrogate, and the timed loop measures the steady-state
    grow-by-one path both tiers actually run between probes.
    """
    history = _history(space, warm, seed=seed)
    proposer = BayesianProposer(
        space,
        acquisition="eipc",
        n_initial=8,
        n_candidates=512,
        refit_every=10**9,
        sparse_threshold=(512 if sparse else None),
        max_inducing=256,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 3)
    proposer.propose(history, rng)  # hyperfit on the affordable prefix
    grow = np.random.default_rng(seed + 4)
    for _ in range(n - warm):
        _record_objective(history, space.sample(grow), grow)
    proposer.propose(history, rng)  # untimed: grow the surrogate to n
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        config = proposer.propose(history, rng)
        samples.append((time.perf_counter() - start) * 1e3)
        _record_objective(history, config, rng)
    return statistics.median(samples)


def time_hyperfit(n, repeats, seed=0, dim=8):
    """Median latency (ms) of one full hyperparameter fit (restarts=2)."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, dim))
    y = np.sin(3.0 * x[:, 0]) + x[:, 1] ** 2 + 0.1 * rng.standard_normal(n)
    samples = []
    for _ in range(repeats):
        gp = GaussianProcess(kernel=Matern52(dim), restarts=2)
        start = time.perf_counter()
        gp.fit(x, y)
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def run_suite(quick=False, seed=0):
    """Measure every axis cell and return the BENCH_P3 payload.

    The ``propose`` axis runs the same repeats with and without
    ``quick``, so its ``full_fits`` counts match the committed baseline.
    """
    nodes = 16
    space = ml_config_space(nodes)
    history_sizes = (16, 64) if quick else (16, 64, 256)
    batch_cells = ((4, 64),) if quick else ((4, 64), (8, 256))
    large_sizes = (1024,) if quick else (1024, 4096)
    propose_repeats = 9
    batch_repeats = 2 if quick else 3
    large_repeats = 2 if quick else 3
    hyperfit_repeats = 3 if quick else 5

    results = {
        "schema": SCHEMA,
        "quick": bool(quick),
        "config": {
            "nodes": nodes,
            "dims": space.dims,
            "acquisition": "eipc",
            "n_candidates": 512,
            "propose_repeats": propose_repeats,
            "batch_repeats": batch_repeats,
        },
        "propose": {},
        "large": {},
        "batch": {},
        "hyperfit": {},
    }
    results["config"]["sparse_threshold"] = 512
    results["config"]["max_inducing"] = 256

    for n in history_sizes:
        ms, fits = time_propose(space, n, propose_repeats, seed)
        results["propose"][f"n={n}"] = {"incremental_ms": ms, "full_fits": fits}
        print(f"propose n={n:>3}: incremental {ms:8.1f} ms  full fits {fits}")

    for n in large_sizes:
        cell = {
            "exact_ms": time_large_propose(
                space, n, sparse=False, repeats=large_repeats, seed=seed
            ),
            "sparse_ms": time_large_propose(
                space, n, sparse=True, repeats=large_repeats, seed=seed
            ),
        }
        cell["speedup"] = cell["exact_ms"] / cell["sparse_ms"]
        results["large"][f"n={n}"] = cell
        print(
            f"large n={n:>4}: exact {cell['exact_ms']:8.1f} ms  "
            f"sparse {cell['sparse_ms']:8.1f} ms  "
            f"speedup {cell['speedup']:5.1f}x"
        )

    for k, n in batch_cells:
        ms, fits = time_batch_round(space, n, k, batch_repeats, seed)
        results["batch"][f"k={k},n={n}"] = {"incremental_ms": ms, "full_fits": fits}
        print(f"batch k={k} n={n:>3}: incremental {ms:8.1f} ms  full fits {fits}")

    for n in history_sizes:
        cell = {"fit_ms": time_hyperfit(n, repeats=hyperfit_repeats, seed=seed)}
        results["hyperfit"][f"n={n}"] = cell
        print(f"hyperfit n={n:>3}: {cell['fit_ms']:8.1f} ms")

    return results


def bench_p3_surrogate(benchmark):
    """pytest-benchmark entry: one fast-path proposal at n=64."""
    space = ml_config_space(16)
    history = _history(space, 64)
    proposer = _proposer(space)
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
