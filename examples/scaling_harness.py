"""Scaling the experiment harness: parallel cells and a disk cache.

Two independent knobs make repeated evaluation sweeps scale with the
hardware instead of with patience — neither changes any result:

1. ``run_sweep(cells, seeds, n_jobs=...)`` fans the independent
   (cell × seed) tuning sessions of a sweep across worker processes
   (:mod:`repro.harness.runner`).  ``n_jobs=None`` uses one process per
   CPU; results are identical to serial.

2. The experiment memoiser keeps a persistent JSON tier on disk (default
   ``.repro_cache/`` under the working directory, relocatable via the
   ``REPRO_CACHE_DIR`` environment variable): a sweep session or table
   cell computed in *any* earlier run is loaded instead of recomputed.
   ``clear_experiment_cache()`` wipes both tiers.

Run with::

    PYTHONPATH=src python examples/scaling_harness.py
"""

import os
import time

from repro.harness import SweepCell, cache, run_sweep
from repro.harness.cache import clear_experiment_cache, experiment_cache_dir
from repro.harness.experiments import exp_f5_scalability


def main() -> None:
    cells = [
        SweepCell(
            name=name,
            workload="resnet50-imagenet",
            nodes=16,
            strategy=name,
            max_trials=16,
        )
        for name in ("mlconfig-bo", "random", "annealing")
    ]

    # -- 1: session-parallel sweep ----------------------------------------
    for n_jobs in (1, None):  # None = one worker process per CPU
        clear_experiment_cache()  # time the sessions, not cache reads
        start = time.perf_counter()
        report = run_sweep(cells, seeds=[0, 1], n_jobs=n_jobs)["cells"]
        elapsed = time.perf_counter() - start
        label = "serial" if n_jobs == 1 else f"n_jobs={os.cpu_count()}"
        print(f"[{label:>9}] sweep took {elapsed:5.1f} s wall-clock")
        for name in sorted(report, key=lambda n: -report[n]["stats"]["mean"]):
            print(
                f"            {name:>12}: {report[name]['stats']['mean']:.3f} "
                f"of optimum"
            )

    # -- 3: the persistent experiment cache ------------------------------
    clear_experiment_cache()
    start = time.perf_counter()
    exp_f5_scalability(node_counts=(8,), budget_trials=8)
    cold = time.perf_counter() - start

    # A fresh process starts with an empty in-memory tier; the disk tier
    # (one JSON file per cell under experiment_cache_dir()) still answers.
    cache._memo.clear()
    start = time.perf_counter()
    table = exp_f5_scalability(node_counts=(8,), budget_trials=8)
    warm = time.perf_counter() - start
    print(table.render())
    print(
        f"cache at {experiment_cache_dir()}: cold {cold:.2f} s, "
        f"warm {warm * 1e3:.1f} ms"
    )


if __name__ == "__main__":
    main()
