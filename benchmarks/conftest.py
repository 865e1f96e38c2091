"""Shared helpers for the benchmark suite.

Every bench module regenerates one table/figure of the evaluation (one
``exp_*`` function of :mod:`repro.harness.experiments` each) and times a
representative kernel with pytest-benchmark.  The regenerated tables are
printed and also written to ``benchmarks/results/<EXP>.txt`` so that
``pytest benchmarks/`` leaves the reproduction artefacts on disk
regardless of output capturing.
"""

import os

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(table) -> str:
    """Print an ExperimentTable and persist it under benchmarks/results/."""
    text = table.render()
    print("\n" + text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{table.exp_id}.txt")
    # Multiple tables can share an experiment id (F2 has one per workload):
    # append, but reset the file on the first write of each pytest session.
    mode = "a" if path in _written else "w"
    _written.add(path)
    with open(path, mode) as handle:
        handle.write(text + "\n\n")
    return text


_written = set()


@pytest.fixture(scope="session")
def fast_env():
    """A small, cheap environment for timing micro-kernels."""
    from repro.cluster import homogeneous
    from repro.mlsim import TrainingEnvironment
    from repro.workloads import get_workload

    return TrainingEnvironment(
        get_workload("resnet50-imagenet"), homogeneous(8), seed=0
    )
