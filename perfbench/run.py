"""End-to-end benchmark of the configuration tuner.

Run from the repository root::

    python3 perfbench/run.py --workload service-warm --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same work untraced and then traced, and reports the
per-layer split, the tracing overhead and the unattributed remainder.
Either way the outputs are checked, and the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (the metrics ``BENCHMARK.json`` lists for that mode).  The
exit code is 0 only when every check passed.

Scratch files (checkpoints, repositories, the experiment cache) go to a
fresh directory under ``.perfbench/`` that is deleted at exit; the traced
run's spans are kept in ``.perfbench/spans/``.
"""

import argparse
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("bo-serial", "fleet-async", "service-warm", "event-sync")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=int, required=True,
        help="run length; converted into a fixed number of sessions",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"error: no repro package at {os.path.join(SRC, 'repro')}; run the "
            f"benchmark from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        print(f"error: no BENCHMARK.json at {ROOT}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    # Memoised harness calls must not read a cache left by an earlier run.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(workdir, "cache")
    # One thread: BLAS worker threads on a small shared box add contention
    # and run-to-run noise (and cost wall time on 2 cores).  Set before
    # numpy is first imported; an explicit setting wins.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path.insert(0, SRC)
    try:
        import bench

        return bench.main(args, workdir, scratch)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
