"""Check that the traced run's work counters repeat exactly at one seed.

Runs ``perfbench/run.py --trace 1`` twice for each named workload at the
same seed and run length, and compares every per-layer metric whose unit
is ``count``.  Exits 1 and names the counters that differ, 0 otherwise.

    python3 perfbench/check_counters.py --workload bo-serial --seed 3 --seconds 20
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("bo-serial", "fleet-async", "service-warm", "event-sync")


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: traced run failed\n{done.stderr}")
    metrics = json.loads(lines[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    differ = 0
    for workload in args.workload or WORKLOADS:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        changed = sorted(k for k in first if first[k] != second.get(k))
        differ += len(changed)
        status = "identical" if not changed else "DIFFER: " + ", ".join(
            f"{k} {first[k]} vs {second.get(k)}" for k in changed
        )
        print(f"{workload}: {len(first)} counters {status}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
