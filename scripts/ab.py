"""Paired A/B runs of the end-to-end benchmark between two git revisions.

    python3 scripts/ab.py PARENT CHANGE --workload service-warm --pairs 10

Both revisions are extracted with ``git archive`` into fresh directories,
never run from a working tree, so neither side carries build leftovers or
uncommitted edits.  Each pair runs both trees' own
``perfbench/run.py --trace 0`` at the same seed and run length; the parent
goes first in even pairs and the change first in odd ones, so a host that
drifts over minutes weighs on both sides alike.  The end-to-end metrics,
their better direction and their bounds come from the parent's
``BENCHMARK.json``.  Each run also records the user + system CPU seconds
of its process tree (``cpu_s``), reported next to the wall metrics but
not judged, and the BLAS thread variables are printed with the results.

Per metric the script prints both medians, the median of the per-pair
ratios change/parent, a bootstrap 95% interval of that median, the pairs
the change won (ties count for neither side), the parent's interquartile
range and a verdict.  The verdict rule is fixed here, not chosen per run:

- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``better``: at least 10 pairs, the change wins at least nine tenths of
  them, and the medians differ, in the change's favour, by more than the
  parent's interquartile range;
- ``unresolved``: anything else.  This includes a change that is no worse
  than the bound, because the rule cannot tell "unchanged" from "too
  noisy to tell".
"""

import argparse
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9
BOOTSTRAP_SAMPLES = 2000
CPU_METRIC = {"name": "cpu_s", "unit": "s", "better": "lower", "bound": None}


def _worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a fraction of it."""
    if better == "lower":
        return change / parent - 1.0
    return 1.0 - change / parent


def _won(parent: float, change: float, better: str) -> bool:
    return change < parent if better == "lower" else change > parent


def interquartile_range(values) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent_runs, change_runs, better: str, bound) -> str:
    """``better``, ``worse`` or ``unresolved`` for paired samples of one metric.

    ``parent_runs[i]`` and ``change_runs[i]`` are pair ``i``; ``bound`` is
    the metric's allowed worsening as a fraction (``None``: never worse).
    """
    parent_median = statistics.median(parent_runs)
    change_median = statistics.median(change_runs)
    if bound is not None and _worse_by(parent_median, change_median, better) > bound:
        return "worse"
    wins = sum(_won(p, c, better) for p, c in zip(parent_runs, change_runs))
    if better == "lower":
        gap = parent_median - change_median
    else:
        gap = change_median - parent_median
    if (
        len(parent_runs) >= MIN_PAIRS_FOR_GAIN
        and wins >= WIN_SHARE_FOR_GAIN * len(parent_runs)
        and gap > interquartile_range(parent_runs)
    ):
        return "better"
    return "unresolved"


def ratio_interval(parent_runs, change_runs, seed: int = 0):
    """Median pair ratio change/parent and its bootstrap 95% interval."""
    ratios = [c / p for p, c in zip(parent_runs, change_runs)]
    rng = random.Random(seed)
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(BOOTSTRAP_SAMPLES)
    )
    low = medians[int(0.025 * BOOTSTRAP_SAMPLES)]
    high = medians[int(0.975 * BOOTSTRAP_SAMPLES) - 1]
    return statistics.median(ratios), low, high


def summarise(metric: dict, parent_runs, change_runs) -> dict:
    ratio, low, high = ratio_interval(parent_runs, change_runs)
    judged = metric["bound"] is not None
    return {
        "metric": metric["name"],
        "parent": statistics.median(parent_runs),
        "change": statistics.median(change_runs),
        "ratio": ratio,
        "low": low,
        "high": high,
        "wins": sum(_won(p, c, metric["better"]) for p, c in zip(parent_runs, change_runs)),
        "pairs": len(parent_runs),
        "parent_iqr": interquartile_range(parent_runs),
        "verdict": (
            verdict(parent_runs, change_runs, metric["better"], metric["bound"])
            if judged
            else "not judged"
        ),
    }


def extract(repo: str, revision: str, dest: str) -> str:
    """``git archive`` of ``revision`` unpacked into ``dest``; its commit id."""
    commit = subprocess.run(
        ["git", "-C", repo, "rev-parse", "--verify", f"{revision}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", repo, "archive", "--format=tar", commit],
        check=True, capture_output=True,
    ).stdout
    os.makedirs(dest)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``: its JSON line and CPU."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True, check=False,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tree}: perfbench/run.py printed nothing\n{done.stderr}")
    result = json.loads(lines[-1])
    result["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result["exit_code"] = done.returncode
    return result


def _format(value: float) -> str:
    return f"{value:.4g}"


def report(rows, blas: dict) -> str:
    lines = [
        "BLAS: " + ", ".join(f"{name}={value}" for name, value in blas.items()),
        f"{'metric':<14}{'parent':>10}{'change':>10}{'ratio':>8}"
        f"{'95% interval':>18}{'wins':>7}{'parent IQR':>12}  verdict",
    ]
    for row in rows:
        interval = f"[{row['low']:.3f}, {row['high']:.3f}]"
        lines.append(
            f"{row['metric']:<14}{_format(row['parent']):>10}{_format(row['change']):>10}"
            f"{row['ratio']:>8.3f}{interval:>18}{row['wins']:>4}/{row['pairs']:<2}"
            f"{_format(row['parent_iqr']):>12}  {row['verdict']}"
        )
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent side")
    parser.add_argument("change", help="git revision of the change side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="run length (default: BENCHMARK.json)")
    parser.add_argument("--repo", default=ROOT, help="git repository holding both revisions")
    parser.add_argument("--json", help="also write every run and the summary to this file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = tempfile.mkdtemp(prefix="ab-")
    try:
        trees, commits = {}, {}
        for side in ("parent", "change"):
            trees[side] = os.path.join(workdir, side)
            commits[side] = extract(args.repo, getattr(args, side), trees[side])
        with open(os.path.join(trees["parent"], "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        seconds = args.seconds or benchmark["run_seconds"]
        metrics = benchmark["end_to_end"] + [CPU_METRIC]
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, args.seed, seconds)
                runs[side].append(result)
                if not result["correct"] or result["exit_code"] != 0:
                    print(f"pair {pair}: {side} run failed its checks "
                          f"(exit {result['exit_code']})", file=sys.stderr)
            print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr)
        rows = []
        for metric in metrics:
            name = metric["name"]
            samples = {
                side: [
                    r["cpu_s"] if name == "cpu_s" else r["metrics"][name]["value"]
                    for r in runs[side]
                ]
                for side in runs
            }
            rows.append(summarise(metric, samples["parent"], samples["change"]))
        blas = {
            name: os.environ.get(name, "unset (perfbench/run.py sets 1)")
            for name in BLAS_VARIABLES
        }
        print(f"{args.workload}: parent {commits['parent'][:10]}, change "
              f"{commits['change'][:10]}, {args.pairs} pairs, seed {args.seed}, "
              f"{seconds} s")
        print(report(rows, blas))
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(
                    {"workload": args.workload, "commits": commits, "seed": args.seed,
                     "seconds": seconds, "blas": blas, "runs": runs, "summary": rows},
                    handle, indent=1,
                )
        failed = sum(
            not r["correct"] or r["exit_code"] != 0 for side in runs for r in runs[side]
        )
        return 1 if failed else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
