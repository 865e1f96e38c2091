#!/usr/bin/env python3
"""Head-to-head tuner comparison on a communication-bound workload.

Runs the BO tuner against CherryPick-style BO, random search, simulated
annealing, and coordinate descent on word2vec (the hardest workload for
naive tuning: the PS configuration dominates) and prints the convergence
table — the data behind figure F2.  Every strategy is one sweep cell,
run over the same two seeds on the same simulated cluster.

Run:  python examples/compare_tuners.py
"""

from repro.harness import SweepCell, metrics, render_series, run_sweep
from repro.harness.comparison import standard_strategy_set
from repro.workloads import get_workload


def main() -> None:
    nodes = 16
    workload = get_workload("word2vec-wiki")
    cells = [
        SweepCell(
            name=name,
            workload=workload.name,
            nodes=nodes,
            strategy=name,
            max_trials=25,
        )
        for name in standard_strategy_set()
    ]
    report = run_sweep(cells, seeds=[0, 1])["cells"]
    optimum = report["mlconfig-bo"]["optimum_value"]

    print(f"Workload: {workload.name} (FLOP/byte = {workload.compute_comm_ratio:.3f})")
    print(f"True optimum: {optimum:.1f} samples/s")
    print()

    checkpoints = [2, 4, 8, 12, 16, 20, 25]
    series = {}
    for name, cell in report.items():
        curve = metrics.mean_curve(
            [metrics.normalized_best_so_far(r, optimum) for r in cell["results"]]
        )
        series[name] = [curve[min(c, len(curve)) - 1] for c in checkpoints]
    print(render_series(
        "trial", checkpoints, series,
        title="Mean normalized best-so-far (fraction of true optimum)",
    ))

    ranking = sorted(report, key=lambda name: -report[name]["stats"]["mean"])
    print("\nRanking:", " > ".join(ranking))


if __name__ == "__main__":
    main()
