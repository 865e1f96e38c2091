"""F3 — search cost to reach near-optimal configurations.

Shares the memoised sweep sessions with F2.  The timed kernel is the
metric-extraction pass over the full sweep (cheap, but it is the code
path every experiment report runs).
"""

from conftest import emit
from repro.harness import metrics, run_sweep
from repro.harness.experiments import REPEATS, SEED, TRIALS, _core_cells, exp_f3_search_cost


def bench_f3_search_cost(benchmark):
    table = emit(exp_f3_search_cost())
    assert "mlconfig-bo" in table

    cells = run_sweep(
        _core_cells(TRIALS["F3"]), seeds=range(SEED, SEED + REPEATS)
    )["cells"]

    def kernel():
        rows = []
        for cell in cells.values():
            optimum = cell["optimum_value"]
            for result in cell["results"]:
                rows.append(
                    (
                        metrics.trials_to_within(result, optimum, 0.05),
                        metrics.cost_to_within(result, optimum, 0.05),
                    )
                )
        return rows

    rows = benchmark(kernel)
    assert rows
