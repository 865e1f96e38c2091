"""Named tuning strategies for the harness's sweep cells.

Every strategy a :class:`~repro.harness.sweep.SweepCell` names resolves
through :func:`strategy_registry`.  A factory takes the session seed
and the cell, and builds a fresh strategy, so every (cell, seed) session
is independent of every other.  Only ``expert`` reads the cell: its rule
of thumb depends on the cluster size and the workload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict

from repro.core.strategy import SearchStrategy

if TYPE_CHECKING:
    from repro.harness.sweep import SweepCell

StrategyFactory = Callable[[int, "SweepCell"], SearchStrategy]


def standard_strategy_set() -> Dict[str, StrategyFactory]:
    """The five-tuner lineup used by the convergence figures."""
    from repro.baselines import (
        CherryPick,
        CoordinateDescent,
        GridSearch,
        RandomSearch,
        SimulatedAnnealing,
        SuccessiveHalving,
    )
    from repro.core import MLConfigTuner

    return {
        "mlconfig-bo": lambda seed, cell: MLConfigTuner(seed=seed),
        "cherrypick": lambda seed, cell: CherryPick(seed=seed),
        "random": lambda seed, cell: RandomSearch(),
        "grid": lambda seed, cell: GridSearch(seed=seed),
        "annealing": lambda seed, cell: SimulatedAnnealing(seed=seed),
        "coordinate": lambda seed, cell: CoordinateDescent(seed=seed),
        "halving": lambda seed, cell: SuccessiveHalving(seed=seed),
    }


def strategy_registry() -> Dict[str, StrategyFactory]:
    """Every strategy name a sweep cell may carry.

    The standard lineup, plus the BO tuner with each non-default
    acquisition function (``ei``, ``pi``, ``ucb``; the default ``eipc``
    is ``mlconfig-bo``) and without early termination
    (``no-early-term``), plus the one-probe ``default`` and ``expert``
    configurations.
    """
    from repro.baselines import default_strategy, expert_strategy
    from repro.core import MLConfigTuner
    from repro.workloads import get_workload

    registry = standard_strategy_set()
    for acquisition in ("ei", "pi", "ucb"):
        registry[acquisition] = lambda seed, cell, acquisition=acquisition: (
            MLConfigTuner(acquisition=acquisition, seed=seed)
        )
    registry["no-early-term"] = lambda seed, cell: MLConfigTuner(
        early_termination=False, seed=seed
    )
    registry["default"] = lambda seed, cell: default_strategy()
    registry["expert"] = lambda seed, cell: expert_strategy(
        cell.nodes, get_workload(cell.workload).compute_comm_ratio
    )
    return registry
