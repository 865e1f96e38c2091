"""Named tuning strategies for the harness's sweep cells.

Every strategy a :class:`~repro.harness.sweep.SweepCell` names resolves
through :func:`strategy_registry`: the F2/F3 lineup of
:func:`standard_strategy_set` plus the tuner variants the ablation tables
(A1, A2) compare.  A factory takes the session seed and builds a fresh
strategy, so every (cell, seed) session is independent of every other.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.strategy import SearchStrategy

StrategyFactory = Callable[[int], SearchStrategy]


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
        "mlconfig-bo": lambda seed: MLConfigTuner(seed=seed),
        "cherrypick": lambda seed: CherryPick(seed=seed),
        "random": lambda seed: RandomSearch(),
        "grid": lambda seed: GridSearch(seed=seed),
        "annealing": lambda seed: SimulatedAnnealing(seed=seed),
        "coordinate": lambda seed: CoordinateDescent(seed=seed),
        "halving": lambda seed: SuccessiveHalving(seed=seed),
    }


def strategy_registry() -> Dict[str, StrategyFactory]:
    """Every strategy name a sweep cell may carry.

    The standard lineup, plus the BO tuner with each non-default
    acquisition function (``ei``, ``pi``, ``ucb``; the default ``eipc``
    is ``mlconfig-bo``) and without early termination
    (``no-early-term``).
    """
    from repro.core import MLConfigTuner

    registry = standard_strategy_set()
    for acquisition in ("ei", "pi", "ucb"):
        registry[acquisition] = lambda seed, acquisition=acquisition: MLConfigTuner(
            acquisition=acquisition, seed=seed
        )
    registry["no-early-term"] = lambda seed: MLConfigTuner(
        early_termination=False, seed=seed
    )
    return registry
