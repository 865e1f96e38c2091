"""N-seed sweeps over scenario cells: the harness's one seed loop.

The paper's headline claims are seed-spread claims — "the tuner reaches
within 5% of optimal in N trials, across seeds".  :func:`run_sweep` runs
a grid of *scenario cells* (workload × cluster size × strategy ×
objective × execution) over a shared seed list and reports per-cell
spread statistics (mean, median, quartiles, extremes) the way the papers'
boxplots do, together with every session's
:class:`~repro.core.strategy.TuningResult`.  It is the only (cell × seed)
session loop in the harness: the T3, F2–F5, A1/A2, P1/P2 and P4
tables, the P8 and P9 benchmarks and the examples all build cell lists
and read its report.

A cell can also be a *scenario*: ``drift`` makes its environment
non-stationary (a :func:`~repro.mlsim.parse_drift_spec` string, the
CLI's ``--drift`` grammar), ``retune`` attaches a
:class:`~repro.core.detect.ChangePointDetector` at its defaults with that
:class:`~repro.core.detect.RetuningPolicy` mode (the CLI's
``--detect-drift --retune-mode``), and ``max_wall_clock_s`` caps the
session's simulated wall-clock instead of, or as well as, its trial
count.  The P8 drift benchmark's two arms are two such cells.

Execution reuses the two workhorses the rest of the harness runs on:

- :func:`repro.harness.runner.run_cells` fans the independent
  (cell × seed) sessions across fork workers, and
- :func:`repro.harness.cache._memoised` persists each session's
  :meth:`TrialHistory.to_payload <repro.core.trial.TrialHistory.to_payload>`
  to the on-disk experiment cache, so re-renders and CI reruns pay only
  for cold cells.  The result handed back is rebuilt from that payload
  whether the session ran now or was loaded, so a warm render computes
  its tables from exactly what a cold one did.

Noise-free optima (the normalisation anchors) are estimated in the
parent process before the fan-out, one per distinct reference problem,
and memoised on disk beside the sessions, so a warm render runs no
search at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core.detect import ChangePointDetector, RetuningPolicy
from repro.core.session import EXECUTOR_MODES, executor_for
from repro.core.strategy import TuningBudget, TuningResult
from repro.core.trial import TrialHistory
from repro.harness import metrics
from repro.harness.cache import _memoised
from repro.harness.comparison import strategy_registry
from repro.harness.optimum import estimate_optimum
from repro.harness.runner import run_cells
from repro.mlsim import TrainingEnvironment, parse_drift_spec
from repro.workloads import get_workload


@dataclass(frozen=True)
class SweepCell:
    """One scenario of a sweep: what to tune, on what, with which tuner.

    Frozen, and built of scalars plus one tuple of floats, so a cell can
    sit directly in a memo key and in JSON reports.  ``strategy`` names an
    entry of :func:`~repro.harness.comparison.strategy_registry`.  The
    budget is ``max_trials`` and/or ``max_wall_clock_s`` (simulated
    seconds); ``None`` leaves that cap off.  ``workers`` ×
    ``executor_mode`` pick the executor
    (:func:`~repro.core.session.executor_for`).  A non-empty
    ``shard_multipliers`` runs the session on a :func:`build_fleet_pool`
    fleet of that many replicas placed by ``scheduler``, whose shard
    ``i`` uses environment seed ``env_seed + i``.  ``drift`` and
    ``retune`` make the cell a drift scenario (see the module docstring).
    """

    name: str
    workload: str
    nodes: int
    strategy: str
    objective: str = "throughput"
    max_trials: Optional[int] = 40
    max_wall_clock_s: Optional[float] = None
    env_seed: int = 0
    optimum_seed: int = 0
    workers: int = 1
    executor_mode: str = "sync"
    shard_multipliers: Tuple[float, ...] = ()
    scheduler: str = "roundrobin"
    drift: str = ""
    retune: str = ""

    def __post_init__(self) -> None:
        if self.strategy not in strategy_registry():
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{sorted(strategy_registry())}"
            )
        if self.nodes < 2:
            raise ValueError("nodes must be >= 2")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.executor_mode not in EXECUTOR_MODES:
            raise ValueError(f"unknown executor mode {self.executor_mode!r}")
        object.__setattr__(self, "shard_multipliers", tuple(self.shard_multipliers))
        self.budget()
        self.drift_schedule()
        self.detector()

    def budget(self) -> TuningBudget:
        """The session budget (raises on a missing or invalid cap)."""
        return TuningBudget(
            max_trials=self.max_trials, max_wall_clock_s=self.max_wall_clock_s
        )

    def drift_schedule(self):
        """The parsed ``drift`` schedule, or ``None`` for a stationary cell."""
        try:
            return parse_drift_spec(self.drift)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad drift spec {self.drift!r}: {exc}") from None

    def detector(self) -> Optional[ChangePointDetector]:
        """A fresh detector for one session, or ``None`` without ``retune``."""
        if not self.retune:
            return None
        return ChangePointDetector(policy=RetuningPolicy(mode=self.retune))


def build_fleet_pool(
    workload,
    nodes: int,
    seed: int,
    shard_multipliers: Sequence[float],
    scheduler_name: str = "roundrobin",
    **env_options,
):
    """A heterogeneous probing fleet over one target cluster.

    Every shard is a replica of the same ``nodes``-node cluster — the
    objective surface is shared — but shard ``i`` runs probes at
    ``shard_multipliers[i]`` times the baseline duration (older hardware,
    contended tenancy) and gets its own measurement-noise stream
    (environment seed ``seed + i``).  Shard 0 at multiplier 1.0 with seed
    ``seed`` is exactly the single-cluster baseline environment.  Each
    shard has one probe slot.  ``env_options`` go to every shard's
    :class:`~repro.mlsim.TrainingEnvironment`.
    """
    from repro.core.fleet import EnvironmentPool, EnvironmentShard, make_scheduler

    cluster = homogeneous(nodes)
    shards = [
        EnvironmentShard(
            f"shard{i}",
            TrainingEnvironment(workload, cluster, seed=seed + i, **env_options),
            cost_multiplier=multiplier,
        )
        for i, multiplier in enumerate(shard_multipliers)
    ]
    return EnvironmentPool(shards, scheduler=make_scheduler(scheduler_name))


def seed_spread_stats(values: Sequence[float]) -> Dict[str, float]:
    """Boxplot-shaped summary of one metric across seeds."""
    if len(values) == 0:
        raise ValueError("need at least one value")
    arr = np.asarray(values, dtype=float)
    q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return {
        "mean": float(arr.mean()),
        "median": float(median),
        "q1": float(q1),
        "q3": float(q3),
        "iqr": float(q3 - q1),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def _session(cell: SweepCell, seed: int) -> dict:
    """One (cell, seed) tuning session, as its history payload."""
    workload = get_workload(cell.workload)
    env_options = dict(objective_name=cell.objective, drift=cell.drift_schedule())
    env = pool = None
    if cell.shard_multipliers:
        pool = build_fleet_pool(
            workload,
            cell.nodes,
            cell.env_seed,
            cell.shard_multipliers,
            cell.scheduler,
            **env_options,
        )
    else:
        env = TrainingEnvironment(
            workload, homogeneous(cell.nodes), seed=cell.env_seed, **env_options
        )
    detector = cell.detector()
    result = strategy_registry()[cell.strategy](seed, cell).run(
        env,
        ml_config_space(cell.nodes),
        cell.budget(),
        seed=seed,
        executor=executor_for(cell.workers, cell.executor_mode, pool=pool),
        callbacks=[] if detector is None else [detector],
    )
    return result.history.to_payload()


def _rebuilt(cell: SweepCell, payload: dict) -> TuningResult:
    """The session's result, rebuilt from its memoised history payload.

    ``strategy`` is the cell's registry name and ``environment`` the
    cell's fields: the live environment is not kept.
    """
    history = TrialHistory.from_payload(payload)
    return TuningResult(
        strategy=cell.strategy,
        history=history,
        best_trial=history.recommendation(),
        environment=asdict(cell),
    )


def _optimum(cell: SweepCell) -> float:
    """The noise-free optimum of the cell's stationary reference problem,
    memoised on the fields that define it."""

    def search() -> float:
        reference = TrainingEnvironment(
            get_workload(cell.workload),
            homogeneous(cell.nodes),
            seed=cell.env_seed,
            objective_name=cell.objective,
        )
        _, value = estimate_optimum(
            reference, ml_config_space(cell.nodes), seed=cell.optimum_seed
        )
        return value

    key = (
        "sweep-optimum",
        cell.workload,
        cell.nodes,
        cell.objective,
        cell.env_seed,
        cell.optimum_seed,
    )
    return _memoised(key, search)


def run_sweep(
    cells: Sequence[SweepCell],
    seeds: Sequence[int],
    n_jobs: Optional[int] = 1,
) -> Dict[str, object]:
    """Run every cell over every seed and aggregate spread statistics.

    Returns a report: per cell the raw ``normalized_best`` values in seed
    order plus :func:`seed_spread_stats` over them, mean trial/cost
    accounting, and ``results`` — each seed's
    :class:`~repro.core.strategy.TuningResult`, for tables that need
    whole histories.  Everything but ``results`` is JSON-shaped.

    Session ``seed`` seeds both the strategy factory and the session; the
    environment keeps ``cell.env_seed`` across seeds, so a cell's seeds
    are repeats on one problem instance.  ``n_jobs`` fans the
    (cell × seed) sessions over fork workers (``None`` = one per CPU);
    results are identical to serial execution — each session is a pure
    function of (cell, seed) — so the knob is not part of the memo key,
    and neither is the cell's ``name``.
    """
    cells = list(cells)
    seeds = [int(s) for s in seeds]
    if not cells:
        raise ValueError("need at least one sweep cell")
    if not seeds:
        raise ValueError("need at least one seed")
    names = [cell.name for cell in cells]
    if len(set(names)) != len(names):
        raise ValueError("cell names must be unique")

    # Phase 1: noise-free optima, so every seed of a cell normalises
    # against the same anchor.  A drifting cell normalises against its
    # stationary (pre-drift) surface.
    optima = {cell.name: _optimum(cell) for cell in cells}

    # Phase 2: fan (cell × seed) sessions out, memoised per session.
    def job(cell: SweepCell, seed: int) -> dict:
        fields = asdict(cell)
        del fields["name"]
        key = ("sweep-session", tuple(sorted(fields.items())), seed)
        return _memoised(key, lambda: _session(cell, seed))

    payloads = run_cells(
        [
            (lambda cell=cell, seed=seed: job(cell, seed))
            for cell in cells
            for seed in seeds
        ],
        n_jobs=n_jobs,
    )

    report: Dict[str, object] = {
        "seeds": seeds,
        "n_cells": len(cells),
        "n_sessions": len(payloads),
        "cells": {},
    }
    for position, cell in enumerate(cells):
        results: List[TuningResult] = [
            _rebuilt(cell, payload)
            for payload in payloads[position * len(seeds) : (position + 1) * len(seeds)]
        ]
        values = [
            metrics.normalize_objective(result.best_objective, optima[cell.name])
            for result in results
        ]
        report["cells"][cell.name] = {
            "workload": cell.workload,
            "nodes": cell.nodes,
            "strategy": cell.strategy,
            "objective": cell.objective,
            "max_trials": cell.max_trials,
            "optimum_value": optima[cell.name],
            "values": values,
            "stats": seed_spread_stats(values),
            "mean_trials": float(np.mean([r.num_trials for r in results])),
            "mean_probe_hours": float(
                np.mean([r.total_cost_s for r in results]) / 3600.0
            ),
            "mean_wall_clock_hours": float(
                np.mean([r.total_wall_clock_s for r in results]) / 3600.0
            ),
            "results": results,
        }
    return report
