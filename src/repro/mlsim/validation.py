"""Systematic cross-validation of the analytic model against the event sim.

The benchmark sweeps run on the fast analytic fidelity; the discrete-event
simulator is the reference.  For the headline conclusions (who wins, by
how much, where crossovers fall) to transfer, the analytic model must
(a) stay within a bounded throughput ratio of the event simulator, and
(b) *rank* configurations the same way.

:func:`cross_validate` measures both over a random sample of feasible
configurations and reports per-config ratios, the aggregate error, and the
rank correlation — the data behind validation experiment V1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.cluster import ClusterSpec
from repro.mlsim.config import TrainingConfig
from repro.mlsim.environment import TrainingEnvironment
from repro.workloads import Workload

# NOTE: repro.configspace depends on repro.mlsim.config, so importing it at
# module level from inside the mlsim package would be circular; it is
# imported lazily inside cross_validate() instead.

#: Training iterations per probe under both fidelities.
PROBE_ITERATIONS = 20


@dataclass(frozen=True)
class FidelityPoint:
    """One configuration measured under both fidelities."""

    config: TrainingConfig
    analytic_throughput: float
    event_throughput: float

    @property
    def ratio(self) -> float:
        """event / analytic throughput (1.0 = perfect agreement)."""
        if self.analytic_throughput <= 0:
            return float("inf")
        return self.event_throughput / self.analytic_throughput


@dataclass
class ValidationReport:
    """Aggregate agreement between the two fidelities."""

    points: List[FidelityPoint]
    mean_abs_log_ratio: float
    worst_ratio: float
    best_ratio: float
    rank_correlation: float

    def summary_row(self, workload_name: str) -> list:
        """Row for the V1 table."""
        return [
            workload_name,
            len(self.points),
            float(np.exp(self.mean_abs_log_ratio)),
            self.best_ratio,
            self.worst_ratio,
            self.rank_correlation,
        ]


def _spearman(a: np.ndarray, b: np.ndarray) -> float:
    """Spearman rank correlation without scipy.stats dependency drift."""
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt(np.sum(ra * ra) * np.sum(rb * rb))
    if denom == 0:
        return 1.0
    return float(np.sum(ra * rb) / denom)


def cross_validate(
    workload: Workload,
    cluster: ClusterSpec,
    num_configs: int = 20,
    seed: int = 0,
) -> ValidationReport:
    """Measure ``num_configs`` random feasible configs under both fidelities.

    Configurations are drawn from the cluster's full
    :func:`~repro.configspace.ml_config_space`; each probe runs
    :data:`PROBE_ITERATIONS` iterations.

    Noise is disabled so any disagreement is model error, not sampling
    error.  Returns a :class:`ValidationReport`.
    """
    from repro.configspace import ml_config_space, to_training_config

    if num_configs < 3:
        raise ValueError("num_configs must be >= 3 for a meaningful report")
    space = ml_config_space(cluster.total_nodes)
    rng = np.random.default_rng(seed)

    analytic_env = TrainingEnvironment(
        workload, cluster, seed=seed, fidelity="analytic", noise_cv=0.0,
        probe_iterations=PROBE_ITERATIONS,
    )
    event_env = TrainingEnvironment(
        workload, cluster, seed=seed, fidelity="event", noise_cv=0.0,
        probe_iterations=PROBE_ITERATIONS,
    )

    points: List[FidelityPoint] = []
    attempts = 0
    while len(points) < num_configs and attempts < 50 * num_configs:
        attempts += 1
        config = to_training_config(space.sample(rng))
        analytic = analytic_env.measure(config)
        if not analytic.ok:
            continue
        event = event_env.measure(config)
        if not event.ok:
            continue
        points.append(
            FidelityPoint(
                config=config,
                analytic_throughput=analytic.throughput,
                event_throughput=event.throughput,
            )
        )
    if len(points) < num_configs:
        raise RuntimeError(
            f"could not find {num_configs} feasible configs "
            f"(got {len(points)} after {attempts} attempts)"
        )

    log_ratios = np.array([np.log(p.ratio) for p in points])
    analytic = np.array([p.analytic_throughput for p in points])
    event = np.array([p.event_throughput for p in points])
    return ValidationReport(
        points=points,
        mean_abs_log_ratio=float(np.mean(np.abs(log_ratios))),
        worst_ratio=float(np.exp(log_ratios.max())),
        best_ratio=float(np.exp(log_ratios.min())),
        rank_correlation=_spearman(analytic, event),
    )
