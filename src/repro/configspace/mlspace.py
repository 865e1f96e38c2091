"""The distributed-ML configuration space used throughout the evaluation.

This module binds the generic :class:`~repro.configspace.space.ConfigSpace`
machinery to the knobs of :class:`~repro.mlsim.config.TrainingConfig`, with
the cluster-size constraint that makes a large fraction of naive samples
infeasible (the tuner has to learn the feasible region's shape too).
"""

from __future__ import annotations

import numpy as np

from repro.configspace.params import (
    BoolParameter,
    CategoricalParameter,
    IntParameter,
)
from repro.configspace.space import ColumnBatch, ConfigDict, ConfigSpace
from repro.mlsim.config import TrainingConfig

#: Upper bounds of the log-scaled per-worker batch and staleness knobs and
#: of the intra-op thread count.
MAX_BATCH_PER_WORKER = 512
MAX_STALENESS = 16
MAX_CORES = 16

def _fits_cluster(total_nodes: int):
    def check(config: ConfigDict) -> bool:
        workers = config["num_workers"]
        if config["architecture"] == "allreduce":
            return workers <= total_nodes
        if config["colocate_ps"]:
            return max(config["num_ps"], workers) <= total_nodes
        return config["num_ps"] + workers <= total_nodes

    return check


def _fits_cluster_batch(total_nodes: int):
    """Vectorised twin of :func:`_fits_cluster` over a columns batch."""

    def check(columns: ColumnBatch) -> np.ndarray:
        workers = columns["num_workers"]
        num_ps = columns["num_ps"]
        allreduce = columns["architecture"] == "allreduce"
        colocated = np.asarray(columns["colocate_ps"], dtype=bool)
        ps_nodes = np.where(colocated, np.maximum(num_ps, workers), num_ps + workers)
        return np.where(allreduce, workers <= total_nodes, ps_nodes <= total_nodes)

    return check


def _staleness_meaningful(config: ConfigDict) -> bool:
    # SSP with bound 0 is just BSP; exclude the redundant encoding so the
    # space does not contain duplicate behaviours under different names.
    if config["sync_mode"] == "ssp":
        return config["staleness_bound"] >= 1
    return True


def _staleness_meaningful_batch(columns: ColumnBatch) -> np.ndarray:
    """Vectorised twin of :func:`_staleness_meaningful`."""
    return (columns["sync_mode"] != "ssp") | (columns["staleness_bound"] >= 1)


def ml_config_space(total_nodes: int, include_allreduce: bool = True) -> ConfigSpace:
    """The standard 9-knob space for a cluster of ``total_nodes`` machines.

    Matches the table-1 configuration space: architecture, parallelism
    degrees, placement, synchronisation, batch size, threading, and
    gradient transport precision.  The gradient-compression and
    input-pipeline fields of :class:`TrainingConfig` stay at their
    defaults.
    """
    if total_nodes < 2:
        raise ValueError("need at least 2 nodes to distribute training")
    parameters = [
        CategoricalParameter("architecture", ["ps", "allreduce"]),
        IntParameter("num_workers", 1, total_nodes),
        IntParameter("num_ps", 1, max(1, total_nodes - 1)),
        BoolParameter("colocate_ps"),
        CategoricalParameter("sync_mode", ["bsp", "asp", "ssp"]),
        IntParameter("staleness_bound", 1, MAX_STALENESS, log=True),
        IntParameter("batch_per_worker", 1, MAX_BATCH_PER_WORKER, log=True),
        IntParameter("intra_op_threads", 0, MAX_CORES),
        CategoricalParameter("gradient_precision", ["fp32", "fp16"]),
    ]
    constraints = {
        "fits_cluster": _fits_cluster(total_nodes),
        "staleness_meaningful": _staleness_meaningful,
    }
    batch_constraints = {
        "fits_cluster": _fits_cluster_batch(total_nodes),
        "staleness_meaningful": _staleness_meaningful_batch,
    }
    if not include_allreduce:
        constraints["ps_only"] = lambda config: config["architecture"] == "ps"
        batch_constraints["ps_only"] = (
            lambda columns: np.asarray(columns["architecture"] == "ps", dtype=bool)
        )
    return ConfigSpace(parameters, constraints, batch_constraints=batch_constraints)


def to_training_config(config: ConfigDict) -> TrainingConfig:
    """Typed-dict view → the simulator's :class:`TrainingConfig`."""
    return TrainingConfig.from_dict(config).canonical()


def from_training_config(config: TrainingConfig) -> ConfigDict:
    """Inverse of :func:`to_training_config`."""
    values = config.canonical().to_dict()
    # The canonical form zeroes staleness for non-SSP modes, but the space
    # requires staleness_bound >= 1; park it at 1 (it is inert there).
    if values["sync_mode"] != "ssp":
        values["staleness_bound"] = max(1, values["staleness_bound"])
    return values
