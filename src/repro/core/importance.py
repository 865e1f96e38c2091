"""Knob-importance analysis from the tuner's fitted surrogate.

A fitted ARD kernel assigns each unit-cube dimension a lengthscale: short
lengthscales mean the objective changes quickly along that dimension, i.e.
the knob *matters*.  Aggregating inverse lengthscales per knob (summing the
one-hot dimensions of categoricals) gives the per-workload importance
profile the paper-style analysis reports: `num_ps` dominates for
communication-bound models, `num_workers`/`batch` for compute-bound ones.

This is the light-weight cousin of fANOVA; it reuses the surrogate the
tuner already maintains, so it is free at the end of a tuning session.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.configspace import ConfigSpace
from repro.core.gp import GaussianProcess, GPFitError
from repro.core.kernels import Matern52
from repro.core.trial import TrialHistory


def fit_surrogate(
    history: TrialHistory, space: ConfigSpace, seed: int = 0
) -> GaussianProcess:
    """Fit a fresh ARD surrogate to a tuning session's successful trials."""
    successes = history.successful()
    if len(successes) < 4:
        raise GPFitError(
            f"need at least 4 successful trials for importance analysis, "
            f"have {len(successes)}"
        )
    x = np.array([space.encode(t.config) for t in successes])
    y = np.array([t.objective for t in successes])
    return GaussianProcess(kernel=Matern52(space.dims), seed=seed).fit(x, y)


def knob_importance(
    history: TrialHistory,
    space: ConfigSpace,
    seed: int = 0,
) -> Dict[str, float]:
    """Normalised importance per knob (sums to 1.0).

    Importance of a unit-cube dimension is its inverse lengthscale; a
    knob's importance is the sum over its dimensions (one for numeric and
    boolean knobs, one per choice for categoricals).
    """
    surrogate = fit_surrogate(history, space, seed=seed)
    inverse = 1.0 / np.asarray(surrogate.kernel.lengthscales, dtype=float)
    importance: Dict[str, float] = {}
    offset = 0
    for param in space.parameters:
        importance[param.name] = float(np.sum(inverse[offset:offset + param.dims]))
        offset += param.dims
    total = sum(importance.values())
    if total <= 0:
        raise GPFitError("degenerate lengthscales: importance undefined")
    return {name: value / total for name, value in importance.items()}
