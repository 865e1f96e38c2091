"""Tree-structured Parzen Estimator (TPE) baseline, Bergstra et al. style.

TPE models ``p(x | good)`` and ``p(x | bad)`` instead of ``p(y | x)``:
observations are split at a quantile ``gamma`` of the objective, kernel
density estimates are built over each group in the unit-cube encoding, and
candidates maximise the density ratio ``l(x) / g(x)`` — which is monotone
in expected improvement under TPE's assumptions.

It is the canonical alternative to GP-based BO (hyperopt popularised it for
hyperparameter search) and provides a model-based comparator that handles
conditional/categorical structure without a GP.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace
from repro.core.strategy import SearchStrategy
from repro.core.trial import TrialHistory


def _kde_log_density(
    points: np.ndarray, queries: np.ndarray, bandwidth: float
) -> np.ndarray:
    """Log density of a Gaussian KDE with shared isotropic bandwidth.

    Computed stably via log-sum-exp; inputs live in the unit cube so a
    single bandwidth across dimensions is reasonable.
    """
    if points.shape[0] == 0:
        # No observations: uniform (constant) density.
        return np.zeros(queries.shape[0])
    diffs = queries[:, None, :] - points[None, :, :]  # (q, n, d)
    sq = np.sum(diffs * diffs, axis=2) / (2.0 * bandwidth**2)
    d = points.shape[1]
    log_norm = -0.5 * d * np.log(2.0 * np.pi * bandwidth**2)
    log_kernels = log_norm - sq  # (q, n)
    peak = log_kernels.max(axis=1, keepdims=True)
    return (
        peak.squeeze(1)
        + np.log(np.mean(np.exp(log_kernels - peak), axis=1))
    )


class TPE(SearchStrategy):
    """Parzen-estimator tuner over the unit-cube encoding.

    Parameters
    ----------
    gamma:
        Fraction of observations labelled "good".
    n_startup:
        Random trials before the density model activates.
    n_candidates:
        Candidates drawn per proposal; best ``l/g`` ratio wins.
    bandwidth:
        KDE bandwidth in the unit cube.
    """

    name = "tpe"

    def __init__(
        self,
        gamma: float = 0.25,
        n_startup: int = 8,
        n_candidates: int = 256,
        bandwidth: float = 0.12,
        seed: int = 0,
    ) -> None:
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if n_startup < 2:
            raise ValueError("n_startup must be >= 2")
        if n_candidates < 8:
            raise ValueError("n_candidates must be >= 8")
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        self.gamma = gamma
        self.n_startup = n_startup
        self.n_candidates = n_candidates
        self.bandwidth = bandwidth
        self.seed = seed

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> ConfigDict:
        successes = history.successful()
        if len(successes) < self.n_startup:
            return space.sample(rng)

        objectives = np.array([t.objective for t in successes])
        encoded = np.array([space.encode(t.config) for t in successes])
        n_good = max(1, int(np.ceil(self.gamma * len(successes))))
        order = np.argsort(-objectives)  # descending: best first
        good = encoded[order[:n_good]]
        bad = encoded[order[n_good:]]
        # Failed trials are evidence for the "bad" density.
        failures = history.failed()
        if failures:
            bad_failures = np.array([space.encode(t.config) for t in failures])
            bad = np.vstack([bad, bad_failures]) if bad.size else bad_failures

        candidates = space.sample_batch(rng, self.n_candidates)
        queries = np.array([space.encode(c) for c in candidates])
        log_l = _kde_log_density(good, queries, self.bandwidth)
        log_g = _kde_log_density(bad, queries, self.bandwidth)
        return candidates[int(np.argmax(log_l - log_g))]
