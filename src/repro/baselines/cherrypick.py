"""CherryPick-style Bayesian optimisation baseline (Alipourfard et al., NSDI'17).

CherryPick tunes cloud configurations with a plain-EI GP and a confidence-
based stopping rule: stop once the best candidate's expected improvement
falls below a fraction of the incumbent.  Compared to the paper's tuner it
lacks the cost-aware acquisition and early termination — exactly the deltas
the ablations isolate.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace
from repro.core.bo import BayesianProposer
from repro.core.strategy import SearchStrategy
from repro.core.trial import TrialHistory


class CherryPick(SearchStrategy):
    """GP + plain EI + EI-threshold stopping, no early termination.

    The GP machinery is :class:`~repro.core.bo.BayesianProposer`'s.
    """

    name = "cherrypick"

    def __init__(
        self,
        n_initial: int = 8,
        ei_stop_fraction: float = 0.02,
        min_trials: int = 12,
        n_candidates: int = 512,
        sparse_threshold: Optional[int] = 512,
        max_inducing: int = 256,
        prior_mean=None,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= ei_stop_fraction < 1.0:
            raise ValueError("ei_stop_fraction must be in [0, 1)")
        self.n_initial = n_initial
        self.ei_stop_fraction = ei_stop_fraction
        self.min_trials = min_trials
        self.n_candidates = n_candidates
        self.sparse_threshold = sparse_threshold
        self.max_inducing = max_inducing
        self.prior_mean = prior_mean
        self.seed = seed
        self._proposer: Optional[BayesianProposer] = None
        self._stopped = False

    def reset(self) -> None:
        self._proposer = None
        self._stopped = False

    def _ensure_proposer(self, space: ConfigSpace) -> BayesianProposer:
        if self._proposer is None or self._proposer.space is not space:
            self._proposer = BayesianProposer(
                space,
                acquisition="ei",
                n_initial=self.n_initial,
                n_candidates=self.n_candidates,
                sparse_threshold=self.sparse_threshold,
                max_inducing=self.max_inducing,
                prior_mean=self.prior_mean,
                seed=self.seed,
            )
        return self._proposer

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> ConfigDict:
        """Constant-liar single proposal over in-flight probes.

        The EI-threshold check runs on the fantasy-extended fit, so an
        asynchronous session converges on the same signal as a serial one.
        On a fleet, the fantasies lie with the target shard's probe speed.
        """
        config = self._ensure_proposer(space).propose(
            history, rng, pending=pending, shard=shard
        )
        self._maybe_stop(history)
        return config

    def _maybe_stop(self, history: TrialHistory) -> None:
        """Set the stop flag from the latest fit's EI-threshold verdict.

        The flag is assigned, not latched: a barrier round proposes each
        member in turn, and its verdict is the last member's fit — the
        fit conditioned on every round-mate.  Serial and asynchronous
        sessions never propose again once the flag is set.
        """
        diagnostics = self._proposer.last_fit_diagnostics
        incumbent = diagnostics.get("incumbent")
        acq = diagnostics.get("acquisition_value")
        self._stopped = (
            len(history) >= self.min_trials
            and incumbent is not None
            and acq is not None
            and incumbent != 0
            and acq < self.ei_stop_fraction * abs(incumbent)
        )

    def finished(self, history: TrialHistory, space: ConfigSpace) -> bool:
        return self._stopped
