"""OtterTune-style baseline: GP tuning with workload mapping (SIGMOD'17).

OtterTune accelerates tuning of a new workload by *mapping* it onto the most
similar previously-tuned workload and seeding the surrogate with that
workload's observations.  The adaptation here:

1. a :class:`~repro.core.transfer.HistoryRepository` stores (config,
   objective) observations from past tuning sessions, keyed by workload
   name and read back normalised per session;
2. when tuning a new workload, the first few probes are *landmark*
   configurations that every repository entry has also measured;
3. similarity = Euclidean distance between normalised landmark responses;
4. the best-matching workload's observations are imported (rescaled to the
   target's observed range) as extra GP training data: synthetic
   ``"transfer"``-fidelity trials with zero probe cost, fitted like any
   other observation.

The warm-start ablation (A3) compares this against cold-start BO.

The repository/landmark/mapping machinery itself lives in
:mod:`repro.core.transfer` (the tuning service reuses it for persistent
cross-session warm starts); this module is the strategy-shaped shim over
it, behaviour-identical to when the code lived here.  Stored configs that
no longer fit the space are skipped by every step.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace
from repro.core.bo import BayesianProposer
from repro.core.transfer import (
    HistoryRepository,
    augment_history,
    landmark_set,
    map_workload,
)
from repro.core.strategy import SearchStrategy
from repro.core.trial import TrialHistory

__all__ = ["OtterTuneStyle"]

#: Landmark configurations probed first; their responses map the workload.
N_LANDMARKS = 4
#: Initial design size, landmarks included.
N_INITIAL = 6


class OtterTuneStyle(SearchStrategy):
    """GP tuning warm-started by workload mapping.

    The first :data:`N_LANDMARKS` probes are landmarks; the GP takes over
    after :data:`N_INITIAL` trials, at
    :class:`~repro.core.bo.BayesianProposer`'s default candidate count.
    """

    name = "ottertune"

    def __init__(
        self,
        repository: Optional[HistoryRepository] = None,
        seed: int = 0,
    ) -> None:
        self.repository = repository if repository is not None else HistoryRepository()
        self.seed = seed
        self._landmarks: Optional[List[ConfigDict]] = None
        self.mapped_workload: Optional[str] = None

    def reset(self) -> None:
        """Clear per-session state; the cross-session repository is kept."""
        self._landmarks = None
        self.mapped_workload = None

    # -- landmark probing and mapping ------------------------------------

    def _landmark_set(self, space: ConfigSpace) -> List[ConfigDict]:
        if self._landmarks is None:
            self._landmarks = landmark_set(space, N_LANDMARKS, self.seed)
        return self._landmarks

    def _map_workload(self, history: TrialHistory, space: ConfigSpace) -> None:
        """Pick the repository workload whose landmark responses match."""
        if self.mapped_workload is not None or not len(self.repository):
            return
        self.mapped_workload = map_workload(
            self.repository, history, space, N_LANDMARKS, self.seed
        )

    # -- proposals ---------------------------------------------------------

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> ConfigDict:
        landmarks = self._landmark_set(space)
        if len(history) < len(landmarks):
            return dict(landmarks[len(history)])
        self._map_workload(history, space)
        proposer = BayesianProposer(
            space,
            acquisition="ei",
            n_initial=max(2, N_INITIAL - len(landmarks)),
            seed=self.seed,
        )
        augmented = self._augment_history(history, space)
        return proposer.propose(augmented, rng)

    def _augment_history(
        self, history: TrialHistory, space: ConfigSpace
    ) -> TrialHistory:
        """History + rescaled observations from the mapped workload."""
        return augment_history(history, space, self.repository, self.mapped_workload)
