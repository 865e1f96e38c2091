"""Grid search over a coarsened configuration space.

The classic systems-tuning baseline: enumerate a per-knob grid and sweep
it.  The grid order is shuffled once (seeded) — plain lexicographic order
would spend the whole budget in one corner of the space, which makes grid
search look artificially bad under small budgets; shuffling is the fair
variant used in the tuning literature.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace
from repro.core.strategy import SearchStrategy
from repro.core.trial import TrialHistory

#: Grid points per knob (see :meth:`ConfigSpace.grid`).
RESOLUTION = 3


class GridSearch(SearchStrategy):
    """Shuffled sweep of the Cartesian product of per-knob grids.

    Each knob's grid has :data:`RESOLUTION` points.
    """

    name = "grid"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._points: Optional[List[ConfigDict]] = None
        self._cursor = 0

    def reset(self) -> None:
        self._points = None
        self._cursor = 0

    def _materialise(self, space: ConfigSpace) -> None:
        points = list(space.grid(RESOLUTION))
        order = np.random.default_rng(self.seed).permutation(len(points))
        self._points = [points[i] for i in order]
        self._cursor = 0

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> Optional[ConfigDict]:
        """The next grid point, or ``None`` once the grid is exhausted.

        A launch never pads past the end of the grid with random samples:
        a barrier round just comes back short and the session stops at
        exhaustion.  The cursor already moved past ``pending``.
        """
        if self._points is None:
            self._materialise(space)
        if self._cursor >= len(self._points):
            return None
        point = self._points[self._cursor]
        self._cursor += 1
        return point

    def finished(self, history: TrialHistory, space: ConfigSpace) -> bool:
        if self._points is None:
            return False
        return self._cursor >= len(self._points)
