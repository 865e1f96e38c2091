"""Successive-halving / Hyperband-style multi-fidelity baseline.

Successive halving spreads its budget over many configurations at low
fidelity (short probes) and promotes only the top ``1/eta`` fraction to
longer probes.  It is the principled version of the early-termination idea
the paper's tuner uses, but model-free: no surrogate guides which
configurations enter a bracket.

The implementation drives the shared :class:`SearchStrategy` loop: each
proposal carries the probe length its rung dictates (via
:meth:`SearchStrategy.measure` overridden to pass ``probe_iterations``),
and rung promotion happens in :meth:`observe` once a rung's results are in.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.configspace import ConfigDict, ConfigSpace, to_training_config
from repro.core.strategy import SearchStrategy
from repro.core.trial import TrialHistory
from repro.mlsim import Measurement, TrainingEnvironment


class SuccessiveHalving(SearchStrategy):
    """One successive-halving bracket, repeated until the budget runs out.

    Parameters
    ----------
    bracket_size:
        Configurations entering each bracket.
    eta:
        Promotion factor: the top ``1/eta`` of a rung advances, with
        ``eta``-times-longer probes.
    min_probe_iterations:
        Probe length at the lowest rung.
    """

    name = "successive-halving"

    def __init__(
        self,
        bracket_size: int = 9,
        eta: int = 3,
        min_probe_iterations: int = 4,
        seed: int = 0,
    ) -> None:
        if bracket_size < 2:
            raise ValueError("bracket_size must be >= 2")
        if eta < 2:
            raise ValueError("eta must be >= 2")
        if min_probe_iterations < 2:
            raise ValueError("min_probe_iterations must be >= 2")
        self.bracket_size = bracket_size
        self.eta = eta
        self.min_probe_iterations = min_probe_iterations
        self.seed = seed
        # Current rung: list of configs still to probe, the probe length,
        # and the (config, objective) results accumulated at this rung.
        self._pending: List[ConfigDict] = []
        self._rung_iterations = min_probe_iterations
        self._rung_results: List[Tuple[ConfigDict, Optional[float]]] = []
        self._rung_population = 0
        self._next_probe_iterations = min_probe_iterations

    def reset(self) -> None:
        self._pending = []
        self._rung_iterations = self.min_probe_iterations
        self._rung_results = []
        self._rung_population = 0
        self._next_probe_iterations = self.min_probe_iterations

    def _start_bracket(self, space: ConfigSpace, rng: np.random.Generator) -> None:
        self._pending = space.sample_batch(rng, self.bracket_size)
        self._rung_iterations = self.min_probe_iterations
        self._rung_results = []
        self._rung_population = len(self._pending)

    def _promote(self) -> None:
        """Advance the top 1/eta of the completed rung to the next one."""
        survivors = [
            (config, objective)
            for config, objective in self._rung_results
            if objective is not None
        ]
        survivors.sort(key=lambda pair: -pair[1])
        keep = max(1, len(self._rung_results) // self.eta)
        promoted = [config for config, _ in survivors[:keep]]
        self._pending = promoted
        self._rung_iterations *= self.eta
        self._rung_results = []
        self._rung_population = len(promoted)

    def propose(
        self,
        history: TrialHistory,
        space: ConfigSpace,
        rng: np.random.Generator,
        pending: Sequence[ConfigDict] = (),
        shard=None,
    ) -> Optional[ConfigDict]:
        """One member of the current rung, or ``None`` at a rung boundary.

        Promotion must see the *whole* rung: once every member is launched
        but rung-mates are still in flight, the strategy waits (returns
        ``None``) instead of promoting on partial results — which would
        also push the in-flight members' old-fidelity objectives into the
        next rung's result set.  While the rung still has unlaunched
        members they launch freely; they all share one probe length.  A
        barrier round therefore stays within one rung: it comes back short
        at a rung boundary instead of probing later members at the next
        rung's fidelity.
        """
        if not self._pending:
            if pending:
                return None
            if self._rung_results and self._rung_population > 1:
                self._promote()
            if not self._pending:  # bracket finished (or all crashed)
                self._start_bracket(space, rng)
        self._next_probe_iterations = self._rung_iterations
        return self._pending.pop(0)

    def measure(self, env: TrainingEnvironment, config: ConfigDict) -> Measurement:
        iterations = max(2, min(self._next_probe_iterations, 4 * env.probe_iterations))
        return env.measure(
            to_training_config(config), probe_iterations=iterations
        )

    def observe(self, trial) -> None:
        self._rung_results.append(
            (trial.config, trial.objective if trial.ok else None)
        )
