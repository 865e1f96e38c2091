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

#: Configurations entering each bracket.
BRACKET_SIZE = 9
#: Promotion factor: the top ``1/ETA`` of a rung advances, with
#: ``ETA``-times-longer probes.
ETA = 3
#: Probe length (iterations) at the lowest rung.
MIN_PROBE_ITERATIONS = 4


class SuccessiveHalving(SearchStrategy):
    """One successive-halving bracket, repeated until the budget runs out.

    Each bracket samples :data:`BRACKET_SIZE` configurations at
    :data:`MIN_PROBE_ITERATIONS` iterations and promotes the top ``1/ETA``
    (:data:`ETA`) of every rung to ``ETA``-times-longer probes.
    """

    name = "successive-halving"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        # Current rung: list of configs still to probe, the probe length,
        # and the (config, objective) results accumulated at this rung.
        self._pending: List[ConfigDict] = []
        self._rung_iterations = MIN_PROBE_ITERATIONS
        self._rung_results: List[Tuple[ConfigDict, Optional[float]]] = []
        self._rung_population = 0
        self._next_probe_iterations = MIN_PROBE_ITERATIONS

    def reset(self) -> None:
        self._pending = []
        self._rung_iterations = MIN_PROBE_ITERATIONS
        self._rung_results = []
        self._rung_population = 0
        self._next_probe_iterations = MIN_PROBE_ITERATIONS

    def _start_bracket(self, space: ConfigSpace, rng: np.random.Generator) -> None:
        self._pending = space.sample_batch(rng, BRACKET_SIZE)
        self._rung_iterations = MIN_PROBE_ITERATIONS
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
        keep = max(1, len(self._rung_results) // ETA)
        promoted = [config for config, _ in survivors[:keep]]
        self._pending = promoted
        self._rung_iterations *= ETA
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
