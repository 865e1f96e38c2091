"""Constant-liar proposals — the BO side of parallel and async probing.

When a cluster has spare machines, a tuner can probe several
configurations concurrently.  Naively asking the acquisition for its top-k
candidates returns k near-duplicates; the standard fix is the *constant
liar*: propose one point, pretend it returned the incumbent value (the
"lie"), refit, and propose the next — k times.  The lies force diversity
because the fantasised observation kills the acquisition around each
already-chosen point.

This module is the proposal half of the session/executor architecture in
:mod:`repro.core.session`, whose one execution engine asks for every
launch through one hook, :meth:`SearchStrategy.propose_async` →
:func:`propose_async`, fantasising over the configurations still in
flight:

- the barrier-free drain (:class:`~repro.core.session.AsyncExecutor`, and
  :class:`~repro.core.session.SerialExecutor` with nothing in flight)
  asks once per freed slot, with the probes running on the other slots
  pending;
- the round barrier (:class:`~repro.core.session.ParallelExecutor`) asks
  once per round member, with the round's earlier members pending — so
  member m of a round is the constant liar's m-th point.

The fantasy lies about the objective *and* the probe cost (a zero cost
would poison a cost-aware proposer's cost surrogate), and its
:class:`~repro.mlsim.Measurement` carries the fantasy's own typed
configuration, so consumers reading ``measurement.config`` (cost models,
importance analysis, logs) see the knob values that were actually
fantasised.

Each fantasy is an *append* to the working history, which is exactly the
case the proposer's persistent surrogate fast-paths: the k proposals of a
constant-liar round extend one cached Cholesky factor in O(n^2) apiece
(:meth:`~repro.core.gp.GaussianProcess.extend`) instead of refitting k
surrogates from scratch, and because fantasies carry the ``"fantasy"``
fidelity they never advance the proposer's hyperparameter-refit cadence —
a round costs at most one refit, not k (see :mod:`repro.core.bo`).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.configspace import ConfigDict, to_training_config
from repro.core.bo import BayesianProposer
from repro.core.trial import TrialHistory
from repro.mlsim import Measurement

#: Probe-cost lie used when the history records no probe at all (or only
#: zero-cost ones): one simulated minute — any positive value keeps the
#: log-cost surrogate finite; real costs replace it after the first probe.
DEFAULT_COST_LIE_S = 60.0


def _fantasy_lies(history: TrialHistory) -> Tuple[Optional[float], float]:
    """The (objective lie, probe-cost lie) pair for fantasy trials.

    The objective lie is the incumbent (the best observed objective).
    With no successful trial the objective lie is ``None`` — the fantasy
    is then recorded as a *failed* probe.  Any constant (0.0 included)
    would fabricate an objective scale the history does not contain; for
    negated objectives like time-to-accuracy, 0.0 would be *better* than
    every feasible value, attracting the acquisition toward the in-flight
    points instead of away from them.

    The cost lie falls back in order: median cost over successful probes;
    then median over *all* recorded probes (failed probes still burned
    machine time, so an all-failed history is evidence about cost, not an
    excuse for a zero-cost fantasy); then :data:`DEFAULT_COST_LIE_S`.
    Every step requires a *positive* median — a zero-cost fantasy is the
    surrogate poisoning the lie exists to avoid.
    """
    successes = history.successful()
    lie_value = max(t.objective for t in successes) if successes else None
    cost_lie = 0.0
    for pool in (successes, history.trials):
        costs = [t.measurement.probe_cost_s for t in pool]
        if costs:
            cost_lie = float(np.median(costs))
        if cost_lie > 0.0:
            return lie_value, cost_lie
    return lie_value, DEFAULT_COST_LIE_S


def _append_fantasy(
    extended: TrialHistory,
    config: ConfigDict,
    lie_value: Optional[float],
    cost_lie: float,
) -> None:
    """Record one fantasy trial for ``config`` on the working history.

    A ``None`` lie (no successful trial to lie about) records the fantasy
    as a failed probe: it still documents that machine time is committed
    at ``config`` without fabricating an objective value.
    """
    extended.record(
        config,
        Measurement(
            config=to_training_config(config),
            ok=lie_value is not None,
            fidelity="fantasy",
            objective=lie_value,
            probe_cost_s=cost_lie,
        ),
    )


def propose_async(
    proposer: BayesianProposer,
    history: TrialHistory,
    pending: Sequence[ConfigDict],
    rng: np.random.Generator,
    cost_scale: float = 1.0,
    shard_weight: Optional[float] = None,
) -> ConfigDict:
    """Propose one configuration conditioned on in-flight probes.

    The launch needs exactly one point, but ``pending`` configurations are
    already committed — probing on other workers, or proposed earlier in
    the same barrier round — and fantasising those as constant-liar
    observations steers the acquisition away from them.  With no pending
    probes this is a plain sequential proposal.

    Each fantasy lies with the incumbent value (the constant liar —
    conservative, strongly diversifying).  One metadata-preserving working
    copy of the history is built per call (:meth:`TrialHistory.clone`), so
    the replayed trials keep their round and wall-clock stamps.

    ``cost_scale`` scales the probe-cost lie to the target shard's probe
    speed when the session fans across a heterogeneous
    :class:`~repro.core.fleet.EnvironmentPool` (a fantasy on a 1.5x shard
    commits 1.5x the median machine seconds); ``shard_weight`` is
    forwarded to the proposer so a shard-conditioned cost surrogate can
    predict probe cost *at the target shard* (see
    :class:`~repro.core.bo.BayesianProposer`).  Deliberate
    approximation: every pending fantasy is priced at the *target*
    shard's scale, not at the shard each in-flight probe (or earlier
    round member) actually occupies — the strategy-facing ``pending``
    contract carries configurations only.  With the shard cost feature
    on, the fantasy rows are encoded at the same target weight, so the
    surrogate's weight→cost relationship stays internally consistent.
    """
    if cost_scale <= 0:
        raise ValueError(f"cost_scale must be positive, got {cost_scale!r}")
    if not pending:
        return proposer.propose(history, rng, shard_weight=shard_weight)
    lie_value, cost_lie = _fantasy_lies(history)
    extended = history.clone()
    for config in pending:
        _append_fantasy(extended, config, lie_value, cost_lie * cost_scale)
    return proposer.propose(extended, rng, shard_weight=shard_weight)

