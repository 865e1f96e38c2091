"""Constant-liar proposals — the BO side of parallel and async probing.

When a cluster has spare machines, a tuner can probe several
configurations concurrently.  Naively asking the acquisition for its top-k
candidates returns k near-duplicates; the standard fix is the *constant
liar*: propose one point, pretend it returned the incumbent value (the
"lie"), refit, and propose the next — k times.  The lies force diversity
because the fantasised observation kills the acquisition around each
already-chosen point.

This module is the proposal half of the session/executor architecture in
:mod:`repro.core.session`, whose one execution engine asks for proposals
in two ways:

- the round barrier (:class:`~repro.core.session.ParallelExecutor`)
  requests a whole round via :meth:`SearchStrategy.propose_batch` →
  :func:`propose_batch`;
- the barrier-free drain (:class:`~repro.core.session.AsyncExecutor`, and
  :class:`~repro.core.session.SerialExecutor` with nothing in flight)
  requests one point per freed slot via
  :meth:`SearchStrategy.propose_async` → :func:`propose_async`,
  fantasising over the configurations still in flight on the other slots.

Both paths share the same lie computation (:func:`_fantasy_lies`) and
fantasy construction: the fantasy lies about the objective *and* the probe
cost (a zero cost would poison a cost-aware proposer's cost surrogate),
and its :class:`~repro.mlsim.Measurement` carries the fantasy's own typed
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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.configspace import ConfigDict, to_training_config
from repro.core.bo import BayesianProposer
from repro.core.trial import TrialHistory
from repro.mlsim import Measurement

#: Probe-cost lie used when the history records no probe at all (or only
#: zero-cost ones): one simulated minute — any positive value keeps the
#: log-cost surrogate finite; real costs replace it after the first probe.
DEFAULT_COST_LIE_S = 60.0


def _fantasy_lies(history: TrialHistory, lie: str) -> Tuple[Optional[float], float]:
    """The (objective lie, probe-cost lie) pair for fantasy trials.

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
    if successes:
        values = [t.objective for t in successes]
        lie_value: Optional[float] = (
            max(values) if lie == "incumbent" else float(np.mean(values))
        )
    else:
        lie_value = None
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
    shard: Optional[str] = None,
) -> None:
    """Record one fantasy trial for ``config`` on the working history.

    A ``None`` lie (no successful trial to lie about) records the fantasy
    as a failed probe: it still documents that machine time is committed
    at ``config`` without fabricating an objective value.

    ``shard`` stamps the fantasy with the shard the probe will occupy, so
    a shard-conditioned cost surrogate encodes the (shard-scaled) cost lie
    at that shard's own weight — the batch path's fantasies can then carry
    *different* shards within one round, which the single target-weight
    fallback (:meth:`BayesianProposer._row_weight`) cannot express.  The
    stamp lives only on the cloned working history, so per-shard cost
    itemisation never sees a fantasy.
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
        shard=shard,
    )


def propose_batch(
    proposer: BayesianProposer,
    history: TrialHistory,
    rng: np.random.Generator,
    batch_size: int,
    lie: str = "incumbent",
    shards: Optional[Sequence] = None,
) -> List[ConfigDict]:
    """Propose ``batch_size`` diverse configurations for parallel probing.

    ``lie`` selects the fantasy value: ``"incumbent"`` (the constant liar —
    conservative, strongly diversifying) or ``"mean"`` (the mean of
    observed objectives — milder).

    ``shards`` carries the round's shard assignments (one
    :class:`~repro.core.fleet.ShardDescriptor` or ``None`` per member, in
    batch order) when the round fans across a heterogeneous pool.  Each
    member's proposal then scores candidates at its own shard's
    ``cost_multiplier``, and its fantasy commits the probe-cost lie scaled
    to that shard's speed and stamped with the shard name — so the round
    is no longer shard-blind: a member bound for a 1.5x shard lies about
    1.5x the machine seconds, at the right weight in a shard-conditioned
    cost surrogate.

    One metadata-preserving working copy of the history is built per call
    (:meth:`TrialHistory.clone`) and fantasies are appended to it
    incrementally — O(n + k) bookkeeping per round rather than the O(k·n)
    full replay a per-fantasy rebuild would cost, and the replayed trials
    keep their round/wall-clock stamps.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if lie not in ("incumbent", "mean"):
        raise ValueError(f"lie must be 'incumbent' or 'mean', got {lie!r}")
    if shards is not None and len(shards) < batch_size:
        raise ValueError(
            f"shards has {len(shards)} entries for a batch of {batch_size}"
        )

    lie_value, cost_lie = _fantasy_lies(history, lie)
    extended = history.clone()
    batch: List[ConfigDict] = []
    for member in range(batch_size):
        shard = shards[member] if shards is not None else None
        if shard is None:
            config = proposer.propose(extended, rng)
            _append_fantasy(extended, config, lie_value, cost_lie)
        else:
            config = proposer.propose(
                extended, rng, shard_weight=shard.cost_multiplier
            )
            _append_fantasy(
                extended,
                config,
                lie_value,
                cost_lie * shard.cost_multiplier,
                shard=shard.name,
            )
        batch.append(config)
    return batch


def propose_async(
    proposer: BayesianProposer,
    history: TrialHistory,
    pending: Sequence[ConfigDict],
    rng: np.random.Generator,
    lie: str = "incumbent",
    cost_scale: float = 1.0,
    shard_weight: Optional[float] = None,
) -> ConfigDict:
    """Propose one configuration conditioned on in-flight probes.

    The asynchronous analogue of :func:`propose_batch`: the worker that
    just freed up needs exactly one point, but the other workers are still
    probing ``pending`` — fantasising those as constant-liar observations
    steers the acquisition away from points already being evaluated.  With
    no pending probes this is a plain sequential proposal.

    ``cost_scale`` scales the probe-cost lie to the target shard's probe
    speed when the session fans across a heterogeneous
    :class:`~repro.core.fleet.EnvironmentPool` (a fantasy on a 1.5x shard
    commits 1.5x the median machine seconds); ``shard_weight`` is
    forwarded to the proposer so a shard-conditioned cost surrogate can
    predict probe cost *at the target shard* (see
    :class:`~repro.core.bo.BayesianProposer`).  Deliberate
    approximation: every pending fantasy is priced at the *target*
    shard's scale, not at the shard each in-flight probe actually
    occupies (the strategy-facing ``pending`` contract carries
    configurations only) — with the shard cost feature on, the fantasy
    rows are encoded at the same target weight, so the surrogate's
    weight→cost relationship stays internally consistent.
    """
    if lie not in ("incumbent", "mean"):
        raise ValueError(f"lie must be 'incumbent' or 'mean', got {lie!r}")
    if cost_scale <= 0:
        raise ValueError(f"cost_scale must be positive, got {cost_scale!r}")
    if not pending:
        return proposer.propose(history, rng, shard_weight=shard_weight)
    lie_value, cost_lie = _fantasy_lies(history, lie)
    extended = history.clone()
    for config in pending:
        _append_fantasy(extended, config, lie_value, cost_lie * cost_scale)
    return proposer.propose(extended, rng, shard_weight=shard_weight)

