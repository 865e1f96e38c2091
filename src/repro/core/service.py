"""Tuning-as-a-service: N tenant sessions multiplexed over one fleet.

PRs 1–6 made one :class:`~repro.core.session.TuningSession` fast across a
sharded fleet; this module inverts the architecture for the "millions of
users" direction — many concurrent tenant sessions sharing fixed fleet
capacity, each warm-started from prior tunings of similar workloads:

- :class:`ShardTemplate` describes the fleet's *shape* (shard names,
  capacities, cost multipliers, and how to build a tenant's environment
  on each shard); the service owns the aggregate slot count.
- :class:`TenantSpec` is one tenant's request: a strategy factory, a
  budget, a seed, a guaranteed slot count (``slots``), an optional
  elastic ceiling (``max_slots``), a fair-share ``weight``, and the
  workload being tuned (the warm-start key).
- :class:`TuningService` performs **admission control** (a tenant
  demanding more slots than the fleet has is rejected with
  :class:`AdmissionError`; aggregate oversubscription queues instead),
  schedules admitted tenants by **virtual time** (always stepping the
  tenant whose session clock is furthest behind, so simulated
  wall-clocks interleave exactly as N real concurrent sessions would),
  and enforces capacity through **leases**
  (:meth:`~repro.core.fleet.EnvironmentPool.set_lease`): each scheduling
  round recomputes a weighted fair-share allocation — every active
  tenant's guarantee first, then spare slots handed work-conservingly to
  the most weight-underserved tenants, never past a tenant's ceiling —
  and caps each tenant's pool at its share.
- Completed sessions are recorded into a persistent
  :class:`~repro.core.transfer.HistoryRepository`; a new tenant's
  workload fingerprint is matched to the nearest prior workload and a
  :class:`~repro.core.transfer.TransferPrior` is installed as the
  strategy's surrogate prior mean
  (:class:`~repro.core.gp.PriorMeanGP`), so tenant N+1's posterior starts
  from the repository instead of from flat.

Isolation and determinism
-------------------------
Each tenant gets a *private* :class:`~repro.core.fleet.EnvironmentPool`:
its own environment instances (seeded from the tenant seed), its own
scheduler instance, and RNG streams derived from its own seed — the fleet
templates are replicated per tenant, modelling each tenant's probes
running in its own reserved slice of the shared fleet.  Physical slot
*contention* is modelled purely through the lease widths (whose sum never
exceeds the fleet's capacity), not through shard-level mutual exclusion
between tenants — two tenants may hold leases covering the same template
concurrently, which is exact for capacity accounting and wall-clock
simulation but deliberately does not model per-slot queueing noise.  The
payoff is hard isolation: one tenant's cost-cap cancellation, failure, or
scheduling order cannot perturb another tenant's RNG streams or
accounting, and a tenant whose width is *pinned* (``max_slots`` equal to
``slots``) produces a bit-identical trajectory whether it runs alongside
other tenants or alone (:meth:`TuningService.run_standalone` — the
regression anchor ``tests/test_service.py`` pins).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.configspace import ConfigSpace
from repro.core.checkpoint import CheckpointConfig
from repro.core.fleet import EnvironmentPool, EnvironmentShard
from repro.core.session import (
    AsyncExecutor,
    SerialExecutor,
    SessionCallback,
    TuningSession,
)
from repro.core.strategy import SearchStrategy, TuningBudget, TuningResult
from repro.core.transfer import (
    HistoryRepository,
    build_prior,
    workload_fingerprint,
)


# A warm-started strategy's initial design is trimmed to this many probes
# (a tenant starting from an informative prior needs fewer space-filling
# probes; never below the proposer's floor of 2).
WARM_N_INITIAL = 4
# Restarts per tenant before a crash is surfaced as a real failure: a
# deterministic strategy bug would otherwise crash again at the same trial
# forever.
MAX_RECOVERIES = 1


class AdmissionError(RuntimeError):
    """A tenant the service refuses to admit (over-capacity or invalid)."""


@dataclass(frozen=True)
class ShardTemplate:
    """One shard of the fleet's shape, replicated per tenant.

    ``env_factory(spec, shard_index)`` builds the tenant's environment for
    this shard; for replayable service runs it must be a pure function of
    the tenant spec and the shard index (derive environment seeds from
    ``spec.seed`` and ``shard_index``, never from global state).
    """

    name: str
    env_factory: Callable[["TenantSpec", int], object]
    capacity: int = 1
    cost_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("shard template name must be non-empty")
        if self.capacity < 1:
            raise ValueError(f"shard template {self.name!r}: capacity must be >= 1")
        if self.cost_multiplier <= 0:
            raise ValueError(
                f"shard template {self.name!r}: cost_multiplier must be positive"
            )


def training_shard_templates(
    nodes: int = 16,
    cost_multipliers: Sequence[float] = (1.0,),
    capacities: Optional[Sequence[int]] = None,
    node_type: str = "std-cpu",
    transient_failure_rate: float = 0.0,
    drift=None,
) -> List[ShardTemplate]:
    """Standard fleet templates over simulated training clusters.

    One template per entry of ``cost_multipliers``; each builds a
    :class:`~repro.mlsim.TrainingEnvironment` for the tenant's *own*
    workload (``spec.workload`` is required) on a homogeneous
    ``nodes``-node cluster, seeded from the tenant seed and shard index.
    ``transient_failure_rate`` and ``drift`` (a
    :class:`~repro.mlsim.DriftSchedule`) are forwarded to every built
    environment; the defaults keep the stationary, failure-free fleet.
    """
    from repro.cluster import homogeneous
    from repro.mlsim import TrainingEnvironment

    if capacities is None:
        capacities = [1] * len(cost_multipliers)
    if len(capacities) != len(cost_multipliers):
        raise ValueError("capacities and cost_multipliers must have equal length")

    def factory(spec: "TenantSpec", shard_index: int):
        if spec.workload is None:
            raise ValueError(
                f"tenant {spec.name!r} has no workload; training_shard_templates "
                "builds environments from spec.workload"
            )
        return TrainingEnvironment(
            spec.workload,
            homogeneous(nodes, node_type),
            seed=spec.seed + shard_index,
            transient_failure_rate=transient_failure_rate,
            drift=drift,
        )

    return [
        ShardTemplate(
            name=f"shard{i}",
            env_factory=factory,
            capacity=int(capacity),
            cost_multiplier=float(multiplier),
        )
        for i, (multiplier, capacity) in enumerate(zip(cost_multipliers, capacities))
    ]


#: The values ``TenantSpec.executor_mode`` accepts.
TENANT_EXECUTOR_MODES = ("async", "serial")


@dataclass
class TenantSpec:
    """One tenant's tuning request.

    ``slots`` is the guaranteed width (admission reserves it);
    ``max_slots`` the elastic ceiling idle-slot reclaim may grow the
    tenant to (``None`` pins the width at ``slots`` — the configuration
    whose trajectory is bit-identical to running alone).  ``weight``
    biases how spare slots are shared among elastic tenants.
    """

    name: str
    strategy_factory: Callable[[], SearchStrategy]
    budget: TuningBudget
    seed: int = 0
    weight: float = 1.0
    slots: int = 1
    max_slots: Optional[int] = None
    workload: Optional[object] = None
    executor_mode: str = "async"
    callbacks: Sequence[SessionCallback] = ()
    #: Zero-argument callable returning a fresh per-session callback —
    #: typically a :class:`~repro.core.detect.ChangePointDetector` — so
    #: each (re)built session gets its own detector state rather than
    #: sharing one stateful instance across tenants.
    detector_factory: Optional[Callable[[], SessionCallback]] = None

    @property
    def ceiling(self) -> int:
        return self.slots if self.max_slots is None else self.max_slots


class TenantHandle:
    """The service's live record of one submitted tenant.

    ``state`` walks ``queued`` → ``active`` → ``done`` (or ``failed``).
    ``started_at`` / ``finished_at`` are service virtual times (seconds on
    the shared simulated clock); ``lease`` is the tenant's current
    fair-share slot allocation; ``warm`` / ``mapped_from`` describe the
    repository warm start, if one was installed.
    """

    def __init__(self, spec: TenantSpec, order: int) -> None:
        self.spec = spec
        self.order = order
        self.state = "queued"
        self.session: Optional[TuningSession] = None
        self.strategy: Optional[SearchStrategy] = None
        self.pool: Optional[EnvironmentPool] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result: Optional[TuningResult] = None
        self.error: Optional[BaseException] = None
        self.lease: int = 0
        self.warm = False
        self.mapped_from: Optional[str] = None
        #: Times this tenant was restarted from its checkpoint.
        self.recoveries: int = 0
        #: Snapshot path when the service checkpoints per tenant.
        self.checkpoint_path: Optional[str] = None
        # Warm-start prior stash: recovery must rebuild the strategy with
        # the *originally built* prior — the repository may have gained
        # sessions since, and a different prior would diverge the replay.
        self._prior_built = False
        self._stashed_prior = None

    @property
    def history(self):
        """The tenant session's live trial history (None before start)."""
        return None if self.session is None else self.session.history

    @property
    def virtual_now(self) -> float:
        """The tenant's position on the service's virtual clock."""
        if self.started_at is None:
            return 0.0
        wall = 0.0 if self.history is None else self.history.total_wall_clock_s
        return self.started_at + wall


@dataclass
class ServiceResult:
    """Outcome of one :meth:`TuningService.run` drain."""

    tenants: List[TenantHandle]
    makespan_s: float

    @property
    def completed(self) -> List[TenantHandle]:
        return [handle for handle in self.tenants if handle.state == "done"]

    @property
    def failed(self) -> List[TenantHandle]:
        return [handle for handle in self.tenants if handle.state == "failed"]

    def sessions_per_hour(self) -> float:
        """Completed sessions per hour of fleet virtual time."""
        if not self.completed or self.makespan_s <= 0:
            return 0.0
        return len(self.completed) / (self.makespan_s / 3600.0)


def _trim_initial_design(target) -> None:
    """Trim a warm-started strategy's initial design to :data:`WARM_N_INITIAL`."""
    if hasattr(target, "n_initial"):
        target.n_initial = max(2, min(target.n_initial, WARM_N_INITIAL))


class TuningService:
    """Multiplexes N tenant tuning sessions over one fleet's capacity.

    Parameters
    ----------
    templates:
        The fleet shape (:class:`ShardTemplate` per shard); the aggregate
        capacity is the sum of template capacities.
    space:
        The configuration space every tenant searches.
    repository:
        Optional persistent :class:`~repro.core.transfer.HistoryRepository`.
        When set, each completed tenant's real (non-fantasy) successes are
        recorded into it, keyed by workload name and fingerprint, and new
        tenants are warm-started from their nearest prior workload.
    warm_start:
        Warm-start switch; a warm-started strategy's initial design is
        trimmed to :data:`WARM_N_INITIAL`.
    checkpoint_dir:
        When set, every tenant session checkpoints to
        ``<dir>/<tenant>.ckpt`` (see :mod:`repro.core.checkpoint`), and a
        tenant whose session *crashes* mid-run is restarted from its last
        checkpoint instead of being marked failed: its strategy is
        rebuilt with the originally-installed warm-start prior, its
        session replays the durable probe prefix (bit-identical, no
        machine time re-spent), its fleet lease is re-acquired at the
        next scheduling round, and every neighbouring tenant is
        unperturbed (private pools and RNG streams mean the interleaving
        order cannot leak across tenants).  At most
        :data:`MAX_RECOVERIES` restarts per tenant.
    """

    def __init__(
        self,
        templates: Sequence[ShardTemplate],
        space: ConfigSpace,
        repository: Optional[HistoryRepository] = None,
        warm_start: bool = True,
        checkpoint_dir: Optional[str] = None,
    ) -> None:
        templates = list(templates)
        if not templates:
            raise ValueError("service needs at least one shard template")
        names = [template.name for template in templates]
        if len(set(names)) != len(names):
            raise ValueError(f"shard template names must be unique, got {names}")
        self.templates = templates
        self.space = space
        self.repository = repository
        self.warm_start = warm_start
        self.checkpoint_dir = checkpoint_dir
        self.total_capacity = sum(template.capacity for template in templates)
        self._handles: List[TenantHandle] = []
        self._clock = 0.0

    # -- admission ---------------------------------------------------------

    def submit(self, spec: TenantSpec) -> TenantHandle:
        """Admit a tenant (queued until capacity frees) or reject it.

        Rejection (:class:`AdmissionError`) is immediate and clean: a
        tenant whose *guarantee* cannot ever be met (more slots than the
        fleet has) or an invalid spec.
        Aggregate oversubscription is not a rejection — the tenant queues
        and activates when enough guaranteed slots free up.
        """
        if not spec.name:
            raise AdmissionError("tenant name must be non-empty")
        if any(handle.spec.name == spec.name for handle in self._handles):
            raise AdmissionError(f"tenant name {spec.name!r} already submitted")
        if spec.slots < 1:
            raise AdmissionError(f"tenant {spec.name!r}: slots must be >= 1")
        if spec.ceiling < spec.slots:
            raise AdmissionError(
                f"tenant {spec.name!r}: max_slots ({spec.max_slots}) is below "
                f"the guaranteed slots ({spec.slots})"
            )
        if spec.slots > self.total_capacity:
            raise AdmissionError(
                f"tenant {spec.name!r} rejected: demands {spec.slots} guaranteed "
                f"slots but the fleet has {self.total_capacity}"
            )
        if spec.weight <= 0:
            raise AdmissionError(f"tenant {spec.name!r}: weight must be positive")
        if spec.executor_mode not in TENANT_EXECUTOR_MODES:
            raise AdmissionError(
                f"tenant {spec.name!r}: executor_mode must be one of "
                f"{TENANT_EXECUTOR_MODES}, got {spec.executor_mode!r}"
            )
        handle = TenantHandle(spec, order=len(self._handles))
        self._handles.append(handle)
        return handle

    # -- tenant construction ----------------------------------------------

    def _build_strategy(self, handle: TenantHandle) -> SearchStrategy:
        """The tenant's strategy, warm-started from the repository if possible.

        The built prior (or the decision not to build one) is stashed on
        the handle: a recovery rebuild reuses the stash verbatim rather
        than querying the repository again — neighbours may have finished
        sessions in the meantime, and a different prior would diverge the
        checkpoint replay.
        """
        spec = handle.spec
        strategy = spec.strategy_factory()
        # Wrappers (e.g. StoppedStrategy) hold the real tuner as .inner;
        # warm-start the innermost strategy that accepts a prior mean.
        target = strategy
        while not hasattr(target, "prior_mean") and hasattr(target, "inner"):
            target = target.inner
        if handle._prior_built:
            prior = handle._stashed_prior
            if prior is None or not hasattr(target, "prior_mean"):
                return strategy
            target.prior_mean = prior
            _trim_initial_design(target)
            return strategy
        handle._prior_built = True
        if (
            self.repository is None
            or not self.warm_start
            or spec.workload is None
            or not hasattr(target, "prior_mean")
            or len(self.repository) == 0
        ):
            return strategy
        fingerprint = workload_fingerprint(spec.workload)
        source = self.repository.nearest(fingerprint)
        if source is None:
            return strategy
        prior = build_prior(self.repository, source, self.space, seed=spec.seed)
        if prior is None:
            return strategy
        target.prior_mean = prior
        _trim_initial_design(target)
        handle.warm = True
        handle.mapped_from = source
        handle._stashed_prior = prior
        return strategy

    def _build_pool(self, spec: TenantSpec) -> EnvironmentPool:
        """The tenant's private fleet view: fresh envs, round-robin
        scheduler, RNGs."""
        shards = [
            EnvironmentShard(
                template.name,
                template.env_factory(spec, index),
                capacity=template.capacity,
                cost_multiplier=template.cost_multiplier,
            )
            for index, template in enumerate(self.templates)
        ]
        return EnvironmentPool(shards)

    def _tenant_checkpoint(self, spec: TenantSpec) -> Optional[CheckpointConfig]:
        if self.checkpoint_dir is None:
            return None
        safe = re.sub(r"[^A-Za-z0-9._-]", "_", spec.name)
        return CheckpointConfig(os.path.join(self.checkpoint_dir, f"{safe}.ckpt"))

    def _build_session(
        self,
        handle: TenantHandle,
        checkpointed: bool = True,
        resume: bool = False,
    ) -> TuningSession:
        spec = handle.spec
        handle.strategy = self._build_strategy(handle)
        handle.pool = self._build_pool(spec)
        if spec.executor_mode == "serial":
            executor = SerialExecutor(pool=handle.pool)
        else:
            executor = AsyncExecutor(pool=handle.pool)
        callbacks = list(spec.callbacks)
        if spec.detector_factory is not None:
            callbacks.append(spec.detector_factory())
        session = TuningSession(handle.strategy, executor=executor, callbacks=callbacks)
        handle.session = session
        checkpoint = self._tenant_checkpoint(spec) if checkpointed else None
        if checkpoint is not None:
            handle.checkpoint_path = checkpoint.path
        if resume:
            if checkpoint is None:
                raise ValueError("resume requires a checkpoint_dir")
            session.restore(checkpoint, None, self.space)
        else:
            session.start(
                None, self.space, spec.budget, seed=spec.seed, checkpoint=checkpoint
            )
        return session

    # -- fair-share allocation --------------------------------------------

    def _allocation(self, active: Sequence[TenantHandle]) -> Dict[TenantHandle, int]:
        """Weighted fair-share slot widths for the active tenants.

        Invariants (pinned by ``tests/test_service.py``): every tenant
        gets at least its guarantee and at most its ceiling; the sum never
        exceeds the fleet capacity; spare slots are reclaimed
        work-conservingly — they stay idle only when every tenant is at
        its ceiling.  Spare slots go one at a time to the tenant with the
        highest weight-per-held-slot ratio (ties: earliest admission), a
        deterministic proportional-fairness rule.
        """
        allocation = {handle: handle.spec.slots for handle in active}
        spare = self.total_capacity - sum(allocation.values())
        while spare > 0:
            wanting = [
                handle for handle in active if allocation[handle] < handle.spec.ceiling
            ]
            if not wanting:
                break
            pick = max(
                wanting,
                key=lambda h: (h.spec.weight / (allocation[h] + 1), -h.order),
            )
            allocation[pick] += 1
            spare -= 1
        return allocation

    # -- the scheduling loop ----------------------------------------------

    def _active(self) -> List[TenantHandle]:
        return [handle for handle in self._handles if handle.state == "active"]

    def _activate_ready(self) -> None:
        """Start queued tenants whose guarantees fit the free capacity."""
        reserved = sum(handle.spec.slots for handle in self._active())
        for handle in self._handles:
            if handle.state != "queued":
                continue
            if reserved + handle.spec.slots > self.total_capacity:
                continue
            self._build_session(handle)
            handle.state = "active"
            handle.started_at = self._clock
            reserved += handle.spec.slots

    def _finalize(self, handle: TenantHandle) -> None:
        result = handle.session.finish()
        handle.result = result
        handle.finished_at = handle.started_at + result.history.total_wall_clock_s
        handle.state = "done"
        handle.pool.set_lease(0)
        self._clock = max(self._clock, handle.finished_at)
        self._record(handle, result)

    def _fail(self, handle: TenantHandle, error: BaseException) -> None:
        handle.error = error
        handle.state = "failed"
        handle.finished_at = handle.virtual_now
        handle.pool.set_lease(0)
        self._clock = max(self._clock, handle.finished_at)

    def _try_recover(self, handle: TenantHandle, error: BaseException) -> bool:
        """Restart a crashed tenant from its checkpoint, if possible.

        Returns True when the tenant is live again (state stays
        ``active``; the next scheduling round re-grants its lease).  The
        rebuilt session's history replaces the crashed one, so the service
        ledger (:attr:`recorded_cost_by_shard`) drops the crashed trials
        and counts the replayed ones once.
        """
        if self.checkpoint_dir is None or handle.recoveries >= MAX_RECOVERIES:
            return False
        path = handle.checkpoint_path
        if path is None or not os.path.exists(path + ".wal"):
            return False
        old_session, old_strategy, old_pool = (
            handle.session,
            handle.strategy,
            handle.pool,
        )
        try:
            self._build_session(handle, resume=True)
        except Exception:  # noqa: BLE001 - surface the original crash instead
            handle.session = old_session
            handle.strategy = old_strategy
            handle.pool = old_pool
            return False
        handle.recoveries += 1
        return True

    def _record(self, handle: TenantHandle, result: TuningResult) -> None:
        spec = handle.spec
        if self.repository is None or spec.workload is None:
            return
        observations = [
            (trial.config, trial.objective)
            for trial in result.history.successful()
            if trial.measurement.fidelity not in ("fantasy", "transfer")
        ]
        if len(observations) < 2:
            return
        self.repository.add_session(
            spec.workload.name,
            observations,
            fingerprint=workload_fingerprint(spec.workload),
            metadata={
                "tenant": spec.name,
                "seed": spec.seed,
                "trials": len(observations),
                "best_objective": result.best_objective,
                "warm": handle.warm,
                "mapped_from": handle.mapped_from,
            },
        )

    def run(self) -> ServiceResult:
        """Drain every submitted tenant and return the service outcome.

        The loop always steps the active tenant furthest behind on the
        virtual clock (ties: earliest admission), recomputing fair-share
        leases whenever the active set changes — the deterministic
        simulated equivalent of N concurrent sessions sharing the fleet.
        One tenant's failure marks it ``failed`` and frees its slots; the
        other tenants are untouched.
        """
        self._activate_ready()
        active = self._active()
        while active:
            allocation = self._allocation(active)
            for handle, width in allocation.items():
                handle.lease = width
                handle.pool.set_lease(width)
            handle = min(active, key=lambda h: (h.virtual_now, h.order))
            try:
                progressed = handle.session.step()
            except Exception as error:  # noqa: BLE001 - tenant isolation boundary
                if self._try_recover(handle, error):
                    # The tenant restarts from its checkpoint: history
                    # rebuilds from zero, so its virtual time is minimal
                    # and the scheduler fast-forwards it through the
                    # (free) replay before touching the other tenants.
                    active = self._active()
                    continue
                self._fail(handle, error)
                self._activate_ready()
                active = self._active()
                continue
            if not progressed:
                self._finalize(handle)
                self._activate_ready()
            active = self._active()
        done_times = [
            handle.finished_at
            for handle in self._handles
            if handle.finished_at is not None
        ]
        return ServiceResult(
            tenants=list(self._handles),
            makespan_s=max(done_times) if done_times else 0.0,
        )

    def run_standalone(self, spec: TenantSpec) -> TuningResult:
        """Run one tenant alone on the fleet (the isolation baseline).

        Builds exactly the pieces :meth:`submit` + :meth:`run` would build
        for this spec — same strategy factory, warm-start lookup against
        the repository's *current* state, private pool, executor, seed —
        and runs the session to completion at the allocation the tenant
        would receive with no contention (its ceiling, capped by the
        fleet).  A pinned-width tenant's concurrent trajectory is
        bit-identical to this baseline; nothing is recorded into the
        repository or the service ledger, and no checkpoint is written.
        """
        handle = TenantHandle(spec, order=-1)
        session = self._build_session(handle, checkpointed=False)
        handle.pool.set_lease(min(spec.ceiling, self.total_capacity))
        while session.step():
            pass
        return session.finish()

    # -- accounting --------------------------------------------------------

    def cost_by_shard(self) -> Dict[Optional[str], float]:
        """Machine seconds per shard name, aggregated over every tenant.

        Tenant histories itemise recorded *and* cancelled probe cost per
        shard, so the per-shard sums always equal the pool-level totals —
        the accounting invariant ``tests/test_service.py`` pins against
        :attr:`recorded_cost_by_shard` plus cancellations.
        """
        totals: Dict[Optional[str], float] = {}
        for handle in self._handles:
            history = handle.history
            if history is None:
                continue
            for shard, cost in history.cost_by_shard().items():
                totals[shard] = totals.get(shard, 0.0) + float(cost)
        return totals

    def total_cost_s(self) -> float:
        """Machine seconds across every tenant (recorded + cancelled)."""
        return sum(
            handle.history.total_cost_s
            for handle in self._handles
            if handle.history is not None
        )

    @property
    def recorded_cost_by_shard(self) -> Dict[Optional[str], float]:
        """*Recorded* probe cost per shard over every tenant (no cancellations).

        The per-shard sum of each recorded trial's ``probe_cost_s`` in the
        tenants' live histories.
        """
        totals: Dict[Optional[str], float] = {}
        for handle in self._handles:
            history = handle.history
            if history is None:
                continue
            for trial in history:
                cost = float(trial.measurement.probe_cost_s)
                totals[trial.shard] = totals.get(trial.shard, 0.0) + cost
        return totals
