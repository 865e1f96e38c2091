"""Environment pools: fan one tuning session across a fleet of clusters.

The shard/scheduler/pool contract
---------------------------------
A single :class:`~repro.mlsim.TrainingEnvironment` models tuning against
one cluster.  Production tuning rarely has that luxury or that limit: the
probing fleet is a *pool* of simulated clusters — replicas of the target
deployment that differ in probe speed (older hardware, contended tenancy,
cheaper spot capacity) and in how many probes each can host at once.  This
module makes "which cluster runs a probe" a first-class dimension of the
session/executor stack:

- :class:`EnvironmentShard` — one named member of the fleet: a training
  environment, a ``capacity`` (concurrent probe slots), and a
  ``cost_multiplier`` scaling the wall-clock/machine seconds a probe takes
  there relative to the pool baseline (2.0 = a replica that runs the same
  probe twice as slowly; the *measurement* itself is unchanged — the shard
  is a replica of the target cluster, only its probe speed differs).
  Shards built over genuinely different :class:`~repro.cluster.ClusterSpec`s
  are allowed too; their measurements then reflect their own hardware.
- :class:`ShardScheduler` — the pluggable placement policy: given the
  pool's current occupancy, pick the shard that hosts the next probe.
  :class:`RoundRobinScheduler` cycles the fleet deterministically,
  :class:`LeastLoadedScheduler` fills the emptiest shard, and
  :class:`CheapestEligibleScheduler` prefers the lowest
  ``cost_multiplier`` among shards with a free slot.
- :class:`EnvironmentPool` — the fleet itself: the shard list, a
  scheduler and slot occupancy (``acquire``/``release``).  The three
  stock schedulers are deterministic, so a fleet replays bit-identically
  per session seed.

Executors (:mod:`repro.core.session`) own the clock: they ask the
scheduler for a shard, occupy one of its slots, run the probe through
:meth:`EnvironmentShard.measure`, and record the trial with
``Trial.shard`` set — per-shard machine-cost itemisation then falls out of
:meth:`repro.core.trial.TrialHistory.cost_by_shard`.  Strategies see the
target shard as a :class:`ShardDescriptor` through
:meth:`~repro.core.strategy.SearchStrategy.propose`, which is how
constant-liar fantasies lie with shard-specific probe cost.

``pool=None`` everywhere keeps the single-environment semantics
bit-identical to the pre-fleet code; a pool of N shards sharing one
environment instance at cost multiplier 1.0, run serially, reproduces the
single-environment trial sequence exactly, whatever the shard rotation —
the regression anchor ``tests/test_fleet.py`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class OutageWindow:
    """One scheduled shard outage: down on ``[start_s, end_s)`` virtual time.

    Probes in flight on the shard when the window opens are *preempted*
    (the executor bills the burned wall-clock via
    :meth:`~repro.core.trial.TrialHistory.charge_cancelled` and retries or
    redirects); new launches are refused while the window is open
    (:meth:`EnvironmentPool.free_slots` reports zero).
    """

    shard: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if not self.shard:
            raise ValueError("outage shard name must be non-empty")
        if self.start_s < 0 or self.end_s <= self.start_s:
            raise ValueError("need 0 <= start_s < end_s")


class FailureInjector:
    """Scheduled shard failures, keyed (like drift) by virtual time.

    Holds :class:`OutageWindow`s and answers pure time queries — no
    mutable state, so same-seed sessions replay the same failures
    bit-identically.  Attached to a pool via
    ``EnvironmentPool(..., injector=...)``; ``None`` keeps every code path
    identical to the failure-free fleet.
    """

    def __init__(self, outages: Sequence[OutageWindow] = ()) -> None:
        self._outages: Dict[str, List[OutageWindow]] = {}
        for window in outages:
            self._outages.setdefault(window.shard, []).append(window)
        for windows in self._outages.values():
            windows.sort(key=lambda w: w.start_s)

    @property
    def outages(self) -> Tuple[OutageWindow, ...]:
        return tuple(w for windows in self._outages.values() for w in windows)

    def is_down(self, name: str, t: float) -> bool:
        """Whether the shard is inside an outage window at ``t``."""
        return any(
            w.start_s <= t < w.end_s for w in self._outages.get(name, ())
        )

    def up_after(self, name: str, t: float) -> float:
        """The earliest time >= ``t`` at which the shard is up.

        Chained windows (the next opening exactly when one closes) are
        walked through; returns ``t`` itself when the shard is up.
        """
        t = float(t)
        for window in self._outages.get(name, ()):
            if window.start_s <= t < window.end_s:
                t = window.end_s
        return t

    def preemption_at(
        self, name: str, start_s: float, end_s: float
    ) -> Optional[float]:
        """When an outage would kill a probe running on ``[start_s, end_s)``.

        Returns the first outage start strictly inside the interval, or
        ``start_s`` if the shard was already down at launch time (a probe
        must never run through a window); ``None`` when the probe
        completes undisturbed.
        """
        if self.is_down(name, start_s):
            return float(start_s)
        best: Optional[float] = None
        for window in self._outages.get(name, ()):
            if start_s < window.start_s < end_s:
                if best is None or window.start_s < best:
                    best = window.start_s
        return best

    def describe(self) -> Dict[str, object]:
        return {
            "outages": [
                {"shard": w.shard, "start_s": w.start_s, "end_s": w.end_s}
                for w in self.outages
            ],
        }


def parse_outage_spec(text: str) -> List[OutageWindow]:
    """Parse a CLI ``--outage`` string into outage windows.

    Grammar: semicolon-separated per-shard entries, each
    ``SHARD:START-END[,START-END...]`` in virtual seconds — e.g.
    ``"shard0:3600-7200;shard2:1000-1500,9000-9900"``.
    """
    windows: List[OutageWindow] = []
    for raw_entry in text.split(";"):
        entry = raw_entry.strip()
        if not entry:
            continue
        shard, sep, body = entry.partition(":")
        shard = shard.strip()
        if not sep or not shard:
            raise ValueError(
                f"bad outage entry {entry!r}: expected SHARD:START-END[,...]"
            )
        for span in body.split(","):
            span = span.strip()
            if not span:
                continue
            start_text, dash, end_text = span.partition("-")
            try:
                start_s, end_s = float(start_text), float(end_text)
            except ValueError:
                raise ValueError(
                    f"bad outage span {span!r} in {entry!r}: expected START-END"
                ) from None
            windows.append(OutageWindow(shard=shard, start_s=start_s, end_s=end_s))
    if not windows:
        raise ValueError("outage spec describes no windows")
    return windows


@dataclass(frozen=True)
class ShardDescriptor:
    """What a strategy is told about the shard its next probe will run on.

    ``cost_multiplier`` is the shard's relative probe duration (1.0 = pool
    baseline): a constant-liar fantasy for an in-flight probe on this
    shard should lie with the median probe cost *scaled by this factor*,
    and a cost-aware surrogate can condition on it as an input feature.
    """

    name: str
    index: int
    capacity: int
    cost_multiplier: float


class EnvironmentShard:
    """One named member of the probing fleet.

    Parameters
    ----------
    name:
        Unique shard identifier (appears on ``Trial.shard`` and in logs).
    env:
        The shard's :class:`~repro.mlsim.TrainingEnvironment`.  Several
        shards may share one environment instance (a homogeneous pool over
        the same simulated cluster — the seed-identical configuration).
    capacity:
        Concurrent probe slots this shard offers.
    cost_multiplier:
        Relative probe duration on this shard (see module docstring), a
        finite positive number.  Applied to ``Measurement.probe_cost_s``;
        the measured objective is untouched.
    """

    def __init__(
        self,
        name: str,
        env,
        capacity: int = 1,
        cost_multiplier: float = 1.0,
    ) -> None:
        if not name:
            raise ValueError("shard name must be non-empty")
        if capacity < 1:
            raise ValueError(f"shard {name!r}: capacity must be >= 1")
        if not (np.isfinite(cost_multiplier) and cost_multiplier > 0):
            raise ValueError(
                f"shard {name!r}: cost_multiplier must be positive and finite, "
                f"got {cost_multiplier!r}"
            )
        self.name = name
        self.env = env
        self.capacity = capacity
        self.cost_multiplier = cost_multiplier
        self.index = -1  # assigned by the pool
        self.descriptor: Optional[ShardDescriptor] = None  # assigned by the pool

    def measure(self, strategy, config):
        """Run one probe of ``config`` on this shard via the strategy's gate.

        The strategy's :meth:`~repro.core.strategy.SearchStrategy.measure`
        hook runs against the shard's environment (early-termination gates
        keep working per probe); the returned measurement's probe cost is
        then scaled by the shard's ``cost_multiplier`` — the same job
        simply takes longer on a slower replica.
        """
        measurement = strategy.measure(self.env, config)
        if self.cost_multiplier != 1.0:
            measurement = dc_replace(
                measurement,
                probe_cost_s=measurement.probe_cost_s * self.cost_multiplier,
            )
        return measurement


class ShardScheduler:
    """Placement policy: which shard hosts the next probe.

    :meth:`select` must return a shard that currently has a free slot, or
    ``None`` when the whole pool is saturated — and must be *pure*: an
    executor may select without launching (a budget gate or the strategy
    can decline after the choice), so rotation state only advances through
    :meth:`notify_launch`, which the pool fires from
    :meth:`EnvironmentPool.acquire` when a launch actually commits.
    :meth:`reset` is called at session start so a reused scheduler replays
    deterministically.
    """

    def reset(self, pool: "EnvironmentPool") -> None:
        """Hook: clear per-session state."""

    def notify_launch(self, pool: "EnvironmentPool", shard: EnvironmentShard) -> None:
        """Hook: a probe was actually placed on ``shard``."""

    def select(self, pool: "EnvironmentPool") -> Optional[EnvironmentShard]:
        raise NotImplementedError


class RoundRobinScheduler(ShardScheduler):
    """Cycle the shard list deterministically, skipping saturated shards.

    The cursor advances only on committed launches (``notify_launch``), so
    declined selections — a strategy waiting at a rung boundary, a budget
    gate closing — do not drift the rotation.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def reset(self, pool: "EnvironmentPool") -> None:
        self._cursor = 0

    def notify_launch(self, pool: "EnvironmentPool", shard: EnvironmentShard) -> None:
        self._cursor = (shard.index + 1) % len(pool.shards)

    def select(self, pool: "EnvironmentPool") -> Optional[EnvironmentShard]:
        shards = pool.shards
        for offset in range(len(shards)):
            shard = shards[(self._cursor + offset) % len(shards)]
            if pool.free_slots(shard.name) > 0:
                return shard
        return None


class LeastLoadedScheduler(ShardScheduler):
    """Fill the shard with the lowest occupied fraction (ties: lowest index).

    Load is occupied slots over capacity, so a half-full 8-slot shard
    (load 0.5, four slots free) loses to an empty 1-slot shard (load 0).
    """

    def select(self, pool: "EnvironmentPool") -> Optional[EnvironmentShard]:
        eligible = [s for s in pool.shards if pool.free_slots(s.name) > 0]
        if not eligible:
            return None
        return min(eligible, key=lambda s: (pool.busy(s.name) / s.capacity, s.index))


class CheapestEligibleScheduler(ShardScheduler):
    """Prefer the lowest ``cost_multiplier`` among shards with a free slot.

    The cost-aware policy: when the fleet mixes fast and slow replicas,
    probes land on the fastest (cheapest per probe) shard that is not
    already saturated, spilling onto progressively slower shards only when
    the cheap ones are busy.  Ties break by shard index.
    """

    def select(self, pool: "EnvironmentPool") -> Optional[EnvironmentShard]:
        eligible = [s for s in pool.shards if pool.free_slots(s.name) > 0]
        if not eligible:
            return None
        return min(eligible, key=lambda s: (s.cost_multiplier, s.index))


SCHEDULERS = {
    "roundrobin": RoundRobinScheduler,
    "least-loaded": LeastLoadedScheduler,
    "cheapest": CheapestEligibleScheduler,
}


def make_scheduler(name: str) -> ShardScheduler:
    """A scheduler instance by name (CLI surface)."""
    if name not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {name!r}; valid schedulers: {sorted(SCHEDULERS)}"
        )
    return SCHEDULERS[name]()


class EnvironmentPool:
    """A fleet of environment shards plus the scheduler that places probes.

    The pool owns slot occupancy (executors ``acquire``/``release`` around
    each probe); executors own the clock and the per-slot timelines.
    :meth:`reset` restores the pool to a session-start state: occupancy
    cleared, scheduler reset, and each distinct
    environment's probe counters rewound so a reused pool replays
    identical measurement-noise streams: its sessions compare like the
    fleet cells of :func:`~repro.harness.sweep.run_sweep`, which build a
    fresh pool per session.
    """

    def __init__(
        self,
        shards: Sequence[EnvironmentShard],
        scheduler: Optional[ShardScheduler] = None,
        injector: Optional[FailureInjector] = None,
    ) -> None:
        shards = list(shards)
        if not shards:
            raise ValueError("pool must have at least one shard")
        names = [shard.name for shard in shards]
        if len(set(names)) != len(names):
            raise ValueError(f"shard names must be unique, got {names}")
        self.shards: List[EnvironmentShard] = shards
        for index, shard in enumerate(shards):
            shard.index = index
            shard.descriptor = ShardDescriptor(
                name=shard.name,
                index=index,
                capacity=shard.capacity,
                cost_multiplier=shard.cost_multiplier,
            )
        self.scheduler = scheduler if scheduler is not None else RoundRobinScheduler()
        self._by_name = {shard.name: shard for shard in shards}
        self._busy: Dict[str, int] = {name: 0 for name in names}
        self._lease_width: Optional[int] = None
        self.injector = injector
        if injector is not None:
            known = set(names)
            for window in injector.outages:
                if window.shard not in known:
                    raise ValueError(
                        f"injector references unknown shard {window.shard!r}"
                    )
        # Virtual clock the injector is evaluated at; executors stamp it
        # with the session wall-clock.  Inert while ``injector is None``.
        self.clock_s = 0.0
        self.reset()

    # -- occupancy ---------------------------------------------------------

    @property
    def total_capacity(self) -> int:
        """Concurrent probe slots across the whole fleet."""
        return sum(shard.capacity for shard in self.shards)

    def shard(self, name: str) -> EnvironmentShard:
        return self._by_name[name]

    def busy(self, name: str) -> int:
        """Occupied slots on a shard."""
        return self._busy[name]

    def total_busy(self) -> int:
        """Occupied slots across the whole fleet."""
        return sum(self._busy.values())

    def set_lease(self, width: Optional[int]) -> None:
        """Cap fleet-wide concurrency at ``width`` slots (``None`` lifts it).

        The *lease* is how slot ownership moves from the executor to a
        service: a :class:`~repro.core.service.TuningService` grants each
        tenant's pool a lease equal to its fair-share allocation, and
        :meth:`free_slots` then reports zero everywhere once the tenant's
        total occupancy reaches the lease — schedulers return ``None``,
        executors stop launching — however much raw shard capacity
        remains.  Probes already in flight are unaffected by a shrinking
        lease (they complete and release normally; new launches gate).
        The lease is ownership state, not session state: :meth:`reset`
        leaves it in place.
        """
        if width is not None:
            width = int(width)
            if width < 0:
                raise ValueError("lease width must be >= 0 (or None)")
        self._lease_width = width

    def set_clock(self, t: float) -> None:
        """Advance the virtual clock outage queries are evaluated at."""
        self.clock_s = float(t)

    def is_down(self, name: str) -> bool:
        """Whether the shard is inside an outage window right now."""
        return self.injector is not None and self.injector.is_down(
            name, self.clock_s
        )

    def next_up_s(self) -> Optional[float]:
        """Earliest recovery time among currently-down shards (None: all up)."""
        if self.injector is None:
            return None
        recoveries = [
            self.injector.up_after(shard.name, self.clock_s)
            for shard in self.shards
            if self.is_down(shard.name)
        ]
        return min(recoveries) if recoveries else None

    def free_slots(self, name: str) -> int:
        if self.is_down(name):
            return 0
        free = self._by_name[name].capacity - self._busy[name]
        if self._lease_width is not None:
            free = min(free, self._lease_width - self.total_busy())
        return max(0, free)

    def free_capacity(self) -> int:
        """Free slots fleet-wide, respecting the lease and outages.

        With no injector this equals ``total_capacity - total_busy``
        (lease-capped) exactly; downed shards' free slots drop out of the
        sum while their in-flight probes still count as busy.
        """
        free = sum(
            shard.capacity - self._busy[shard.name]
            for shard in self.shards
            if not self.is_down(shard.name)
        )
        if self._lease_width is not None:
            free = min(free, self._lease_width - self.total_busy())
        return max(0, free)

    def acquire(self, name: str) -> None:
        """Occupy one slot on a shard — the commit point of a launch.

        Fires the scheduler's ``notify_launch`` hook, so rotation state
        (e.g. the round-robin cursor) advances exactly once per probe that
        actually launches, never on declined selections.
        """
        if self.free_slots(name) < 1:
            raise RuntimeError(f"shard {name!r} has no free slot")
        self._busy[name] += 1
        self.scheduler.notify_launch(self, self._by_name[name])

    def release(self, name: str) -> None:
        if self._busy[name] < 1:
            raise RuntimeError(f"shard {name!r} has no occupied slot to release")
        self._busy[name] -= 1

    # -- session lifecycle -------------------------------------------------

    def reset(self) -> None:
        """Restore session-start state.

        Distinct environments (shards may share one) get their probe
        counters rewound so per-trial-index measurement noise replays
        identically across sessions.
        """
        self._busy = {shard.name: 0 for shard in self.shards}
        self.clock_s = 0.0
        seen = set()
        for shard in self.shards:
            if id(shard.env) in seen:
                continue
            seen.add(id(shard.env))
            reset_counters = getattr(shard.env, "reset_counters", None)
            if reset_counters is not None:
                reset_counters()
        self.scheduler.reset(self)

    def fingerprint(self) -> List[List[object]]:
        """JSON-exact fleet shape, for checkpoint executor fingerprints.

        A resumed session must rebuild the same fleet — shard order,
        capacities, and cost multipliers all steer scheduling and probe
        accounting, so any difference means the recorded stream cannot
        replay.  Scheduler identity rides along for the same reason.
        """
        return [
            [shard.name, int(shard.capacity), float(shard.cost_multiplier)]
            for shard in self.shards
        ] + [["scheduler", type(self.scheduler).__name__, 0.0]]

    def env_counters(self) -> Dict[str, Dict[str, object]]:
        """Probe counters per distinct shard environment (checkpoint audit).

        Keyed by the first shard name wrapping each distinct environment
        (shards may share one), values are the counters that key the
        environment's per-trial noise streams.
        """
        counters: Dict[str, Dict[str, object]] = {}
        seen = set()
        for shard in self.shards:
            if id(shard.env) in seen:
                continue
            seen.add(id(shard.env))
            trials_run = getattr(shard.env, "trials_run", None)
            cost = getattr(shard.env, "total_probe_cost_s", None)
            counters[shard.name] = {
                "trials_run": None if trials_run is None else int(trials_run),
                "total_probe_cost_s": None if cost is None else float(cost),
            }
        return counters

    def describe(self) -> Dict[str, object]:
        """Summary dict for experiment logs (the fleet analogue of
        :meth:`~repro.mlsim.TrainingEnvironment.describe`)."""
        base = {}
        describe = getattr(self.shards[0].env, "describe", None)
        if describe is not None:
            base = dict(describe())
        base.update(
            {
                "pool": True,
                "num_shards": len(self.shards),
                "total_capacity": self.total_capacity,
                "scheduler": type(self.scheduler).__name__,
                **(
                    {"injector": self.injector.describe()}
                    if self.injector is not None
                    else {}
                ),
                "shards": [
                    {
                        "name": shard.name,
                        "capacity": shard.capacity,
                        "cost_multiplier": shard.cost_multiplier,
                    }
                    for shard in self.shards
                ],
            }
        )
        return base


def parse_shard_spec(text: str) -> List[Dict[str, object]]:
    """Parse a CLI ``--shard-spec`` string into shard build recipes.

    Grammar: comma-separated entries, each
    ``NODE_TYPE:NODES[xCAPACITY][@COST_MULTIPLIER]`` — e.g.
    ``"std-cpu:16,std-cpu:16x2@1.5,gpu-v100:8@0.5"`` describes a
    three-shard fleet: a baseline 16-node shard, a 16-node shard offering
    two probe slots at 1.5x probe duration, and an 8-node V100 shard that
    probes at half duration.  Returns one dict per shard with keys
    ``node_type``, ``nodes``, ``capacity``, ``cost_multiplier``; the
    caller builds the environments (this module stays import-light).
    """
    recipes: List[Dict[str, object]] = []
    for raw_entry in text.split(","):
        entry = raw_entry.strip()
        if not entry:
            continue
        head, sep, cost_text = entry.partition("@")
        node_type, sep, size_text = head.partition(":")
        if not sep or not node_type:
            raise ValueError(
                f"bad shard entry {entry!r}: expected NODE_TYPE:NODES[xCAP][@COST]"
            )
        nodes_text, _, cap_text = size_text.partition("x")
        try:
            nodes = int(nodes_text)
            capacity = int(cap_text) if cap_text else 1
            cost_multiplier = float(cost_text) if cost_text else 1.0
        except ValueError:
            raise ValueError(
                f"bad shard entry {entry!r}: expected NODE_TYPE:NODES[xCAP][@COST]"
            ) from None
        if nodes < 1:
            raise ValueError(f"bad shard entry {entry!r}: nodes must be >= 1")
        recipes.append(
            {
                "node_type": node_type.strip(),
                "nodes": nodes,
                "capacity": capacity,
                "cost_multiplier": cost_multiplier,
            }
        )
    if not recipes:
        raise ValueError("shard spec describes no shards")
    return recipes
