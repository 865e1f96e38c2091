"""The benchmark's four workloads, built from the public ``repro`` API.

Every workload is a closed loop driven from one process and one thread:
a session proposes its next configuration only when its executor frees a
slot, GP refits run in-process (``fit_workers=1``, no fork pools), and
every service tenant is submitted at t=0.  A workload's inputs are a pure
function of the run seed and its number of *units* (sessions, or tenant
groups for the service), so the same seed and run length always do the
same work — the quality figures and the traced run's work counters repeat
exactly.

``run`` returns one :class:`Outcome` per session (per tenant for the
service).  It lets a callback's ``BaseException`` through, which is how
the benchmark stops a run at its first proposal to time set-up.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.cluster import homogeneous
from repro.configspace import ml_config_space
from repro.core import (
    AsyncExecutor,
    CheckpointConfig,
    EnvironmentPool,
    EnvironmentShard,
    HistoryRepository,
    MLConfigTuner,
    ParallelExecutor,
    SerialExecutor,
    TenantSpec,
    TuningBudget,
    TuningService,
    TuningSession,
)
from repro.core.detect import ChangePointDetector, RetuningPolicy
from repro.core.fleet import FailureInjector, OutageWindow
from repro.core.service import training_shard_templates
from repro.core.session import SessionCallback
from repro.mlsim import CompositeDrift, StepDrift, StragglerOnset, TrainingEnvironment
from repro.workloads import get_workload


@dataclass
class Outcome:
    """One session's (or tenant's) result plus what judging it needs."""

    label: str
    seed: int
    trials: int
    reference_env: Callable[[], TrainingEnvironment]
    space: object
    result: Optional[object] = None
    error: Optional[str] = None
    checks: List[str] = field(default_factory=list)
    #: Whether a service tenant was warm-started from the repository.
    warm: bool = False


class Workload:
    """A named set of inputs; subclasses build and run one unit at a time."""

    name = ""
    #: Host seconds one unit takes on a 2-core x86 box (Python 3.11,
    #: numpy 2.4); ``units`` converts the run length into a fixed amount
    #: of work with it.
    unit_seconds = 1.0

    def units(self, seconds: float) -> int:
        return max(1, int(round(seconds / self.unit_seconds)))

    def run(
        self, seed: int, units: int, workdir: str, callbacks: Sequence[SessionCallback]
    ) -> List[Outcome]:
        raise NotImplementedError

    def recover(self, outcomes: List[Outcome], workdir: str):
        """Resume the first session's finished checkpoint; ``None`` if none."""
        return None


def _session_seed(seed: int, unit: int) -> int:
    # Spaced by 10 so per-shard environment seeds (session seed + shard
    # index) never collide between sessions of one run.
    return seed * 10000 + 10 * unit


class _SessionWorkload(Workload):
    """Independent sessions, one per unit, run one after another."""

    trials = 1
    nodes = 16

    def space(self):
        return ml_config_space(self.nodes)

    def session(self, unit_seed: int, callbacks) -> TuningSession:
        raise NotImplementedError

    def reference_env(self, unit_seed: int) -> TrainingEnvironment:
        """A fresh copy of the session's (first) environment."""
        raise NotImplementedError

    def start_args(self, unit_seed: int, workdir: str) -> dict:
        return {"env": self.reference_env(unit_seed)}

    def run(self, seed, units, workdir, callbacks):
        outcomes = []
        for unit in range(units):
            unit_seed = _session_seed(seed, unit)
            space = self.space()
            outcome = Outcome(
                label=f"{self.name}/{unit}",
                seed=unit_seed,
                trials=self.trials,
                reference_env=lambda s=unit_seed: self.reference_env(s),
                space=space,
            )
            try:
                session = self.session(unit_seed, list(callbacks))
                outcome.result = session.run(
                    space=space,
                    budget=TuningBudget(max_trials=self.trials),
                    seed=unit_seed,
                    **self.start_args(unit_seed, workdir),
                )
            except Exception as exc:  # noqa: BLE001 - a failed session is counted
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcomes.append(outcome)
        return outcomes


class BoSerial(_SessionWorkload):
    """Serial eipc BO sessions long enough that hyperparameter refits dominate.

    50 trials rather than 100: refits still take most of the wall, and a
    run averages over more sessions, whose refit work varies by seed.
    """

    name = "bo-serial"
    unit_seconds = 3.0
    trials = 50

    def reference_env(self, unit_seed):
        return TrainingEnvironment(
            get_workload("resnet50-imagenet"), homogeneous(self.nodes), seed=unit_seed
        )

    def session(self, unit_seed, callbacks):
        return TuningSession(
            MLConfigTuner(seed=unit_seed, fit_workers=1),
            executor=SerialExecutor(),
            callbacks=callbacks,
        )


class EventSync(_SessionWorkload):
    """Discrete-event probes under the synchronous 4-worker executor.

    The event simulator's cost depends strongly on the configuration, and
    each session's choices depend on its seed, so a steady run needs many
    short sessions: eight nodes and 16 trials (two Latin-hypercube rounds,
    then two BO rounds) per session.
    """

    name = "event-sync"
    unit_seconds = 1.4
    trials = 16
    nodes = 8

    def reference_env(self, unit_seed):
        return TrainingEnvironment(
            get_workload("vgg16-imagenet"),
            homogeneous(self.nodes),
            seed=unit_seed,
            fidelity="event",
        )

    def session(self, unit_seed, callbacks):
        return TuningSession(
            MLConfigTuner(seed=unit_seed, fit_workers=1),
            executor=ParallelExecutor(4),
            callbacks=callbacks,
        )


class FleetAsync(_SessionWorkload):
    """Async BO over a 4-shard pool with an outage, drift and re-tuning.

    The straggler and intensity drift fires at 600 simulated seconds,
    about half-way through a 40-trial session; shard1 is down over
    [300, 450) s.  Every trial is checkpointed; :meth:`recover` resumes
    the first session's finished checkpoint.
    """

    name = "fleet-async"
    unit_seconds = 2.0
    trials = 40
    multipliers = (1.0, 1.25, 0.8, 1.5)
    drift_at_s = 600.0

    def _env(self, unit_seed: int, shard: int) -> TrainingEnvironment:
        drift = CompositeDrift(
            (
                StragglerOnset(
                    at_s=self.drift_at_s, fraction=0.25, slowdown=3.0, seed=unit_seed
                ),
                StepDrift(at_s=self.drift_at_s, intensity=1.5),
            )
        )
        return TrainingEnvironment(
            get_workload("resnet50-imagenet"),
            homogeneous(self.nodes),
            seed=unit_seed + shard,
            objective_name="tta",
            drift=drift,
        )

    def reference_env(self, unit_seed):
        return self._env(unit_seed, 0)

    def session(self, unit_seed, callbacks):
        pool = EnvironmentPool(
            [
                EnvironmentShard(f"shard{i}", self._env(unit_seed, i), cost_multiplier=m)
                for i, m in enumerate(self.multipliers)
            ],
            injector=FailureInjector(outages=[OutageWindow("shard1", 300.0, 450.0)]),
        )
        return TuningSession(
            MLConfigTuner(seed=unit_seed, fit_workers=1, shard_cost_feature=True),
            executor=AsyncExecutor(pool=pool),
            callbacks=callbacks,
            detector=ChangePointDetector(policy=RetuningPolicy(mode="discount")),
        )

    def checkpoint(self, unit_seed: int, workdir: str) -> CheckpointConfig:
        return CheckpointConfig(
            os.path.join(workdir, f"fleet-{unit_seed}.ckpt"), every_n_trials=1
        )

    def start_args(self, unit_seed, workdir):
        return {"env": None, "checkpoint": self.checkpoint(unit_seed, workdir)}

    def recover(self, outcomes, workdir):
        first = outcomes[0]
        if first.result is None:
            return None
        session = self.session(first.seed, [])
        return session.resume(self.checkpoint(first.seed, workdir), None, first.space)


class ServiceWarm(Workload):
    """Service drains with more tenants than fleet slots.

    A unit is one drain of eight 30-trial tenants, alternating resnet50 and
    vgg16, over four single-slot shards, with a fresh repository and
    checkpoint directory.  All tenants are submitted at t=0; the last four
    queue and warm-start from the sessions the first four recorded.
    """

    name = "service-warm"
    unit_seconds = 13.0
    trials = 30
    nodes = 16
    tenants = 8
    workloads = ("resnet50-imagenet", "vgg16-imagenet")

    def _reference(self, workload: str, tenant_seed: int):
        return lambda: TrainingEnvironment(
            get_workload(workload), homogeneous(self.nodes), seed=tenant_seed
        )

    def run(self, seed, units, workdir, callbacks):
        outcomes = []
        for unit in range(units):
            drain_dir = os.path.join(workdir, f"drain{unit}")
            os.makedirs(drain_dir)
            outcomes.extend(self._drain(seed, unit, drain_dir, callbacks))
        return outcomes

    def _drain(self, seed, unit, workdir, callbacks) -> List[Outcome]:
        space = ml_config_space(self.nodes)
        service = TuningService(
            training_shard_templates(self.nodes, cost_multipliers=(1.0, 1.0, 1.0, 1.0)),
            space,
            repository=HistoryRepository(os.path.join(workdir, "repository.jsonl")),
            checkpoint_dir=workdir,
        )
        outcomes = []
        for index in range(self.tenants):
            tenant_seed = _session_seed(seed, unit * self.tenants + index)
            workload = self.workloads[index % len(self.workloads)]
            service.submit(
                TenantSpec(
                    name=f"tenant{index}",
                    strategy_factory=lambda s=tenant_seed: MLConfigTuner(
                        seed=s, fit_workers=1
                    ),
                    budget=TuningBudget(max_trials=self.trials),
                    seed=tenant_seed,
                    workload=get_workload(workload),
                    callbacks=tuple(callbacks),
                )
            )
            outcomes.append(
                Outcome(
                    label=f"{self.name}/{unit}/tenant{index}",
                    seed=tenant_seed,
                    trials=self.trials,
                    reference_env=self._reference(workload, tenant_seed),
                    space=space,
                )
            )
        try:
            served = service.run()
        except Exception as exc:  # noqa: BLE001 - a failed drain fails every tenant
            for outcome in outcomes:
                outcome.error = f"service drain raised {type(exc).__name__}: {exc}"
            return outcomes
        for outcome, handle in zip(outcomes, served.tenants):
            outcome.result = handle.result
            outcome.warm = handle.warm
            if handle.state != "done":
                outcome.error = f"tenant ended {handle.state}: {handle.error!r}"
        total = service.total_cost_s()
        by_shard = sum(service.cost_by_shard().values())
        if not math.isclose(by_shard, total, rel_tol=1e-9, abs_tol=1e-9):
            for outcome in outcomes:
                outcome.checks.append(
                    f"service ledger: sum(cost_by_shard)={by_shard!r} != total={total!r}"
                )
        return outcomes


WORKLOADS = {
    workload.name: workload
    for workload in (BoSerial(), FleetAsync(), ServiceWarm(), EventSync())
}
