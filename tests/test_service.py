"""Tests for the multi-tenant TuningService.

Pins the PR's acceptance properties: clean admission control, the
weighted fair-share allocation invariants, tenant isolation (failure,
cost caps, and scheduling order never perturb another tenant's
trajectory or accounting), bit-identical concurrent-vs-standalone runs
for pinned tenants, repository recording, and warm-start wiring.
"""

import os

import numpy as np
import pytest

from repro.baselines import RandomSearch
from repro.configspace import ml_config_space
from repro.core import TuningBudget
from repro.core.service import (
    AdmissionError,
    ShardTemplate,
    TenantHandle,
    TenantSpec,
    TuningService,
    WARM_N_INITIAL,
    training_shard_templates,
)
from repro.core.strategy import SearchStrategy
from repro.core.transfer import HistoryRepository
from repro.core.tuner import MLConfigTuner
from repro.workloads import get_workload

NODES = 8
RESNET = get_workload("resnet50-imagenet")
VGG = get_workload("vgg16-imagenet")


def space():
    return ml_config_space(NODES)


def templates(multipliers=(1.0, 1.25, 0.8, 1.5)):
    return training_shard_templates(nodes=NODES, cost_multipliers=multipliers)


def service(**kwargs):
    kwargs.setdefault("repository", None)
    return TuningService(templates(), space(), **kwargs)


def tenant(name, seed=0, trials=8, workload=RESNET, **kwargs):
    kwargs.setdefault("slots", 2)
    return TenantSpec(
        name,
        lambda: RandomSearch(),
        TuningBudget(max_trials=trials),
        seed=seed,
        workload=workload,
        **kwargs,
    )


def trajectory(result):
    return [(t.config, t.objective, t.shard) for t in result.history.trials]


class _ExplodingStrategy(SearchStrategy):
    """Proposes randomly, then raises after ``healthy`` proposals."""

    name = "exploding"

    def __init__(self, healthy=3):
        self.healthy = healthy
        self._calls = 0

    def reset(self):
        self._calls = 0

    def propose(self, history, space, rng, pending=(), shard=None):
        self._calls += 1
        if self._calls > self.healthy:
            raise RuntimeError("tenant strategy exploded")
        return space.sample(rng)


class TestAdmission:
    def test_over_capacity_guarantee_rejected(self):
        svc = service()
        with pytest.raises(AdmissionError, match="demands 99 guaranteed slots"):
            svc.submit(tenant("big", slots=99))

    def test_duplicate_name_rejected(self):
        svc = service()
        svc.submit(tenant("a"))
        with pytest.raises(AdmissionError, match="already submitted"):
            svc.submit(tenant("a"))

    def test_invalid_specs_rejected(self):
        svc = service()
        with pytest.raises(AdmissionError, match="slots must be >= 1"):
            svc.submit(tenant("a", slots=0))
        with pytest.raises(AdmissionError, match="below the guaranteed"):
            svc.submit(tenant("b", slots=3, max_slots=2))
        with pytest.raises(AdmissionError, match="weight must be positive"):
            svc.submit(tenant("c", weight=0.0))
        with pytest.raises(AdmissionError, match="executor_mode"):
            svc.submit(tenant("d", executor_mode="warp"))

    def test_oversubscription_queues_instead_of_rejecting(self):
        svc = service()
        for name in ("a", "b", "c"):
            svc.submit(tenant(name, trials=4))
        result = svc.run()
        assert [h.state for h in result.tenants] == ["done", "done", "done"]
        # The third tenant could not start until a guarantee freed up.
        third = result.tenants[2]
        assert third.started_at > 0
        assert third.started_at >= min(
            h.finished_at for h in result.tenants[:2]
        ) - 1e-9


class TestFairShare:
    def _handles(self, specs):
        return [TenantHandle(spec, order=i) for i, spec in enumerate(specs)]

    def test_allocation_invariants(self):
        svc = service()
        handles = self._handles(
            [
                tenant("a", slots=1, max_slots=4, weight=2.0),
                tenant("b", slots=1, max_slots=2, weight=1.0),
                tenant("c", slots=1),  # pinned
            ]
        )
        allocation = svc._allocation(handles)
        assert sum(allocation.values()) <= svc.total_capacity
        for handle in handles:
            assert handle.spec.slots <= allocation[handle] <= handle.spec.ceiling
        # Work-conserving: a slot stays idle only when everyone is capped.
        if sum(allocation.values()) < svc.total_capacity:
            assert all(
                allocation[h] == h.spec.ceiling for h in handles
            )
        # The pinned tenant never grows past its guarantee.
        assert allocation[handles[2]] == 1

    def test_spare_goes_to_heavier_weight(self):
        svc = service()
        heavy, light = self._handles(
            [
                tenant("heavy", slots=1, max_slots=4, weight=3.0),
                tenant("light", slots=1, max_slots=4, weight=1.0),
            ]
        )
        allocation = svc._allocation([heavy, light])
        assert allocation[heavy] > allocation[light]
        assert sum(allocation.values()) == svc.total_capacity

    def test_lone_elastic_tenant_reclaims_whole_fleet(self):
        svc = service()
        (handle,) = self._handles([tenant("solo", slots=1, max_slots=8)])
        assert svc._allocation([handle])[handle] == svc.total_capacity

    def test_reclaim_capped_at_ceiling(self):
        svc = service()
        (handle,) = self._handles([tenant("solo", slots=1, max_slots=2)])
        assert svc._allocation([handle])[handle] == 2


class TestAccounting:
    def test_per_tenant_costs_sum_to_pool_totals(self):
        svc = service()
        svc.submit(tenant("a", seed=1, trials=6))
        svc.submit(tenant("b", seed=2, trials=6, workload=VGG))
        svc.run()
        by_shard = svc.cost_by_shard()
        assert sum(by_shard.values()) == pytest.approx(svc.total_cost_s())
        tenant_sum = {}
        for handle in svc._handles:
            for shard, cost in handle.history.cost_by_shard().items():
                tenant_sum[shard] = tenant_sum.get(shard, 0.0) + cost
        assert tenant_sum == pytest.approx(by_shard)

    def test_ledger_plus_cancellations_covers_totals(self):
        svc = service()
        # A cost cap strands in-flight probes, whose machine time is
        # charged as cancellation rather than through the ledger.
        svc.submit(
            TenantSpec(
                "capped",
                lambda: RandomSearch(),
                TuningBudget(max_trials=None, max_cost_s=400.0),
                seed=3,
                slots=2,
                workload=RESNET,
            )
        )
        svc.submit(tenant("b", seed=4, trials=6))
        svc.run()
        recorded = sum(svc.recorded_cost_by_shard.values())
        total = svc.total_cost_s()
        assert recorded <= total + 1e-9
        cancelled = total - recorded
        assert cancelled >= 0
        assert sum(svc.cost_by_shard().values()) == pytest.approx(total)

    def test_cost_cap_tenant_does_not_perturb_neighbour(self):
        baseline = service()
        neighbour_alone = baseline.run_standalone(tenant("b", seed=4, trials=6))
        svc = service()
        svc.submit(
            TenantSpec(
                "capped",
                lambda: RandomSearch(),
                TuningBudget(max_trials=None, max_cost_s=400.0),
                seed=3,
                slots=2,
                workload=RESNET,
            )
        )
        svc.submit(tenant("b", seed=4, trials=6))
        result = svc.run()
        neighbour = next(h for h in result.tenants if h.spec.name == "b")
        assert trajectory(neighbour.result) == trajectory(neighbour_alone)


class TestDeterminism:
    def test_concurrent_equals_standalone_for_pinned_tenants(self):
        svc = service()
        svc.submit(tenant("a", seed=1, trials=8))
        svc.submit(tenant("b", seed=2, trials=8, workload=VGG))
        result = svc.run()
        for handle in result.tenants:
            alone = service().run_standalone(handle.spec)
            assert trajectory(handle.result) == trajectory(alone)

    def test_submission_order_does_not_perturb_trajectories(self):
        first = service()
        first.submit(tenant("a", seed=1, trials=8))
        first.submit(tenant("b", seed=2, trials=8, workload=VGG))
        forward = {h.spec.name: trajectory(h.result) for h in first.run().tenants}
        second = service()
        second.submit(tenant("b", seed=2, trials=8, workload=VGG))
        second.submit(tenant("a", seed=1, trials=8))
        reverse = {h.spec.name: trajectory(h.result) for h in second.run().tenants}
        assert forward == reverse

    def test_rng_streams_are_per_tenant(self):
        svc = service()
        svc.submit(tenant("a", seed=7, trials=6))
        svc.submit(tenant("twin", seed=7, trials=6))
        result = svc.run()
        a, twin = result.tenants
        # Same seed, same workload: identical streams regardless of the
        # interleaved scheduling between them.
        assert trajectory(a.result) == trajectory(twin.result)


class TestIsolation:
    def test_failed_tenant_leaves_neighbour_untouched(self):
        alone = service().run_standalone(tenant("b", seed=2, trials=8))
        svc = service()
        svc.submit(
            TenantSpec(
                "bad",
                lambda: _ExplodingStrategy(healthy=2),
                TuningBudget(max_trials=20),
                seed=1,
                slots=2,
                workload=RESNET,
                executor_mode="serial",
            )
        )
        svc.submit(tenant("b", seed=2, trials=8))
        result = svc.run()
        bad = next(h for h in result.tenants if h.spec.name == "bad")
        good = next(h for h in result.tenants if h.spec.name == "b")
        assert bad.state == "failed"
        assert "exploded" in str(bad.error)
        assert good.state == "done"
        assert trajectory(good.result) == trajectory(alone)

    def test_failure_frees_capacity_for_queued_tenant(self):
        svc = service()
        svc.submit(
            TenantSpec(
                "bad",
                lambda: _ExplodingStrategy(healthy=2),
                TuningBudget(max_trials=20),
                seed=1,
                slots=2,
                workload=RESNET,
                executor_mode="serial",
            )
        )
        svc.submit(tenant("b", seed=2, trials=4))
        svc.submit(tenant("c", seed=3, trials=4))
        result = svc.run()
        states = {h.spec.name: h.state for h in result.tenants}
        assert states == {"bad": "failed", "b": "done", "c": "done"}


class TestRepositoryIntegration:
    def _repo(self, tmp_path):
        return HistoryRepository(os.path.join(tmp_path, "history.jsonl"))

    def test_completed_sessions_recorded(self, tmp_path):
        repo = self._repo(tmp_path)
        svc = service(repository=repo)
        svc.submit(tenant("a", seed=1, trials=6))
        svc.submit(tenant("b", seed=2, trials=6, workload=VGG))
        svc.run()
        assert len(repo) == 2
        assert repo.workloads() == sorted({RESNET.name, VGG.name})
        entry = repo.sessions()[0]
        assert entry["fingerprint"]
        assert entry["metadata"]["tenant"] in ("a", "b")

    def test_warm_start_installs_prior(self, tmp_path):
        repo = self._repo(tmp_path)
        cold = TuningService(templates(), space(), repository=repo)
        cold.submit(
            TenantSpec(
                "seed",
                lambda: MLConfigTuner(n_initial=4, seed=1),
                TuningBudget(max_trials=10),
                seed=1,
                slots=2,
                workload=RESNET,
            )
        )
        cold.run()
        warm_svc = TuningService(templates(), space(), repository=repo)
        handle = warm_svc.submit(
            TenantSpec(
                "warm",
                lambda: MLConfigTuner(n_initial=8, seed=2),
                TuningBudget(max_trials=8),
                seed=2,
                slots=2,
                workload=RESNET,
            )
        )
        warm_svc.run()
        assert handle.warm
        assert handle.mapped_from == RESNET.name
        assert handle.strategy.prior_mean is not None
        assert handle.strategy.n_initial == WARM_N_INITIAL == 4

    def test_warm_start_switch_off(self, tmp_path):
        repo = self._repo(tmp_path)
        cold = TuningService(templates(), space(), repository=repo)
        cold.submit(tenant("seed", seed=1, trials=6))
        cold.run()
        svc = TuningService(templates(), space(), repository=repo, warm_start=False)
        handle = svc.submit(
            TenantSpec(
                "cold",
                lambda: MLConfigTuner(n_initial=8, seed=2),
                TuningBudget(max_trials=6),
                seed=2,
                slots=2,
                workload=RESNET,
            )
        )
        svc.run()
        assert not handle.warm
        assert handle.strategy.prior_mean is None

    def test_warm_start_unwraps_stopping_wrapper(self, tmp_path):
        from repro.core.stopping import StoppedStrategy, TargetRule

        repo = self._repo(tmp_path)
        cold = TuningService(templates(), space(), repository=repo)
        cold.submit(
            TenantSpec(
                "seed",
                lambda: MLConfigTuner(n_initial=4, seed=1),
                TuningBudget(max_trials=10),
                seed=1,
                slots=2,
                workload=RESNET,
            )
        )
        cold.run()
        warm_svc = TuningService(templates(), space(), repository=repo)
        handle = warm_svc.submit(
            TenantSpec(
                "warm",
                lambda: StoppedStrategy(
                    MLConfigTuner(n_initial=8, seed=2), [TargetRule(1e12)]
                ),
                TuningBudget(max_trials=8),
                seed=2,
                slots=2,
                workload=RESNET,
            )
        )
        warm_svc.run()
        # The prior lands on the wrapped tuner, not the stopping shell.
        assert handle.warm
        assert handle.strategy.inner.prior_mean is not None
        assert handle.strategy.inner.n_initial == 4

    def test_strategy_without_prior_hook_stays_cold(self, tmp_path):
        repo = self._repo(tmp_path)
        cold = TuningService(templates(), space(), repository=repo)
        cold.submit(tenant("seed", seed=1, trials=6))
        cold.run()
        svc = TuningService(templates(), space(), repository=repo)
        handle = svc.submit(tenant("random", seed=2, trials=6))
        svc.run()
        assert not handle.warm


class TestServiceResult:
    def test_result_shape(self):
        svc = service()
        svc.submit(tenant("a", seed=1, trials=6))
        svc.submit(tenant("b", seed=2, trials=6))
        result = svc.run()
        assert len(result.completed) == 2
        assert not result.failed
        assert result.makespan_s == pytest.approx(
            max(h.finished_at for h in result.tenants)
        )
        assert result.sessions_per_hour() > 0

    def test_shard_template_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ShardTemplate("s", lambda spec, i: None, capacity=0)
        with pytest.raises(ValueError, match="cost_multiplier"):
            ShardTemplate("s", lambda spec, i: None, cost_multiplier=-1.0)
        with pytest.raises(ValueError, match="unique"):
            TuningService(
                [
                    ShardTemplate("s", lambda spec, i: None),
                    ShardTemplate("s", lambda spec, i: None),
                ],
                space(),
            )

    def test_lease_width_tracked_on_handles(self):
        svc = service()
        handle = svc.submit(tenant("a", seed=1, trials=4, slots=2, max_slots=4))
        svc.run()
        # Alone on a 4-slot fleet with ceiling 4, reclaim grows the lease.
        assert handle.lease == 4
