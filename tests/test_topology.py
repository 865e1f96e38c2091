"""Tests for the two-tier (rack/oversubscription) topology support."""

import pytest

from repro.cluster import Cluster, FLAT, Fabric, Topology, homogeneous, two_tier
from repro.sim import RngRegistry, Simulator


def make_fabric(sim, nodes=8, gbps=10.0, latency=0.0, topology=None):
    bytes_per_sec = gbps * 1e9 / 8.0
    return Fabric(
        sim,
        egress_capacity={i: bytes_per_sec for i in range(nodes)},
        latency_s=latency,
        topology=topology,
    )


def run_transfers(sim, fabric, transfers):
    """Start flows, run to completion, return dict name -> finish time."""
    times = {}

    def proc(name, src, dst, size):
        yield fabric.transfer(src, dst, size)
        times[name] = sim.now

    for name, src, dst, size in transfers:
        sim.spawn(proc(name, src, dst, size))
    sim.run()
    return times


class TestTopologyConstruction:
    def test_two_tier_packs_in_id_order(self):
        topo = two_tier([1e9] * 8, rack_size=4)
        assert topo.rack_of[0] == 0
        assert topo.rack_of[3] == 0
        assert topo.rack_of[4] == 1
        assert len(set(topo.rack_of.values())) == 2

    def test_uplink_capacity_is_aggregate_over_oversubscription(self):
        topo = two_tier([1e9] * 4, rack_size=2, oversubscription=4.0)
        assert topo.uplink_capacity[0] == pytest.approx(2e9 / 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            two_tier([1e9], rack_size=0)
        with pytest.raises(ValueError):
            two_tier([1e9], rack_size=1, oversubscription=0.5)
        with pytest.raises(ValueError):
            Topology(rack_of={0: 0}, uplink_capacity={}, downlink_capacity={})

    def test_flat_topology_same_rack_everywhere(self):
        assert FLAT.same_rack(0, 99)


class TestFabricWithTopology:
    def test_intra_rack_flow_unaffected_by_oversubscription(self):
        sim = Simulator()
        topo = two_tier([1.25e9] * 8, rack_size=4, oversubscription=8.0)
        fabric = make_fabric(sim, topology=topo)
        size = 1.25e9  # 1s at full NIC rate
        times = run_transfers(sim, fabric, [("a", 0, 1, size)])
        assert times["a"] == pytest.approx(1.0, rel=1e-6)

    def test_cross_rack_flow_limited_by_uplink(self):
        """With 4x oversubscription, a single cross-rack flow still gets the
        full NIC rate (uplink = 4 NICs / 4 = 1 NIC)."""
        sim = Simulator()
        topo = two_tier([1.25e9] * 8, rack_size=4, oversubscription=4.0)
        fabric = make_fabric(sim, topology=topo)
        size = 1.25e9
        times = run_transfers(sim, fabric, [("a", 0, 5, size)])
        assert times["a"] == pytest.approx(1.0, rel=1e-6)

    def test_concurrent_cross_rack_flows_share_uplink(self):
        """Two cross-rack flows from different sources share the uplink."""
        sim = Simulator()
        topo = two_tier([1.25e9] * 8, rack_size=4, oversubscription=4.0)
        fabric = make_fabric(sim, topology=topo)
        size = 1.25e9
        times = run_transfers(
            sim, fabric, [("a", 0, 4, size), ("b", 1, 5, size)]
        )
        # Uplink = 1.25e9; two flows → 2s each (vs 1s on a flat fabric).
        assert times["a"] == pytest.approx(2.0, rel=1e-5)
        assert times["b"] == pytest.approx(2.0, rel=1e-5)

    def test_flat_fabric_unchanged_for_same_pattern(self):
        sim = Simulator()
        fabric = make_fabric(sim)  # no topology
        size = 1.25e9
        times = run_transfers(
            sim, fabric, [("a", 0, 4, size), ("b", 1, 5, size)]
        )
        assert times["a"] == pytest.approx(1.0, rel=1e-6)

    def test_oversubscription_one_behaves_like_flat(self):
        size = 1.25e9
        flows = [("a", 0, 4, size), ("b", 1, 5, size), ("c", 2, 6, size)]

        sim_flat = Simulator()
        flat_times = run_transfers(sim_flat, make_fabric(sim_flat), list(flows))

        sim_topo = Simulator()
        topo = two_tier([1.25e9] * 8, rack_size=4, oversubscription=1.0)
        topo_times = run_transfers(
            sim_topo, make_fabric(sim_topo, topology=topo), list(flows)
        )
        for name in ("a", "b", "c"):
            assert topo_times[name] == pytest.approx(flat_times[name], rel=1e-6)


class TestClusterIntegration:
    def test_cluster_builds_topology_from_spec(self):
        spec = homogeneous(8, rack_size=4, oversubscription=4.0)
        cluster = Cluster(Simulator(), spec, RngRegistry(0))
        assert cluster.topology is not None
        assert len(set(cluster.topology.rack_of.values())) == 2

    def test_flat_cluster_has_no_topology(self):
        cluster = Cluster(Simulator(), homogeneous(8), RngRegistry(0))
        assert cluster.topology is None

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            homogeneous(8, rack_size=0)
        with pytest.raises(ValueError):
            homogeneous(8, rack_size=4, oversubscription=0.9)

    def test_oversubscription_slows_ps_training(self):
        """An oversubscribed fabric reduces measured PS throughput."""
        from repro.mlsim import TrainingConfig, TrainingEnvironment
        from repro.workloads import get_workload

        workload = get_workload("word2vec-wiki")
        config = TrainingConfig(num_workers=8, num_ps=4, batch_per_worker=256)
        flat_env = TrainingEnvironment(
            workload, homogeneous(16, jitter_cv=0.0), seed=0,
            fidelity="event", noise_cv=0.0,
        )
        oversub_env = TrainingEnvironment(
            workload,
            homogeneous(16, jitter_cv=0.0, rack_size=4, oversubscription=8.0),
            seed=0,
            fidelity="event",
            noise_cv=0.0,
        )
        flat = flat_env.measure(config)
        oversub = oversub_env.measure(config)
        assert oversub.throughput < 0.8 * flat.throughput
