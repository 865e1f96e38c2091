"""Tests for node specs, cluster assembly, and heterogeneity."""

import pytest

from repro.cluster import (
    CATALOGUE,
    Cluster,
    ClusterSpec,
    NodeSpec,
    STANDARD_CPU,
    homogeneous,
)
from repro.sim import RngRegistry, Simulator


class TestNodeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeSpec("bad", cores=0, mem_gb=1, gpus=0, gflops=1, nic_gbps=1)
        with pytest.raises(ValueError):
            NodeSpec("bad", cores=1, mem_gb=1, gpus=0, gflops=0, nic_gbps=1)
        with pytest.raises(ValueError):
            NodeSpec("bad", cores=1, mem_gb=1, gpus=0, gflops=1, nic_gbps=0)
        with pytest.raises(ValueError):
            NodeSpec("bad", cores=1, mem_gb=0, gpus=0, gflops=1, nic_gbps=1)

    def test_nic_bytes_per_sec(self):
        spec = NodeSpec("n", cores=4, mem_gb=8, gpus=0, gflops=100, nic_gbps=8.0)
        assert spec.nic_bytes_per_sec == pytest.approx(1e9)

    def test_catalogue_entries_valid(self):
        assert "std-cpu" in CATALOGUE
        for spec in CATALOGUE.values():
            assert spec.gflops > 0


class TestNodeCompute:
    def _node(self):
        from repro.cluster import Node

        node = Node(node_id=0, spec=STANDARD_CPU)
        node.attach(Simulator())
        return node

    def test_compute_time_scales_with_flops(self):
        node = self._node()
        assert node.compute_seconds(2e9) == pytest.approx(2 * node.compute_seconds(1e9))

    def test_full_parallelism_equals_zero(self):
        node = self._node()
        cores = node.spec.cores
        assert node.compute_seconds(1e9, 0) == node.compute_seconds(1e9, cores)

    def test_fewer_threads_is_slower_overall(self):
        node = self._node()
        assert node.compute_seconds(1e9, 1) > node.compute_seconds(1e9, 0)

    def test_partial_threads_beat_proportional_share(self):
        """Fewer threads get a mild efficiency bonus over linear share."""
        node = self._node()
        half = node.spec.cores // 2
        linear = node.compute_seconds(1e9, 0) * 2
        assert node.compute_seconds(1e9, half) < linear

    def test_speed_factor_scales_throughput(self):
        from repro.cluster import Node

        fast = Node(node_id=0, spec=STANDARD_CPU, speed_factor=1.0)
        slow = Node(node_id=1, spec=STANDARD_CPU, speed_factor=0.5)
        assert slow.compute_seconds(1e9) == pytest.approx(2 * fast.compute_seconds(1e9))

    def test_invalid_inputs(self):
        node = self._node()
        with pytest.raises(ValueError):
            node.compute_seconds(-1.0)
        with pytest.raises(ValueError):
            node.compute_seconds(1.0, -1)


class TestClusterSpec:
    def test_homogeneous_builder(self):
        spec = homogeneous(8)
        assert spec.total_nodes == 8
        assert len({s.name for s in spec.node_specs()}) == 1

    def test_homogeneous_by_name(self):
        spec = homogeneous(4, "gpu-v100")
        assert spec.pools[0][0].name == "gpu-v100"

    def test_unknown_node_name(self):
        with pytest.raises(KeyError):
            homogeneous(4, "quantum-node")

    def test_heterogeneous_pools(self):
        spec = ClusterSpec(pools=((CATALOGUE["std-cpu"], 4), (CATALOGUE["big-cpu"], 2)))
        assert spec.total_nodes == 6
        assert len(spec.node_specs()) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(pools=())
        with pytest.raises(ValueError):
            ClusterSpec(pools=((STANDARD_CPU, 0),))
        with pytest.raises(ValueError):
            homogeneous(4, straggler_fraction=1.5)
        with pytest.raises(ValueError):
            homogeneous(4, straggler_slowdown=0.0)


class TestClusterInstantiation:
    def test_deterministic_given_seed(self):
        spec = homogeneous(8, straggler_fraction=0.25, jitter_cv=0.05)
        a = Cluster(Simulator(), spec, RngRegistry(3))
        b = Cluster(Simulator(), spec, RngRegistry(3))
        assert [n.speed_factor for n in a.nodes] == [n.speed_factor for n in b.nodes]

    def test_different_seeds_differ(self):
        spec = homogeneous(8, straggler_fraction=0.25, jitter_cv=0.05)
        a = Cluster(Simulator(), spec, RngRegistry(3))
        b = Cluster(Simulator(), spec, RngRegistry(4))
        assert [n.speed_factor for n in a.nodes] != [n.speed_factor for n in b.nodes]

    def test_straggler_count(self):
        spec = homogeneous(16, straggler_fraction=0.25, straggler_slowdown=0.5, jitter_cv=0.0)
        cluster = Cluster(Simulator(), spec, RngRegistry(0))
        slow = [n for n in cluster.nodes if n.speed_factor < 0.9]
        assert len(slow) == 4
        for node in slow:
            assert node.speed_factor == pytest.approx(0.5)

    def test_no_stragglers_by_default(self):
        cluster = Cluster(Simulator(), homogeneous(8, jitter_cv=0.0), RngRegistry(0))
        assert all(n.speed_factor == 1.0 for n in cluster.nodes)

    def test_jitter_spreads_speed_factors(self):
        spec = homogeneous(16, jitter_cv=0.1)
        cluster = Cluster(Simulator(), spec, RngRegistry(1))
        factors = [n.speed_factor for n in cluster.nodes]
        assert len(set(factors)) > 1

    def test_fabric_has_all_nodes(self):
        cluster = Cluster(Simulator(), homogeneous(5), RngRegistry(0))
        assert len(cluster.fabric.egress_capacity) == 5
        assert len(cluster) == 5
        assert cluster.node(3).node_id == 3
