"""Tests for the flow-level network fabric (max-min fair sharing)."""

import pytest

from repro.cluster import Fabric, analytic_transfer_time
from repro.sim import Simulator


def make_fabric(sim, nodes=4, gbps=10.0, latency=1e-4):
    bytes_per_sec = gbps * 1e9 / 8.0
    return Fabric(
        sim,
        egress_capacity={i: bytes_per_sec for i in range(nodes)},
        latency_s=latency,
    )


def run_transfer(sim, fabric, src, dst, size):
    """Helper: start a transfer, run to completion, return finish time."""
    done = {}

    def proc():
        yield fabric.transfer(src, dst, size)
        done["t"] = sim.now

    sim.spawn(proc())
    sim.run()
    return done["t"]


class TestSingleTransfer:
    def test_serialisation_plus_latency(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency=1e-3)
        size = 1.25e9  # exactly 1 second at 10 Gbps
        finish = run_transfer(sim, fabric, 0, 1, size)
        assert finish == pytest.approx(1.0 + 1e-3, rel=1e-6)

    def test_zero_bytes_costs_latency_only(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency=5e-4)
        finish = run_transfer(sim, fabric, 0, 1, 0.0)
        assert finish == pytest.approx(5e-4)

    def test_loopback_costs_latency_only(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency=5e-4)
        finish = run_transfer(sim, fabric, 2, 2, 1e12)
        assert finish == pytest.approx(5e-4)

    def test_unknown_nodes_rejected(self):
        sim = Simulator()
        fabric = make_fabric(sim, nodes=2)
        with pytest.raises(KeyError):
            fabric.transfer(0, 99, 100.0)
        with pytest.raises(KeyError):
            fabric.transfer(99, 0, 100.0)

    def test_negative_size_rejected(self):
        sim = Simulator()
        fabric = make_fabric(sim)
        with pytest.raises(ValueError):
            fabric.transfer(0, 1, -1.0)


class TestContention:
    def test_two_flows_same_egress_halve(self):
        """Two equal flows out of one NIC take twice as long."""
        sim = Simulator()
        fabric = make_fabric(sim, latency=0.0)
        size = 1.25e9  # 1 second alone
        times = {}

        def proc(name, dst):
            yield fabric.transfer(0, dst, size)
            times[name] = sim.now

        sim.spawn(proc("a", 1))
        sim.spawn(proc("b", 2))
        sim.run()
        assert times["a"] == pytest.approx(2.0, rel=1e-6)
        assert times["b"] == pytest.approx(2.0, rel=1e-6)

    def test_two_flows_same_ingress_halve(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency=0.0)
        size = 1.25e9
        times = {}

        def proc(name, src):
            yield fabric.transfer(src, 3, size)
            times[name] = sim.now

        sim.spawn(proc("a", 0))
        sim.spawn(proc("b", 1))
        sim.run()
        assert times["a"] == pytest.approx(2.0, rel=1e-6)

    def test_disjoint_flows_do_not_interfere(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency=0.0)
        size = 1.25e9
        times = {}

        def proc(name, src, dst):
            yield fabric.transfer(src, dst, size)
            times[name] = sim.now

        sim.spawn(proc("a", 0, 1))
        sim.spawn(proc("b", 2, 3))
        sim.run()
        assert times["a"] == pytest.approx(1.0, rel=1e-6)
        assert times["b"] == pytest.approx(1.0, rel=1e-6)

    def test_late_arrival_shares_fairly(self):
        """Flow B arriving at t=1 shares the NIC; A finishes later than alone."""
        sim = Simulator()
        fabric = make_fabric(sim, latency=0.0)
        size = 2.5e9  # 2 seconds alone
        times = {}

        def flow_a():
            yield fabric.transfer(0, 1, size)
            times["a"] = sim.now

        def flow_b():
            yield sim.timeout(1.0)
            yield fabric.transfer(0, 2, size)
            times["b"] = sim.now

        sim.spawn(flow_a())
        sim.spawn(flow_b())
        sim.run()
        # A: 1s alone (half done) + 2s sharing = finishes at 3.0.
        assert times["a"] == pytest.approx(3.0, rel=1e-5)
        # B: shares for 2s (half done), then 1s alone: finishes at 4.0.
        assert times["b"] == pytest.approx(4.0, rel=1e-5)

    def test_bytes_conserved(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency=0.0)
        total = 0.0
        for i, size in enumerate((1e6, 2e6, 3e6)):
            total += size
            sim.spawn(self._one(sim, fabric, i % 3, (i + 1) % 3, size))
        sim.run()
        assert fabric.total_bytes_delivered == pytest.approx(total, rel=1e-6)

    @staticmethod
    def _one(sim, fabric, src, dst, size):
        yield fabric.transfer(src, dst, size)


class TestAnalyticTransferTime:
    def test_matches_event_fabric_single_flow(self):
        sim = Simulator()
        fabric = make_fabric(sim, latency=1e-3)
        size = 5e8
        event_time = run_transfer(sim, fabric, 0, 1, size)
        analytic = analytic_transfer_time(size, 10e9 / 8, 1e-3, sharers=1)
        assert event_time == pytest.approx(analytic, rel=1e-6)

    def test_sharers_scale_linearly(self):
        t1 = analytic_transfer_time(1e9, 1e9, 0.0, sharers=1)
        t4 = analytic_transfer_time(1e9, 1e9, 0.0, sharers=4)
        assert t4 == pytest.approx(4 * t1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            analytic_transfer_time(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            analytic_transfer_time(1.0, 1.0, 0.0, sharers=0)
