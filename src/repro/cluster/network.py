"""Network fabric with NIC-level contention.

The fabric models the datacenter network the way the distributed-ML tuning
literature does: the core is non-blocking (full bisection bandwidth), so the
only contended resources are the per-node NICs.  This is exactly the regime
where parameter-server configuration matters — too few servers and their
egress NICs saturate during the pull phase; too many and you waste machines.

Transfers are simulated with *max-min fair sharing* recomputed at every
transfer arrival/departure (progressive filling).  This is the standard
fluid-flow approximation used by flow-level simulators; it captures the
first-order contention effects at a tiny fraction of packet-level cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim import Signal, Simulator, Waitable


@dataclass
class Transfer:
    """One in-flight flow between two nodes."""

    transfer_id: int
    src: int
    dst: int
    size_bytes: float
    remaining_bytes: float
    rate: float = 0.0  # bytes/sec, assigned by the fair-share solver
    started_at: float = 0.0
    done: Optional[Signal] = field(default=None, repr=False)
    links: tuple = ()  # contended links this flow crosses


class Fabric:
    """Flow-level network simulator with per-NIC max-min fair sharing.

    Parameters
    ----------
    sim:
        The simulation kernel.
    egress_capacity:
        Per-node NIC capacities in bytes/second, indexed by node id; a NIC
        has the same capacity in both directions.
    latency_s:
        One-way propagation + protocol latency applied to every transfer in
        addition to its serialisation time.
    """

    def __init__(
        self,
        sim: Simulator,
        egress_capacity: Dict[int, float],
        latency_s: float = 100e-6,
        topology: Optional["Topology"] = None,
    ) -> None:
        from repro.cluster.topology import FLAT

        self.sim = sim
        self.egress_capacity = dict(egress_capacity)
        self.latency_s = latency_s
        self.topology = topology if topology is not None else FLAT
        self._active: Dict[int, Transfer] = {}
        self._next_id = 0
        self._completion_event = None
        self.total_bytes_delivered = 0.0
        self.total_transfers = 0
        # Generic link table for the fair-share engine: endpoint NICs plus
        # (for two-tier topologies) rack uplinks/downlinks.
        self._link_capacity: Dict[tuple, float] = {}
        for node, capacity in self.egress_capacity.items():
            self._link_capacity[("eg", node)] = capacity
            self._link_capacity[("in", node)] = capacity
        for rack, capacity in self.topology.uplink_capacity.items():
            self._link_capacity[("up", rack)] = capacity
        for rack, capacity in self.topology.downlink_capacity.items():
            self._link_capacity[("down", rack)] = capacity

    def _flow_links(self, src: int, dst: int) -> tuple:
        """The contended links a src→dst flow crosses, in order."""
        links = [("eg", src), ("in", dst)]
        if self.topology.rack_of and not self.topology.same_rack(src, dst):
            links.append(("up", self.topology.rack_of[src]))
            links.append(("down", self.topology.rack_of[dst]))
        return tuple(links)

    # -- public API ------------------------------------------------------

    def transfer(self, src: int, dst: int, size_bytes: float) -> Waitable:
        """Start a flow of ``size_bytes`` from ``src`` to ``dst``.

        Returns a waitable that completes (with the simulated completion
        time) once the last byte is delivered.  Zero-byte transfers still
        pay the latency term.
        """
        if size_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        if src not in self.egress_capacity:
            raise KeyError(f"unknown source node {src}")
        if dst not in self.egress_capacity:
            raise KeyError(f"unknown destination node {dst}")
        done = Signal(self.sim)
        if size_bytes == 0 or src == dst:
            # Zero-byte messages and loopback traffic (colocated processes)
            # bypass the NIC: only the protocol latency applies.
            self.sim.schedule(self.latency_s, done.complete, (None,))
            return done
        flow = Transfer(
            transfer_id=self._next_id,
            src=src,
            dst=dst,
            size_bytes=size_bytes,
            remaining_bytes=size_bytes,
            started_at=self.sim.now,
            done=done,
            links=self._flow_links(src, dst),
        )
        self._next_id += 1
        self.total_transfers += 1
        self._drain_progress()
        self._active[flow.transfer_id] = flow
        self._reschedule()
        return done

    # -- fair-share engine -------------------------------------------------

    def _drain_progress(self) -> None:
        """Account bytes moved at current rates since the last recompute."""
        if not self._active:
            self._last_update = self.sim.now
            return
        elapsed = self.sim.now - getattr(self, "_last_update", self.sim.now)
        if elapsed > 0:
            for flow in self._active.values():
                moved = min(flow.remaining_bytes, flow.rate * elapsed)
                flow.remaining_bytes -= moved
                self.total_bytes_delivered += moved
        self._last_update = self.sim.now

    def _compute_fair_rates(self) -> None:
        """Max-min fair allocation over all contended links.

        Progressive filling: repeatedly find the most-constrained link
        (smallest capacity-left / unfrozen-flow-count), freeze its flows at
        that fair share, subtract, and continue with the rest.  Links are
        endpoint NICs plus, for cross-rack flows under a two-tier topology,
        the rack uplink and downlink.
        """
        flows = list(self._active.values())
        for flow in flows:
            flow.rate = 0.0
        unfrozen = set(f.transfer_id for f in flows)
        capacity_left = dict(self._link_capacity)

        while unfrozen:
            # Count unfrozen flows per link.
            load: Dict[tuple, int] = {}
            for flow in flows:
                if flow.transfer_id not in unfrozen:
                    continue
                for link in flow.links:
                    load[link] = load.get(link, 0) + 1

            best_share = None
            for link, count in load.items():
                share = capacity_left[link] / count
                if best_share is None or share < best_share:
                    best_share = share
            if best_share is None:
                break

            tight = {
                link
                for link, count in load.items()
                if capacity_left[link] / count <= best_share * (1 + 1e-12) + 1e-9
            }
            frozen_now = []
            for flow in flows:
                if flow.transfer_id not in unfrozen:
                    continue
                if any(link in tight for link in flow.links):
                    flow.rate = best_share
                    frozen_now.append(flow)
            if not frozen_now:  # numerical safety: freeze everything
                for flow in flows:
                    if flow.transfer_id in unfrozen:
                        flow.rate = best_share
                        frozen_now.append(flow)
            for flow in frozen_now:
                unfrozen.discard(flow.transfer_id)
                for link in flow.links:
                    capacity_left[link] = max(0.0, capacity_left[link] - flow.rate)

    def _reschedule(self) -> None:
        """Recompute rates and schedule the next flow completion."""
        if self._completion_event is not None:
            self._completion_event.cancel()
            self._completion_event = None
        if not self._active:
            return
        self._compute_fair_rates()
        soonest: Optional[float] = None
        for flow in self._active.values():
            if flow.rate <= 0:
                continue
            eta = flow.remaining_bytes / flow.rate
            if soonest is None or eta < soonest:
                soonest = eta
        if soonest is None:
            raise RuntimeError("active transfers but no positive rates")
        # Floor the ETA at a nanosecond so the simulated clock always
        # advances; combined with the relative finish threshold above this
        # guarantees the completion loop terminates.
        self._completion_event = self.sim.schedule(
            max(soonest, 1e-9), self._on_completion
        )

    def _on_completion(self) -> None:
        """Finish every flow whose remaining bytes hit zero, then reschedule."""
        self._completion_event = None
        self._drain_progress()
        # The finish threshold is relative to the flow size: equal-rate flows
        # completing "simultaneously" leave O(eps * size) residual bytes, and
        # an absolute epsilon would schedule ETAs too small to advance the
        # float clock (an infinite loop).  A millionth of a byte per byte of
        # flow is far below any quantity the simulation can resolve.
        finished = [
            flow
            for flow in self._active.values()
            if flow.remaining_bytes <= max(1e-6, 1e-6 * flow.size_bytes)
        ]
        for flow in finished:
            del self._active[flow.transfer_id]
            flow.remaining_bytes = 0.0
            # The latency term is paid at the end of serialisation.
            self.sim.schedule(self.latency_s, flow.done.complete, (self.sim.now,))
        self._reschedule()


def analytic_transfer_time(
    size_bytes: float, bottleneck_bytes_per_sec: float, latency_s: float, sharers: int = 1
) -> float:
    """Closed-form transfer time used by the analytic (fast) fidelity mode.

    ``sharers`` is the number of concurrent flows crossing the bottleneck
    NIC; with max-min fairness and equal sizes each gets 1/sharers of it.
    """
    if bottleneck_bytes_per_sec <= 0:
        raise ValueError("bandwidth must be positive")
    if sharers < 1:
        raise ValueError("sharers must be >= 1")
    return latency_s + size_bytes * sharers / bottleneck_bytes_per_sec
