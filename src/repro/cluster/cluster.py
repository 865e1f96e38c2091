"""Cluster assembly: pools of nodes plus a network fabric.

A :class:`ClusterSpec` is the static description used by the tuner and
harness (how many nodes of which type, network latency, straggler mix).  A
:class:`Cluster` is the simulation-time instantiation bound to a kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.network import Fabric
from repro.cluster.node import CATALOGUE, Node, NodeSpec
from repro.cluster.topology import two_tier
from repro.sim import RngRegistry, Simulator


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster.

    Attributes
    ----------
    pools:
        Sequence of ``(node_spec, count)`` pairs.
    latency_s:
        One-way network latency between any two nodes.
    straggler_fraction:
        Fraction of nodes that are persistent stragglers.
    straggler_slowdown:
        Speed factor applied to straggler nodes (e.g. 0.5 = half speed).
    jitter_cv:
        Coefficient of variation of per-node speed (mild lognormal
        heterogeneity applied to *all* nodes, stragglers included).
    rack_size:
        Nodes per rack for a two-tier topology; None means a flat
        full-bisection fabric (the default assumption in the literature).
    oversubscription:
        Uplink oversubscription ratio for the two-tier topology
        (cross-rack capacity = rack aggregate NIC bandwidth / this ratio).
    """

    pools: Tuple[Tuple[NodeSpec, int], ...]
    latency_s: float = 200e-6
    straggler_fraction: float = 0.0
    straggler_slowdown: float = 0.5
    jitter_cv: float = 0.03
    rack_size: Optional[int] = None
    oversubscription: float = 1.0

    def __post_init__(self) -> None:
        if not self.pools:
            raise ValueError("cluster must have at least one node pool")
        for spec, count in self.pools:
            if count < 1:
                raise ValueError(f"pool {spec.name!r} must have count >= 1")
        if not 0.0 <= self.straggler_fraction <= 1.0:
            raise ValueError("straggler_fraction must be in [0, 1]")
        if not 0.0 < self.straggler_slowdown <= 1.0:
            raise ValueError("straggler_slowdown must be in (0, 1]")
        if self.rack_size is not None and self.rack_size < 1:
            raise ValueError("rack_size must be >= 1 when set")
        if self.oversubscription < 1.0:
            raise ValueError("oversubscription must be >= 1.0")

    @property
    def total_nodes(self) -> int:
        """Number of machines across all pools."""
        return sum(count for _, count in self.pools)

    def node_specs(self) -> List[NodeSpec]:
        """The spec of each node, flattened in pool order."""
        specs: List[NodeSpec] = []
        for spec, count in self.pools:
            specs.extend([spec] * count)
        return specs


def homogeneous(
    count: int,
    spec: NodeSpec | str = "std-cpu",
    **overrides,
) -> ClusterSpec:
    """Convenience builder for a single-pool cluster.

    ``spec`` may be a :class:`NodeSpec` or the name of a catalogue entry.
    Additional keyword arguments are forwarded to :class:`ClusterSpec`.
    """
    if isinstance(spec, str):
        try:
            spec = CATALOGUE[spec]
        except KeyError:
            raise KeyError(
                f"unknown node type {spec!r}; catalogue has {sorted(CATALOGUE)}"
            ) from None
    return ClusterSpec(pools=((spec, count),), **overrides)


class Cluster:
    """Simulation-time cluster: concrete nodes plus the network fabric.

    Construction is deterministic given ``(spec, rng)``: straggler selection
    and per-node jitter come from named RNG streams.
    """

    def __init__(self, sim: Simulator, spec: ClusterSpec, rng: RngRegistry) -> None:
        self.sim = sim
        self.spec = spec
        self.nodes: List[Node] = []

        jitter_rng = rng.stream("cluster.jitter")
        straggler_rng = rng.stream("cluster.stragglers")

        node_id = 0
        for node_spec in spec.node_specs():
            factor = 1.0
            if spec.jitter_cv > 0:
                # Lognormal with unit median keeps the nominal spec meaningful.
                factor *= float(jitter_rng.lognormal(mean=0.0, sigma=spec.jitter_cv))
            node = Node(node_id=node_id, spec=node_spec, speed_factor=factor)
            node.attach(sim)
            self.nodes.append(node)
            node_id += 1

        # Straggler selection: a fixed number of nodes, chosen without
        # replacement, get the persistent slowdown.
        n_stragglers = int(round(spec.straggler_fraction * len(self.nodes)))
        if n_stragglers > 0:
            chosen = straggler_rng.choice(len(self.nodes), size=n_stragglers, replace=False)
            for idx in chosen:
                self.nodes[int(idx)].speed_factor *= spec.straggler_slowdown
        self.straggler_ids = sorted(
            node.node_id
            for node in self.nodes
            if node.speed_factor < 1.0 - 2 * spec.jitter_cv - 1e-9
        ) if n_stragglers > 0 else []

        topology = None
        if spec.rack_size is not None:
            topology = two_tier(
                [n.spec.nic_bytes_per_sec for n in self.nodes],
                rack_size=spec.rack_size,
                oversubscription=spec.oversubscription,
            )
        self.topology = topology
        self.fabric = Fabric(
            sim,
            egress_capacity={n.node_id: n.spec.nic_bytes_per_sec for n in self.nodes},
            latency_s=spec.latency_s,
            topology=topology,
        )

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        """Look up a node by id."""
        return self.nodes[node_id]
