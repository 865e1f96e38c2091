"""Cluster substrate: nodes, network fabric, and role placement."""

from repro.cluster.cluster import Cluster, ClusterSpec, homogeneous
from repro.cluster.network import Fabric, Transfer, analytic_transfer_time
from repro.cluster.node import (
    BIG_CPU,
    CATALOGUE,
    GPU_K80,
    GPU_V100,
    STANDARD_CPU,
    Node,
    NodeSpec,
)
from repro.cluster.placement import Placement, PlacementError, place
from repro.cluster.topology import FLAT, Topology, two_tier

__all__ = [
    "BIG_CPU",
    "CATALOGUE",
    "Cluster",
    "ClusterSpec",
    "Fabric",
    "GPU_K80",
    "GPU_V100",
    "Node",
    "NodeSpec",
    "Placement",
    "PlacementError",
    "STANDARD_CPU",
    "FLAT",
    "Topology",
    "Transfer",
    "analytic_transfer_time",
    "homogeneous",
    "place",
    "two_tier",
]
