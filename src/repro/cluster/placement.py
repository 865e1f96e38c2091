"""Placement of training roles (parameter servers, workers) onto nodes.

The placement policy is itself part of the configuration space: colocating
parameter servers with workers saves machines but makes the shared NIC a
bottleneck; dedicating nodes to servers costs machines but isolates the
pull/push traffic.  Both strategies appear in real deployments, and which
wins depends on the model's compute/communication ratio — one of the
crossovers the tuner has to discover.
"""

from __future__ import annotations

from dataclasses import dataclass


class PlacementError(ValueError):
    """Raised when a role assignment cannot be satisfied by the cluster."""


@dataclass(frozen=True)
class Placement:
    """Concrete assignment of roles to node ids.

    ``ps_nodes`` and ``worker_nodes`` may overlap when colocated.
    """

    ps_nodes: tuple
    worker_nodes: tuple
    colocated: bool

    @property
    def num_ps(self) -> int:
        return len(self.ps_nodes)

    @property
    def num_workers(self) -> int:
        return len(self.worker_nodes)


def place(
    num_nodes: int,
    num_ps: int,
    num_workers: int,
    colocate: bool,
) -> Placement:
    """Assign parameter servers and workers to nodes.

    Dedicated mode: the first ``num_ps`` nodes host servers and the next
    ``num_workers`` host workers; requires ``num_ps + num_workers`` nodes.

    Colocated mode: workers occupy the first ``num_workers`` nodes and the
    servers are spread round-robin across those same nodes; requires
    ``max(num_ps, num_workers)`` nodes (servers beyond the worker count get
    their own nodes if available, mirroring TensorFlow's default behaviour
    of one PS task per machine).

    Nodes are used in ascending id order.
    """
    if num_ps < 0 or num_workers < 1:
        raise PlacementError(
            f"need num_ps >= 0 and num_workers >= 1, got ps={num_ps} workers={num_workers}"
        )
    order = list(range(num_nodes))

    if colocate:
        machines_needed = max(num_ps, num_workers)
        if machines_needed > len(order):
            raise PlacementError(
                f"colocated placement needs {machines_needed} nodes, cluster has {len(order)}"
            )
        worker_nodes = tuple(order[:num_workers])
        ps_nodes = tuple(order[i % machines_needed] for i in range(num_ps))
    else:
        machines_needed = num_ps + num_workers
        if machines_needed > len(order):
            raise PlacementError(
                f"dedicated placement needs {machines_needed} nodes, cluster has {len(order)}"
            )
        ps_nodes = tuple(order[:num_ps])
        worker_nodes = tuple(order[num_ps:num_ps + num_workers])

    return Placement(ps_nodes=ps_nodes, worker_nodes=worker_nodes, colocated=colocate)
