"""Two-tier datacenter topology: racks with oversubscribed uplinks.

The flat fabric (full bisection bandwidth) is the default and matches the
assumption most tuning papers make.  Real clusters are often *oversubscribed*:
a rack of ``k`` nodes with ``B``-byte/s NICs shares an uplink of capacity
``k·B / oversubscription``.  Cross-rack flows then contend on the uplink and
downlink in addition to the endpoint NICs, which changes the optimal
parameter-server placement — one more reason manual configuration fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence


@dataclass(frozen=True)
class Topology:
    """Rack assignment plus per-rack uplink/downlink capacities.

    ``rack_of`` maps node id → rack id.  Capacities are in bytes/second,
    one per direction (up toward the core, down from the core).
    """

    rack_of: Dict[int, int] = field(default_factory=dict)
    uplink_capacity: Dict[int, float] = field(default_factory=dict)
    downlink_capacity: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        racks = set(self.rack_of.values())
        missing_up = racks - set(self.uplink_capacity)
        missing_down = racks - set(self.downlink_capacity)
        if missing_up or missing_down:
            raise ValueError(
                f"racks missing capacities: up={sorted(missing_up)} down={sorted(missing_down)}"
            )
        for rack, capacity in list(self.uplink_capacity.items()) + list(
            self.downlink_capacity.items()
        ):
            if capacity <= 0:
                raise ValueError(f"rack {rack}: link capacity must be positive")

    def same_rack(self, a: int, b: int) -> bool:
        """True when both nodes sit in one rack (or topology is flat)."""
        if not self.rack_of:
            return True
        return self.rack_of.get(a) == self.rack_of.get(b)


def two_tier(
    nic_bytes_per_sec: Sequence[float],
    rack_size: int,
    oversubscription: float = 1.0,
) -> Topology:
    """Build a two-tier topology: nodes packed into racks in id order.

    ``oversubscription`` is the classic ratio: 1.0 means the uplink carries
    the rack's full aggregate NIC bandwidth (effectively non-blocking);
    4.0 means cross-rack capacity is a quarter of that.
    """
    if rack_size < 1:
        raise ValueError("rack_size must be >= 1")
    if oversubscription < 1.0:
        raise ValueError("oversubscription must be >= 1.0")
    rack_of: Dict[int, int] = {}
    aggregate: Dict[int, float] = {}
    for node_id, nic in enumerate(nic_bytes_per_sec):
        rack = node_id // rack_size
        rack_of[node_id] = rack
        aggregate[rack] = aggregate.get(rack, 0.0) + nic
    uplinks = {rack: agg / oversubscription for rack, agg in aggregate.items()}
    return Topology(
        rack_of=rack_of,
        uplink_capacity=dict(uplinks),
        downlink_capacity=dict(uplinks),
    )


FLAT = Topology()
"""The default flat topology: every pair of nodes enjoys full NIC bandwidth."""
