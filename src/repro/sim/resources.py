"""Shared resources for simulation processes.

:class:`Resource` is a counted resource (e.g. CPU slots on a node, service
threads on a parameter server) with FIFO queueing.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.kernel import Signal, SimulationError, Simulator, Waitable


class Resource:
    """A counted resource with FIFO acquisition order.

    Processes acquire with ``yield resource.acquire()`` and must release
    exactly once per acquisition.  FIFO ordering prevents starvation and
    keeps traces deterministic.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiting: Deque[Signal] = deque()
        # Cumulative statistics for queueing reports.
        self.total_acquisitions = 0
        self.total_wait_time = 0.0

    def acquire(self) -> Waitable:
        """Return a waitable that completes when a slot is granted."""
        signal = Signal(self.sim)
        if self.in_use < self.capacity and not self._waiting:
            self.in_use += 1
            self.total_acquisitions += 1
            signal.complete(self.sim.now)
        else:
            signal.requested_at = self.sim.now  # type: ignore[attr-defined]
            self._waiting.append(signal)
        return signal

    def release(self) -> None:
        """Release one slot, granting it to the earliest waiter if any."""
        if self.in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiting:
            signal = self._waiting.popleft()
            self.total_wait_time += self.sim.now - getattr(signal, "requested_at", self.sim.now)
            self.total_acquisitions += 1
            # Slot transfers directly to the waiter: in_use stays constant.
            signal.complete(self.sim.now)
        else:
            self.in_use -= 1
