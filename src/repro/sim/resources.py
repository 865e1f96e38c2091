"""Shared resources for simulation processes.

Two primitives cover everything the cluster and training simulators need:

- :class:`Resource` — a counted resource (e.g. CPU slots on a node, service
  threads on a parameter server) with FIFO queueing.
- :class:`Store` — an unbounded FIFO message channel between processes
  (e.g. the request queue of a parameter-server shard).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator

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

    def use(self, duration: float) -> Generator:
        """A process body that acquires, holds for ``duration``, releases."""
        yield self.acquire()
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()


class Store:
    """An unbounded FIFO channel.

    ``put`` never blocks.  ``get`` returns a waitable that completes with the
    next item; pending gets are served in FIFO order.
    """

    def __init__(self, sim: Simulator, name: str = "store") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Signal] = deque()
        self.total_puts = 0

    def put(self, item: Any) -> None:
        """Deposit an item, waking the earliest waiting getter if any."""
        self.total_puts += 1
        if self._getters:
            self._getters.popleft().complete(item)
        else:
            self._items.append(item)

    def get(self) -> Waitable:
        """Return a waitable that completes with the next item."""
        signal = Signal(self.sim)
        if self._items:
            signal.complete(self._items.popleft())
        else:
            self._getters.append(signal)
        return signal

    def __len__(self) -> int:
        return len(self._items)
