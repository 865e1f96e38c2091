"""Deterministic discrete-event simulation kernel.

The :class:`Simulator` owns a simulated clock and an event queue.  Simulation
logic is written as generator-based *processes* (the classic SimPy style,
reimplemented here from scratch): a process is a generator that yields
scheduling requests — a delay, another process to join, or a custom
:class:`Waitable` — and the kernel resumes it when the request completes.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name):
...     yield sim.timeout(1.0)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker(sim, "a"))
>>> _ = sim.spawn(worker(sim, "b"))
>>> sim.run()
>>> log
[(1.0, 'a'), (1.0, 'b')]
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional

from repro.sim.events import Event, EventQueue


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling in the past)."""


class Waitable:
    """Base class for things a process can ``yield`` on.

    A waitable completes at most once.  Processes blocked on it are resumed
    with :attr:`value` as the result of their ``yield`` expression.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.completed = False
        self.value: Any = None
        self._waiters: list["Process"] = []

    def add_waiter(self, process: "Process") -> None:
        if self.completed:
            # Already done: resume the process immediately (at current time).
            self.sim.schedule(0.0, process.resume, (self.value,))
        else:
            self._waiters.append(process)

    def complete(self, value: Any = None) -> None:
        """Mark the waitable done and wake all blocked processes."""
        if self.completed:
            return
        self.completed = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self.sim.schedule(0.0, process.resume, (value,))


class Timeout(Waitable):
    """Completes after a fixed simulated delay."""

    def __init__(self, sim: "Simulator", delay: float) -> None:
        super().__init__(sim)
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.delay = delay
        sim.schedule(delay, self.complete)


class Signal(Waitable):
    """A manually triggered waitable (one-shot condition variable)."""


class Process(Waitable):
    """A running generator-based simulation process.

    The process itself is a :class:`Waitable`, so other processes may
    ``yield`` it to join on its completion; the join result is the value the
    generator returned.
    """

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.alive = True

    def start(self) -> None:
        self.sim.schedule(0.0, self.resume, (None,))

    def resume(self, value: Any = None) -> None:
        """Advance the generator by one step.

        Called by the kernel when whatever the process was waiting on
        completes.  The resumed generator yields its next request, which we
        register a continuation on.
        """
        if not self.alive:
            return
        try:
            request = self.generator.send(value)
        except StopIteration as stop:
            self.alive = False
            self.complete(stop.value)
            return
        self._register(request)

    def _register(self, request: Any) -> None:
        if isinstance(request, Waitable):
            request.add_waiter(self)
        elif isinstance(request, (int, float)):
            Timeout(self.sim, float(request)).add_waiter(self)
        elif isinstance(request, (list, tuple)):
            AllOf(self.sim, request).add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported request: {request!r}"
            )

    def kill(self) -> None:
        """Terminate the process without completing its joiners normally."""
        self.alive = False
        self.generator.close()
        self.complete(None)


class AllOf(Waitable):
    """Completes when every child waitable has completed.

    The completion value is the list of child values, in input order.
    """

    def __init__(self, sim: "Simulator", children: Iterable[Waitable]) -> None:
        super().__init__(sim)
        self.children = list(children)
        self._remaining = len(self.children)
        if self._remaining == 0:
            self.complete([])
            return
        for child in self.children:
            child.add_waiter(self._make_observer(child))

    def _make_observer(self, child: Waitable) -> "Process":
        # A tiny adapter process is overkill; instead we register a fake
        # process-like object exposing resume().  Using a closure keeps the
        # kernel's Waitable contract (resume(value)) without generator cost.
        outer = self

        class _Observer:
            @staticmethod
            def resume(_value: Any = None) -> None:
                outer._remaining -= 1
                if outer._remaining == 0 and not outer.completed:
                    outer.complete([c.value for c in outer.children])

        return _Observer()  # type: ignore[return-value]


class Simulator:
    """The simulation kernel: clock + event queue + process management."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self.queue = EventQueue()

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, callback, payload: tuple = ()) -> Event:
        """Schedule ``callback(*payload)`` to run ``delay`` after now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.queue.push(self.now + delay, callback, payload)

    def timeout(self, delay: float) -> Timeout:
        """A waitable that completes after ``delay`` simulated seconds."""
        return Timeout(self, delay)

    def signal(self) -> Signal:
        """A manually triggered waitable."""
        return Signal(self)

    def all_of(self, waitables: Iterable[Waitable]) -> AllOf:
        """A waitable that completes when all children complete."""
        return AllOf(self, waitables)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Create and start a process from a generator."""
        process = Process(self, generator, name=name)
        process.start()
        return process

    # -- execution -----------------------------------------------------

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        if event.time < self.now:
            raise SimulationError(
                f"time went backwards: event at {event.time} < now {self.now}"
            )
        self.now = event.time
        event.fire()
        return True

    def run(self, until: Optional[float] = None, max_steps: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` passes, or step cap.

        Returns the simulated time at which execution stopped.
        """
        steps = 0
        while True:
            if max_steps is not None and steps >= max_steps:
                break
            next_time = self.queue.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self.now = until
                break
            self.step()
            steps += 1
        if until is not None and self.now < until and self.queue.peek_time() is None:
            # Queue drained before the horizon: advance the clock to it so
            # callers measuring elapsed time see the full window.
            self.now = until
        return self.now
