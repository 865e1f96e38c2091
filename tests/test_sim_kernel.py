"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    EventQueue,
    Signal,
    SimulationError,
    Simulator,
)


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, fired.append, (2,))
        queue.push(1.0, fired.append, (1,))
        queue.push(3.0, fired.append, (3,))
        while (event := queue.pop()) is not None:
            event.fire()
        assert fired == [1, 2, 3]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        for i in range(10):
            queue.push(1.0, fired.append, (i,))
        while (event := queue.pop()) is not None:
            event.fire()
        assert fired == list(range(10))

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        event = queue.push(1.0, fired.append, (1,))
        queue.push(2.0, fired.append, (2,))
        event.cancel()
        while (event := queue.pop()) is not None:
            event.fire()
        assert fired == [2]

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        event.cancel()
        assert queue.peek_time() == 5.0

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(float("nan"), lambda: None)

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, lambda: None)
        assert queue
        assert len(queue) == 1
        queue.clear()
        assert len(queue) == 0


class TestSimulatorScheduling:
    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        assert sim.now == 5.0

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until_stops_before_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, (1,))
        sim.run(until=5.0)
        assert fired == []
        assert sim.now == 5.0
        sim.run()
        assert fired == [1]

    def test_run_until_advances_clock_when_queue_drains(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_max_steps(self):
        sim = Simulator()
        fired = []
        for _ in range(10):
            sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run(max_steps=3)
        assert len(fired) == 3
        sim.run()
        assert len(fired) == 10


class TestProcesses:
    def test_simple_timeout_process(self):
        sim = Simulator()
        log = []

        def proc():
            yield sim.timeout(1.5)
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [1.5]

    def test_yield_number_is_timeout(self):
        sim = Simulator()
        log = []

        def proc():
            yield 2.0
            log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [2.0]

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()
        log = []

        def proc():
            for _ in range(3):
                yield sim.timeout(1.0)
                log.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert log == [1.0, 2.0, 3.0]

    def test_join_on_child_process(self):
        sim = Simulator()
        log = []

        def child():
            yield sim.timeout(4.0)
            return "done"

        def parent():
            result = yield sim.spawn(child())
            log.append((sim.now, result))

        sim.spawn(parent())
        sim.run()
        assert log == [(4.0, "done")]

    def test_all_of_waits_for_slowest(self):
        sim = Simulator()
        log = []

        def worker(delay):
            yield sim.timeout(delay)
            return delay

        def parent():
            results = yield sim.all_of(
                [sim.spawn(worker(d)) for d in (1.0, 3.0, 2.0)]
            )
            log.append((sim.now, results))

        sim.spawn(parent())
        sim.run()
        assert log == [(3.0, [1.0, 3.0, 2.0])]

    def test_all_of_empty_completes_immediately(self):
        sim = Simulator()
        log = []

        def parent():
            result = yield sim.all_of([])
            log.append(result)

        sim.spawn(parent())
        sim.run()
        assert log == [[]]

    def test_signal_wakes_waiter(self):
        sim = Simulator()
        signal = Signal(sim)
        log = []

        def waiter():
            value = yield signal
            log.append((sim.now, value))

        def firer():
            yield sim.timeout(7.0)
            signal.complete("fired")

        sim.spawn(waiter())
        sim.spawn(firer())
        sim.run()
        assert log == [(7.0, "fired")]

    def test_waiting_on_completed_waitable_resumes_immediately(self):
        sim = Simulator()
        signal = Signal(sim)
        signal.complete("early")
        log = []

        def waiter():
            value = yield signal
            log.append(value)

        sim.spawn(waiter())
        sim.run()
        assert log == ["early"]

    def test_negative_timeout_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-0.5)

    def test_unsupported_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "not a waitable"

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_determinism_two_identical_runs(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(name, delay):
                for _ in range(3):
                    yield sim.timeout(delay)
                    log.append((sim.now, name))

            sim.spawn(worker("a", 1.0))
            sim.spawn(worker("b", 1.0))
            sim.spawn(worker("c", 0.7))
            sim.run()
            return log

        assert build_and_run() == build_and_run()
