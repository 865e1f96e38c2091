"""Unit tests for counted resources."""

import pytest

from repro.sim import Resource, SimulationError, Simulator


class TestResource:
    def test_capacity_validation(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)

    def test_immediate_grant_under_capacity(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        log = []

        def proc(name):
            yield resource.acquire()
            log.append((sim.now, name))
            yield sim.timeout(1.0)
            resource.release()

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert log == [(0.0, "a"), (0.0, "b")]

    def test_fifo_queueing_over_capacity(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        log = []

        def proc(name):
            yield resource.acquire()
            log.append((sim.now, name))
            yield sim.timeout(2.0)
            resource.release()

        for name in ("a", "b", "c"):
            sim.spawn(proc(name))
        sim.run()
        assert log == [(0.0, "a"), (2.0, "b"), (4.0, "c")]

    def test_release_on_idle_raises(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_queue_length_counts_waiters(self):
        # Both waiters queue behind the holder and are served at its release.
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        granted = []

        def holder():
            yield resource.acquire()
            yield sim.timeout(5.0)
            resource.release()

        def waiter():
            yield resource.acquire()
            granted.append(sim.now)
            resource.release()

        sim.spawn(holder())
        sim.spawn(waiter())
        sim.spawn(waiter())
        sim.run(until=1.0)
        assert granted == []
        sim.run()
        assert granted == [5.0, 5.0]

    def test_total_wait_time_accumulates(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def proc():
            yield resource.acquire()
            yield sim.timeout(4.0)
            resource.release()

        sim.spawn(proc())
        sim.spawn(proc())
        sim.run()
        assert resource.total_wait_time == pytest.approx(4.0)

