"""Unit tests for counted resources and FIFO stores."""

import pytest

from repro.sim import Resource, SimulationError, Simulator, Store


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

    def test_use_helper_acquires_and_releases(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)

        def proc():
            yield sim.spawn(resource.use(3.0))

        sim.spawn(proc())
        sim.run()
        assert sim.now == 3.0
        assert resource.in_use == 0

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


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        log = []

        def getter():
            item = yield store.get()
            log.append(item)

        sim.spawn(getter())
        sim.run()
        assert log == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        log = []

        def getter():
            item = yield store.get()
            log.append((sim.now, item))

        def putter():
            yield sim.timeout(3.0)
            store.put("late")

        sim.spawn(getter())
        sim.spawn(putter())
        sim.run()
        assert log == [(3.0, "late")]

    def test_fifo_order_of_items(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.put(i)
        log = []

        def getter():
            for _ in range(5):
                item = yield store.get()
                log.append(item)

        sim.spawn(getter())
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_multiple_getters_served_fifo(self):
        sim = Simulator()
        store = Store(sim)
        log = []

        def getter(name):
            item = yield store.get()
            log.append((name, item))

        sim.spawn(getter("first"))
        sim.spawn(getter("second"))
        sim.run()
        store.put(1)
        store.put(2)
        sim.run()
        assert log == [("first", 1), ("second", 2)]

    def test_len_counts_buffered_items(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.put("b")
        assert len(store) == 2
