"""Unit tests for stores, resources and latches."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Engine
from repro.sim.queues import Latch, Resource, Store


class TestStore:
    def test_put_then_get(self, engine):
        store = Store(engine)
        store.put("a")

        def proc():
            item = yield store.get()
            return item

        assert engine.run_process(proc()) == "a"

    def test_get_blocks_until_put(self, engine):
        store = Store(engine)
        got = []

        def getter():
            item = yield store.get()
            got.append((engine.now_ps, item))

        engine.process(getter())
        engine.after(100, store.put, "late")
        engine.run()
        assert got == [(100, "late")]

    def test_fifo_order(self, engine):
        store = Store(engine)
        for i in range(5):
            store.put(i)
        out = []

        def drain():
            for _ in range(5):
                item = yield store.get()
                out.append(item)

        engine.run_process(drain())
        assert out == list(range(5))

    def test_capacity_blocks_putter(self, engine):
        store = Store(engine, capacity=1)
        events = []

        def producer():
            for i in range(3):
                yield store.put(i)
                events.append(("put", i, engine.now_ps))

        def consumer():
            for _ in range(3):
                yield 100
                item = yield store.get()
                events.append(("got", item, engine.now_ps))

        engine.process(producer())
        engine.process(consumer())
        engine.run()
        # The second put cannot complete before the first get.
        put_times = {i: t for kind, i, t in events if kind == "put"}
        got_times = {i: t for kind, i, t in events if kind == "got"}
        assert put_times[1] >= got_times[0]

    def test_try_put_respects_capacity(self, engine):
        store = Store(engine, capacity=2)
        assert store.try_put(1) and store.try_put(2)
        assert not store.try_put(3)
        assert len(store) == 2

    def test_free_slots(self, engine):
        assert Store(engine).free_slots is None
        store = Store(engine, capacity=3)
        store.put(1)
        assert store.free_slots == 2

    def test_invalid_capacity(self, engine):
        with pytest.raises(SimulationError):
            Store(engine, capacity=0)

    def test_put_hands_directly_to_waiting_getter(self, engine):
        store = Store(engine, capacity=1)
        results = []

        def getter():
            item = yield store.get()
            results.append(item)

        engine.process(getter())
        engine.run()
        store.put("direct")
        engine.run()
        assert results == ["direct"]
        assert len(store) == 0


class TestResource:
    def test_acquire_release(self, engine):
        res = Resource(engine, 2)

        def proc():
            yield res.acquire()
            yield res.acquire()
            assert res.available == 0
            res.release()
            assert res.available == 1

        engine.run_process(proc())

    def test_waiter_wakes_fifo(self, engine):
        res = Resource(engine, 1)
        order = []

        def worker(i):
            yield res.acquire()
            order.append(i)
            yield 10
            res.release()

        for i in range(3):
            engine.process(worker(i))
        engine.run()
        assert order == [0, 1, 2]

    def test_over_release_rejected(self, engine):
        res = Resource(engine, 1)
        with pytest.raises(SimulationError):
            res.release()

    def test_capacity_positive(self, engine):
        with pytest.raises(SimulationError):
            Resource(engine, 0)

    def test_pipelining_throughput(self, engine):
        """Capacity N allows N concurrent holders: 6 jobs of 100ps on 2
        slots finish at 300ps."""
        res = Resource(engine, 2)

        def job():
            yield res.acquire()
            yield 100
            res.release()

        for _ in range(6):
            engine.process(job())
        engine.run()
        assert engine.now_ps == 300


class TestLatch:
    def test_wait_zero_immediate(self, engine):
        latch = Latch(engine)
        assert latch.wait_zero().fired

    def test_wait_until_drained(self, engine):
        latch = Latch(engine)
        latch.up(3)

        def proc():
            yield latch.wait_zero()
            return engine.now_ps

        for t in (10, 20, 30):
            engine.after(t, latch.down)
        assert engine.run_process(proc()) == 30

    def test_negative_rejected(self, engine):
        latch = Latch(engine)
        with pytest.raises(SimulationError):
            latch.down()

    def test_up_negative_rejected(self, engine):
        latch = Latch(engine)
        with pytest.raises(SimulationError):
            latch.up(-1)
