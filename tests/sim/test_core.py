"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Engine, Signal
from repro.units import ns


def test_engine_starts_at_zero(engine):
    assert engine.now_ps == 0
    assert engine.now_ns == 0.0


def test_after_runs_callback_at_time(engine):
    seen = []
    engine.after(ns(5), seen.append, "x")
    engine.run()
    assert seen == ["x"]
    assert engine.now_ps == ns(5)


def test_at_in_past_rejected(engine):
    engine.after(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.at(5, lambda: None)


def test_negative_delay_rejected(engine):
    with pytest.raises(SimulationError):
        engine.after(-1, lambda: None)


def test_equal_time_events_fire_in_schedule_order(engine):
    order = []
    for i in range(10):
        engine.after(100, order.append, i)
    engine.run()
    assert order == list(range(10))


def test_run_until_stops_clock_at_bound(engine):
    engine.after(1000, lambda: None)
    stopped = engine.run(until_ps=500)
    assert stopped == 500
    assert engine.now_ps == 500
    engine.run()
    assert engine.now_ps == 1000


def test_step_on_empty_heap_returns_false(engine):
    assert engine.step() is False


def test_events_processed_counter(engine):
    for _ in range(3):
        engine.call_soon(lambda: None)
    engine.run()
    assert engine.events_processed == 3


class TestSignal:
    def test_fire_resumes_waiter_with_value(self, engine):
        sig = engine.signal("s")
        got = []

        def proc():
            value = yield sig
            got.append(value)

        engine.process(proc())
        sig.fire_after(ns(3), "hello")
        engine.run()
        assert got == ["hello"]

    def test_wait_on_already_fired_signal(self, engine):
        sig = engine.signal()
        sig.fire(42)

        def proc():
            value = yield sig
            return value

        assert engine.run_process(proc()) == 42

    def test_double_fire_rejected(self, engine):
        sig = engine.signal()
        sig.fire()
        with pytest.raises(SimulationError):
            sig.fire()

    def test_multiple_waiters_all_resume(self, engine):
        sig = engine.signal()
        got = []

        def proc(i):
            value = yield sig
            got.append((i, value))

        for i in range(3):
            engine.process(proc(i))
        sig.fire_after(10, "v")
        engine.run()
        assert sorted(got) == [(0, "v"), (1, "v"), (2, "v")]


class TestProcess:
    def test_yield_int_is_delay(self, engine):
        def proc():
            yield ns(7)
            return engine.now_ps

        assert engine.run_process(proc()) == ns(7)

    def test_child_process_result_propagates(self, engine):
        def child():
            yield 10
            return "child-result"

        def parent():
            result = yield engine.process(child())
            return result

        assert engine.run_process(parent()) == "child-result"

    def test_child_exception_reraised_in_parent(self, engine):
        def child():
            yield 1
            raise ValueError("boom")

        def parent():
            yield engine.process(child())

        with pytest.raises(ValueError, match="boom"):
            engine.run_process(parent())

    def test_unwaited_process_error_surfaces(self, engine):
        def proc():
            yield 1
            raise RuntimeError("lost")

        engine.process(proc())
        with pytest.raises(RuntimeError, match="lost"):
            engine.run()

    def test_yield_bad_type_raises(self, engine):
        def proc():
            yield "nope"

        with pytest.raises(SimulationError, match="unsupported"):
            engine.run_process(proc())

    def test_deadlock_detected(self, engine):
        sig = engine.signal()

        def proc():
            yield sig  # never fired

        with pytest.raises(SimulationError, match="deadlock"):
            engine.run_process(proc())

    def test_wait_on_finished_process(self, engine):
        def child():
            yield 1
            return 99

        proc = engine.process(child())
        engine.run()

        def parent():
            result = yield proc
            return result

        assert engine.run_process(parent()) == 99


class TestRunAll:
    def test_stops_when_the_last_process_is_done(self, engine):
        def proc(delay):
            yield delay
            return engine.now_ps

        procs = [engine.process(proc(d)) for d in (30, 10, 20)]
        engine.after(100, lambda: None)
        engine.run_all(procs, "trio")
        assert [p.result for p in procs] == [30, 10, 20]
        assert engine.now_ps == 30
        assert engine.step()  # the later timer is still queued

    def test_steps_exactly_like_the_all_done_loop(self):
        """One step() per pass: step counts, events and clock all match
        the ``while not all(p.done ...)`` loop it replaces."""
        def drive(use_run_all):
            eng = Engine()
            calls = [0]
            step = eng.step

            def counted():
                calls[0] += 1
                return step()

            eng.step = counted
            gate = eng.signal()

            def worker(i):
                for _ in range(3):
                    yield ns(i + 1)
                if i == 0:
                    gate.fire(i)
                else:
                    yield gate

            procs = [eng.process(worker(i)) for i in range(4)]
            if use_run_all:
                eng.run_all(procs, "workers")
            else:
                while not all(p.done for p in procs):
                    assert eng.step()
            return calls[0], eng.events_processed, eng.now_ps

        assert drive(True) == drive(False)

    def test_deadlock_names_the_run_and_a_waiting_process(self, engine):
        sig = engine.signal()

        def waiter():
            yield sig  # never fired

        def quick():
            yield 1

        procs = [engine.process(quick(), name="quick"),
                 engine.process(waiter(), name="stuck")]
        with pytest.raises(SimulationError,
                           match="run 'halo'.*'stuck'"):
            engine.run_all(procs, "halo")

    def test_no_processes_runs_nothing(self, engine):
        engine.after(5, lambda: None)
        engine.run_all([], "empty")
        assert engine.now_ps == 0 and engine.events_processed == 0


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        trace = []

        def worker(i):
            for step in range(3):
                yield ns(i + 1)
                trace.append((eng.now_ps, i, step))

        for i in range(4):
            eng.process(worker(i))
        eng.run()
        return trace

    assert build() == build()
