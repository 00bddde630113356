"""Property-based tests of the engine's dispatch semantics (PR 9).

The fast dispatch path earns its keep only while it is indistinguishable
from the reference heap.  These properties pin the load-bearing
semantics down over *random* programs, where hand-written regression
cases cannot reach:

* same-timestamp events fire in scheduling (FIFO) order — the
  ``(time, sequence)`` total order;
* ``call_soon`` work runs at the current instant, before any later
  timer, in submission order;
* a cancelled event never fires, no matter when it is cancelled
  relative to other traffic at the same timestamp;
* and the one that subsumes them all: an arbitrary random schedule
  executes identically under ``"fast"`` and ``"reference"`` dispatch.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.core import DISPATCH_MODES, Engine

# One random "program op": (delay bucket, action code).  Small delay
# ranges force heavy timestamp collisions, which is where ordering bugs
# live; action codes mix timers, call_soon chains, signals and processes.
_ops = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)),
                min_size=1, max_size=50)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2**20)),
                min_size=1, max_size=80))
def test_same_timestamp_events_fire_in_scheduling_order(schedule):
    """Ties on the clock resolve by sequence number — strict FIFO."""
    engine = Engine()
    fired = []
    for i, (t, _) in enumerate(schedule):
        engine.at(t, fired.append, (t, i))
    engine.run()
    assert fired == sorted(fired)
    assert len(fired) == len(schedule)


@given(st.integers(1, 20), st.integers(0, 100))
def test_call_soon_runs_now_in_submission_order(chain, timer_ps):
    """call_soon work drains at the current instant before later timers."""
    engine = Engine()
    order = []

    def enqueue():
        engine.at(timer_ps + 1, order.append, "timer")
        for i in range(chain):
            engine.call_soon(order.append, i)
        yield timer_ps
        order.append("resumed")

    engine.process(enqueue())
    engine.run()
    # The call_soon chain drains first (even when the process resumes at
    # the same instant through the same now-bucket), then the timer.
    assert order == list(range(chain)) + ["resumed", "timer"]
    assert engine.now_ps == timer_ps + 1


@given(st.lists(st.integers(0, 8), min_size=1, max_size=30),
       st.data())
def test_cancelled_events_never_fire(delays, data):
    """Cancel any subset before running: exactly the rest fire, in order."""
    engine = Engine()
    fired = []
    tokens = [engine.at(d, fired.append, i)
              for i, d in enumerate(delays)]
    doomed = {i for i in range(len(tokens))
              if data.draw(st.booleans(), label=f"cancel[{i}]")}
    for i in doomed:
        engine.cancel_event(tokens[i])
    engine.run()
    survivors = [i for i in range(len(delays)) if i not in doomed]
    assert fired == sorted(survivors, key=lambda i: (delays[i], i))


@settings(max_examples=40)
@given(_ops, st.sampled_from([None, 40, 200]))
def test_random_schedules_match_reference_dispatch(ops, until_ps):
    """Fast dispatch is observationally identical to the reference heap.

    A random mix of timers, call_soon bursts, signal waits and child
    processes, including bounded ``run(until_ps=...)``, must yield the
    same trace, final clock and event count under both dispatch modes.
    """
    outcomes = {}
    for mode in DISPATCH_MODES:
        engine = Engine(dispatch=mode)
        trace = []

        def leaf(tag, delay_ps, engine=engine, trace=trace):
            yield delay_ps
            trace.append(("leaf", tag, engine.now_ps))

        def runner(engine=engine, trace=trace):
            for i, (delay, action) in enumerate(ops):
                if action == 0:
                    yield delay
                    trace.append(("delay", i, engine.now_ps))
                elif action == 1:
                    engine.call_soon(trace.append, ("soon", i))
                    yield delay
                elif action == 2:
                    sig = engine.signal(f"s{i}")
                    engine.after(delay, sig.fire, i)
                    value = yield sig
                    trace.append(("sig", value, engine.now_ps))
                else:
                    child = engine.process(leaf(i, delay))
                    yield child
                    trace.append(("joined", i, engine.now_ps))

        engine.process(runner())
        engine.run(until_ps=until_ps)
        outcomes[mode] = (trace, engine.now_ps, engine.events_processed)
    assert outcomes["fast"] == outcomes["reference"]
