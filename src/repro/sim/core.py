"""Discrete-event engine, signals and coroutine processes.

Design notes
------------
* Event order is defined by ``(time_ps, sequence)``; the monotonically
  increasing sequence number makes simultaneous events fire in the order
  they were scheduled, which keeps runs deterministic.
* Processes are plain generators.  They may yield:

  - an ``int`` — resume after that many picoseconds,
  - a :class:`Signal` — resume when it fires (receiving its value),
  - another :class:`Process` — resume when it finishes (receiving its
    return value); exceptions raised by the child are re-raised in the
    waiter.

* There is deliberately no wall-clock anywhere: simulated time only.

Dispatch modes
--------------
The engine ships two schedulers that produce **bit-identical** event
orders (see ``docs/performance.md`` for the invariants and the proof
sketch; ``tests/sim/test_dispatch_equivalence.py`` checks every registry
experiment byte-for-byte):

* ``"reference"`` — a pure heap scheduler: every event, including
  :meth:`Engine.call_soon`, is pushed onto the ``(time_ps, sequence)``
  heap.  Slow, obviously correct, and the oracle the differential tests
  compare against.
* ``"fast"`` (the default) — the production path: a FIFO ready deque as
  the *now bucket* for :meth:`Engine.call_soon` (the dominant scheduling
  call — every signal fire lands there and never needs heap ordering), the
  heap only for future timers.

Both run one fused dispatch loop shared by :meth:`Engine.run`'s
unbounded drain and :meth:`Engine.run_process`.

The default comes from the ``TCA_SIM_DISPATCH`` environment variable and
can be changed per-call-tree with :func:`set_default_dispatch` /
:func:`dispatch_mode`, or per engine with ``Engine(dispatch=...)``.
"""

from __future__ import annotations

import heapq
import os
from collections import deque
from contextlib import contextmanager
from typing import (Any, Callable, Deque, Generator, Iterable, Iterator, List,
                    Optional, Sequence, Set, Tuple)

from repro.errors import SimulationError
from repro.units import PS_PER_NS

ProcessGen = Generator[Any, Any, Any]

#: Recognised scheduler implementations (see module docstring).
DISPATCH_MODES = ("fast", "reference")


class _Forever:
    """Never-done stand-in process: :meth:`Engine.run`'s unbounded drain
    is the shared fused loop waiting on a process that never finishes."""

    __slots__ = ("done",)

    def __init__(self) -> None:
        self.done = False


_UNTIL_DRAINED = _Forever()

_default_dispatch = os.environ.get("TCA_SIM_DISPATCH", "fast")
if _default_dispatch not in DISPATCH_MODES:
    raise SimulationError(
        f"TCA_SIM_DISPATCH={_default_dispatch!r} is not one of "
        f"{DISPATCH_MODES}")


def set_default_dispatch(mode: str) -> str:
    """Set the process-wide default dispatch mode; returns the previous one."""
    global _default_dispatch
    if mode not in DISPATCH_MODES:
        raise SimulationError(
            f"unknown dispatch mode {mode!r}; expected one of "
            f"{DISPATCH_MODES}")
    previous = _default_dispatch
    _default_dispatch = mode
    return previous


@contextmanager
def dispatch_mode(mode: str) -> Iterator[None]:
    """Context manager: every engine built inside uses ``mode``.

    This is how the differential tests run a whole experiment — which
    constructs its engines internally — under the reference scheduler.
    """
    previous = set_default_dispatch(mode)
    try:
        yield
    finally:
        set_default_dispatch(previous)


class Signal:
    """A one-shot event that processes can wait on.

    A signal remembers that it fired, so waiting on an already-fired signal
    resumes immediately with the stored value.  Firing twice is an error —
    it almost always indicates a protocol bug in a hardware model.

    A pending signal can be cancelled via :meth:`cancel`: its scheduled fire (if any)
    is withdrawn from the event heap, waiters are dropped, and later fires
    become no-ops.  This is how the loser of a wait-with-timeout race is
    retired without padding drain-mode runs to the timer's expiry.
    """

    __slots__ = ("engine", "fired", "cancelled", "value", "_waiters", "name",
                 "_timer")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.fired = False
        self.cancelled = False
        self.value: Any = None
        self.name = name
        # Lazily allocated: most signals fire before anyone waits, and a
        # fresh list per signal shows up in profiles (one Signal per
        # queue operation on the hot path).
        self._waiters: Optional[List[Callable[[Any], None]]] = None
        self._timer: Optional[int] = None

    @classmethod
    def fired_signal(cls, engine: "Engine", name: str = "",
                     value: Any = None) -> "Signal":
        """Build a signal that is already fired with ``value``.

        Shorthand for ``Signal(engine, name)`` followed by ``fire(value)``,
        for the queue primitives' operations that complete at once (an
        accepted put, an immediate get, a granted slot).
        """
        signal = cls(engine, name)
        signal.fire(value)
        return signal

    def fire(self, value: Any = None) -> None:
        """Fire the signal now; waiters resume at the current time."""
        if self.cancelled:
            return
        if self.fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self.fired = True
        self.value = value
        self._timer = None
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None
            call_soon = self.engine.call_soon
            for callback in waiters:
                call_soon(callback, value)

    def fire_after(self, delay_ps: int, value: Any = None) -> None:
        """Schedule the signal to fire ``delay_ps`` from now."""
        self._timer = self.engine.after(delay_ps, self.fire, value)

    def cancel(self) -> None:
        """Retire a pending signal: drop waiters, void any scheduled fire.

        Cancelling an already-fired signal is a no-op (the race was lost
        anyway); cancelling twice is harmless.
        """
        if self.fired or self.cancelled:
            return
        self.cancelled = True
        self._waiters = None
        if self._timer is not None:
            self.engine.cancel_event(self._timer)
            self._timer = None

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when the signal fires (or now if it has)."""
        if self.fired:
            self.engine.call_soon(callback, self.value)
        elif not self.cancelled:
            if self._waiters is None:
                self._waiters = [callback]
            else:
                self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = ("fired" if self.fired
                 else "cancelled" if self.cancelled else "pending")
        return f"Signal({self.name!r}, {state})"


class Process:
    """A running coroutine process; itself yieldable from other processes."""

    __slots__ = ("engine", "generator", "name", "done", "result", "error",
                 "_waiters")

    def __init__(self, engine: "Engine", generator: ProcessGen, name: str = ""):
        self.engine = engine
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._waiters: List[Callable[[Any], None]] = []
        engine.call_soon(self._step, None)

    # -- wiring ------------------------------------------------------------

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(result)`` on completion (signal-compatible API)."""
        if self.done:
            self.engine.call_soon(callback, self.result)
        else:
            self._waiters.append(callback)

    def _finish(self, result: Any, error: Optional[BaseException]) -> None:
        self.done = True
        self.result = result
        self.error = error
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            self.engine.call_soon(callback, result)
        if error is not None and not waiters:
            # Nobody is waiting; surface the failure instead of losing it.
            raise error

    def _step(self, send_value: Any, throw: Optional[BaseException] = None) -> None:
        """Resume the generator and wait on what it yields next."""
        try:
            if throw is not None:
                yielded = self.generator.throw(throw)
            else:
                yielded = self.generator.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            self._finish(None, exc)
            return
        # Exact-class dispatch ordered by hot-path frequency: signals
        # from queue operations and bare-int delays dominate.
        cls = yielded.__class__
        if cls is Signal:
            yielded.add_callback(self._step)
        elif cls is int:
            self.engine.after(yielded, self._step, None)
        elif cls is Process:
            self._wait_child(yielded)
        else:
            bad = type(yielded).__name__
            self._step(None, SimulationError(
                f"process {self.name!r} yielded unsupported {bad}"))

    def _wait_child(self, child: "Process") -> None:
        def resume(result: Any, _child: "Process" = child) -> None:
            if _child.error is not None:
                self._step(None, throw=_child.error)
            else:
                self._step(result)

        child.add_callback(resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"


#: Callbacks invoked with every newly constructed :class:`Engine`.  An
#: observability session registers one to install its tracer/metrics on
#: each engine the experiments create (see :mod:`repro.obs.session`).
_engine_observers: List[Callable[["Engine"], None]] = []


def register_engine_observer(callback: Callable[["Engine"], None]) -> None:
    """Call ``callback(engine)`` for every Engine constructed from now on."""
    _engine_observers.append(callback)


def unregister_engine_observer(callback: Callable[["Engine"], None]) -> None:
    """Remove a previously registered engine observer (no-op if absent)."""
    try:
        _engine_observers.remove(callback)
    except ValueError:
        pass


class Engine:
    """The event loop: an integer-picosecond scheduler.

    In the default ``"fast"`` mode two internal queues carry events:

    * the **heap**, ordered by ``(time_ps, sequence)``, for anything
      scheduled at a future time;
    * the **ready deque**, a FIFO *now bucket* for :meth:`call_soon` — the
      dominant scheduling call (every signal fire goes through it), which
      never needs heap ordering because it always targets *now*.

    The global sequence number spans both queues, and :meth:`step` always
    picks the lowest ``(time, sequence)`` across them, so the event order
    is bit-identical to a pure-heap scheduler — just cheaper.  In
    ``"reference"`` mode :meth:`call_soon` pushes onto the heap instead and
    the ready deque stays empty: that *is* the pure-heap scheduler, kept
    as the oracle for the differential tests.
    """

    def __init__(self, dispatch: Optional[str] = None) -> None:
        if dispatch is None:
            dispatch = _default_dispatch
        elif dispatch not in DISPATCH_MODES:
            raise SimulationError(
                f"unknown dispatch mode {dispatch!r}; expected one of "
                f"{DISPATCH_MODES}")
        #: Which scheduler this engine runs ("fast" or "reference").
        self.dispatch = dispatch
        self.fast_dispatch = dispatch == "fast"
        self._now_ps = 0
        self._sequence = 0
        self._heap: List[Tuple[int, int, Callable[..., None], tuple]] = []
        #: call_soon fast path: (sequence, callback, args), all at now.
        self._ready: Deque[Tuple[int, Callable[..., None], tuple]] = deque()
        #: Sequence numbers of cancelled events, discarded lazily at pop
        #: and cleared wholesale whenever the queues drain (every token
        #: left at that point is stale — see :meth:`cancel_event`).
        self._cancelled: Set[int] = set()
        self.events_processed = 0
        #: Optional observability hook (repro.sim.trace.Tracer); hardware
        #: models emit routing/DMA/IRQ events through it when set.
        self.tracer = None
        #: Optional metrics hook (repro.obs.metrics.MetricsRegistry);
        #: components sample counters/gauges through it when set.  Like
        #: the tracer, a ``None`` check is the whole disabled-path cost.
        self.metrics = None
        #: Optional fault-injection hook (repro.faults.FaultInjector).
        #: Hardware models consult it at their fault points; when ``None``
        #: (the default) every fault path is skipped entirely, so an
        #: un-faulted run is picosecond-identical to an unhooked one.
        self.faults = None
        for callback in list(_engine_observers):
            callback(self)

    def trace(self, component: str, kind: str, *values: Any) -> None:
        """Emit a trace event if a tracer is installed (cheap when not);
        ``values`` follow :data:`repro.obs.events.FIELDS`."""
        if self.tracer is not None:
            self.tracer.emit(self._now_ps, component, kind, *values)

    # -- time --------------------------------------------------------------

    @property
    def now_ps(self) -> int:
        """Current simulated time in picoseconds."""
        return self._now_ps

    @property
    def now_ns(self) -> float:
        """Current simulated time in nanoseconds."""
        return self._now_ps / PS_PER_NS

    # -- scheduling ----------------------------------------------------------

    def at(self, time_ps: int, callback: Callable[..., None], *args: Any) -> int:
        """Run ``callback(*args)`` at absolute simulated time ``time_ps``.

        Returns an opaque token accepted by :meth:`cancel_event`.
        """
        if time_ps < self._now_ps:
            raise SimulationError(
                f"cannot schedule in the past ({time_ps} < {self._now_ps})")
        token = self._sequence
        heapq.heappush(self._heap, (int(time_ps), token, callback, args))
        self._sequence += 1
        return token

    def after(self, delay_ps: int, callback: Callable[..., None], *args: Any) -> int:
        """Run ``callback(*args)`` after ``delay_ps`` picoseconds.

        Returns an opaque token accepted by :meth:`cancel_event`.
        """
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        token = self._sequence
        heapq.heappush(self._heap,
                       (self._now_ps + int(delay_ps), token, callback, args))
        self._sequence += 1
        return token

    def call_soon(self, callback: Callable[..., None], *args: Any) -> int:
        """Run ``callback(*args)`` at the current time, after pending events.

        Returns an opaque token accepted by :meth:`cancel_event`.
        """
        token = self._sequence
        if self.fast_dispatch:
            self._ready.append((token, callback, args))
        else:
            heapq.heappush(self._heap,
                           (self._now_ps, token, callback, args))
        self._sequence += 1
        return token

    def cancel_event(self, token: int) -> None:
        """Withdraw a scheduled event before it runs.

        The event's queue entry is discarded lazily when it reaches the
        front, **without** advancing the clock or counting it in
        ``events_processed`` — a cancelled timer leaves no trace on a
        drain-mode run.

        Cancelling an event that already ran — or one that was already
        cancelled — is a documented no-op: sequence numbers are never
        reused, so a stale token can never suppress a future event.  Stale
        tokens are remembered only until the queues next drain, at which
        point the cancellation set is cleared wholesale (every token left
        in it is, by construction, stale).
        """
        self._cancelled.add(token)

    # -- factories -----------------------------------------------------------

    def signal(self, name: str = "") -> Signal:
        """Create a fresh one-shot :class:`Signal`."""
        return Signal(self, name)

    def process(self, generator: ProcessGen, name: str = "") -> Process:
        """Start a coroutine process from a generator."""
        return Process(self, generator, name)

    # -- running ---------------------------------------------------------------

    def step(self) -> bool:
        """Process one event; return False if no runnable event remains.

        Picks the lowest ``(time, sequence)`` across the ready deque and
        the heap; cancelled entries are discarded without running, without
        advancing the clock and without counting.
        """
        ready = self._ready
        heap = self._heap
        cancelled = self._cancelled
        while True:
            if ready and (not heap or heap[0][0] > self._now_ps
                          or heap[0][1] > ready[0][0]):
                seq, callback, args = ready.popleft()
                time_ps = self._now_ps
            elif heap:
                time_ps, seq, callback, args = heapq.heappop(heap)
            else:
                if cancelled:
                    cancelled.clear()
                return False
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self._now_ps = time_ps
            self.events_processed += 1
            callback(*args)
            return True

    def run(self, until_ps: Optional[int] = None) -> int:
        """Run until the queues drain or ``until_ps`` passes.

        Returns the simulated time (ps) when the loop stopped.  With
        ``until_ps`` the clock always lands exactly on ``until_ps`` —
        whether the next event lies beyond the bound or the queues
        drained early — so drain-to-a-deadline runs report consistent
        windows.
        """
        if until_ps is None:
            self._drain(_UNTIL_DRAINED)
            return self._now_ps
        while True:
            # Discard cancelled heads so the until_ps peek below (and the
            # drained-queue exit) only ever see live events.
            ready = self._ready
            cancelled = self._cancelled
            while ready and cancelled and ready[0][0] in cancelled:
                cancelled.discard(ready.popleft()[0])
            if not ready:
                heap = self._heap
                while heap and cancelled and heap[0][1] in cancelled:
                    cancelled.discard(heapq.heappop(heap)[1])
                if not heap or heap[0][0] > until_ps:
                    break
            if not self.step():
                break
        if self._now_ps < until_ps:
            self._now_ps = until_ps
        return self._now_ps

    def run_process(self, generator: ProcessGen, name: str = "") -> Any:
        """Start a process and run the engine until it completes.

        This is the main entry point for "measure one transfer" experiments.
        """
        proc = self.process(generator, name)
        self._drain(proc)
        if proc.error is not None:
            raise proc.error
        return proc.result

    def run_all(self, procs: Sequence[Process], name: str) -> None:
        """Step the engine until every process in ``procs`` is done.

        The driver loop of multi-process runs (collectives, contention
        flows, application ranks).  ``done`` never reverts, so a pointer
        moves along ``procs`` past finished processes and each loop pass
        costs one :meth:`step` plus amortised O(1) bookkeeping.  Raises
        :class:`~repro.errors.SimulationError` naming the run if the
        queues drain first.
        """
        step = self.step
        index, count = 0, len(procs)
        while True:
            while index < count and procs[index].done:
                index += 1
            if index == count:
                return
            if not step():
                raise SimulationError(
                    f"deadlock: run {name!r} is still waiting on process "
                    f"{procs[index].name!r} but no events remain")

    def _drain(self, proc: Any) -> None:
        """The fused dispatch loop: run events until ``proc`` is done.

        The :meth:`step` body inlined with the queues bound to locals —
        one Python frame for the whole run instead of one per event.
        Queues draining first is the normal end of an unbounded
        :meth:`run` (``proc`` is the never-done :data:`_UNTIL_DRAINED`)
        and a deadlock for :meth:`run_process`.
        """
        ready = self._ready
        heap = self._heap
        cancelled = self._cancelled
        pop_ready = ready.popleft
        heappop = heapq.heappop
        while not proc.done:
            if ready and (not heap or heap[0][0] > self._now_ps
                          or heap[0][1] > ready[0][0]):
                seq, callback, args = pop_ready()
                time_ps = self._now_ps
            elif heap:
                time_ps, seq, callback, args = heappop(heap)
            else:
                cancelled.clear()
                if proc is _UNTIL_DRAINED:
                    return
                raise SimulationError(
                    f"deadlock: process {proc.name!r} is still waiting "
                    "but no events remain")
            if cancelled and seq in cancelled:
                cancelled.discard(seq)
                continue
            self._now_ps = time_ps
            self.events_processed += 1
            callback(*args)


def first_of(engine: Engine, waitables: Iterable[Any]) -> Signal:
    """Signal that fires with ``(index, value)`` of the first waitable.

    Later finishers are ignored (their callbacks find the race already
    decided).  This is the primitive behind every wait-with-timeout: race
    the interesting signal against a timer.

    ``first_of`` never cancels the losers itself — a loser may be shared
    (the completion signal of a chain that outlives one timeout round) —
    but a caller that *owns* a losing :class:`Signal` should
    :meth:`~Signal.cancel` it, or its scheduled events stay in the heap
    and pad drain-mode runs to the timer's full expiry.
    """
    items = list(waitables)
    if not items:
        raise SimulationError("first_of needs at least one waitable")
    done = engine.signal("first_of")

    def make_callback(index: int) -> Callable[[Any], None]:
        def callback(value: Any) -> None:
            if not done.fired:
                done.fire((index, value))

        return callback

    for i, item in enumerate(items):
        item.add_callback(make_callback(i))
    return done
