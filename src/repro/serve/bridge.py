"""The serving layer's job table and its async/sync bridge.

:class:`ServeBridge` owns the one table of served jobs.  A job id is
the content key the result cache uses, so identical submits collapse
onto one job, and a key whose result is already cached is done the
moment it is submitted.  The bridge also owns the boundary between two
worlds:

* the **asyncio event-loop thread**, where every HTTP request is
  parsed and answered.  Handlers call :meth:`submit` and the readers
  (:meth:`job`, :meth:`jobs`, :meth:`counts`, :meth:`result_text`) and
  park on :meth:`wait_done` / :meth:`wait_event` without blocking the
  loop;

* a single **executor thread**, which pulls every cold job key queued
  so far off a queue and runs the batch on one
  :class:`~repro.bench.jobs.JobScheduler` — in the executor thread for
  ``workers=1``, on a supervised fork pool for more.

The two meet only through thread-safe primitives: the table's lock,
held for dictionary reads and writes and never across a cache read or
write, a ``queue.SimpleQueue`` of cold keys, and
``loop.call_soon_threadsafe`` wakeups.  The scheduler runs on copies
of the table's jobs, and the table holds each job as its last ``job``
record left it.  A ``done`` or ``failed`` record is *booked* before it
is stored: the payload is pushed into the result cache and the metrics
are counted, and only then does the table's job turn finished and its
waiters wake.  So a reader that sees a job finished also sees its
result cached and counted, and the table job's ``state`` is all any
reader asks.  The job's SSE frames are the scheduler's ``job`` records,
as the journal holds them.  When the harness itself raises (a cache
write, a journal append), the job is booked ``failed`` with the error
and one more ``job`` frame says so; the executor thread lives on.

Every interesting instant is counted on a :class:`repro.obs.runlog.RunLog`
registry (queue depth, cache-hit latency, worker saturation, compute
wall time), so ``GET /metrics`` is a window into exactly the same
telemetry the suite runner exports.
"""

from __future__ import annotations

import asyncio
import dataclasses
import queue
import threading
import traceback
from typing import Any, Dict, List, Optional

from repro.bench.cache import ResultCache, cache_key, sources_fingerprint
from repro.bench.experiments import REGISTRY
from repro.bench.jobs import (DONE, FAILED, JOB_STATES, Job, JobScheduler,
                              Journal, default_deadline_s)
from repro.bench.suite import run_entry
from repro.errors import ConfigError
from repro.model.anchors import calibration_fingerprint
from repro.obs.runlog import RunLog

#: Executor shutdown sentinel (queue items are otherwise job keys).
_STOP = object()

#: Safety cap on a single event-chain wait; a missed wakeup costs at
#: most this much added latency instead of a hang.
_WAIT_SLICE_S = 0.5


class ServeBridge:
    """The table of served jobs, bridged into an asyncio event loop."""

    def __init__(self, cache: ResultCache, workers: int = 1, seed: int = 0,
                 journal: Optional[Journal] = None):
        self.cache = cache
        self.workers = max(1, workers)
        self.seed = seed
        self.journal = journal
        self.runlog = RunLog(label="serve")
        self._calib_fp = calibration_fingerprint()
        self._sources_fp = sources_fingerprint()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: content key -> the job as its last ``job`` record left it (a
        #: finished one only once booked), in submission order; only
        #: the executor thread replaces a cold key's job
        self._jobs: Dict[str, Job] = {}
        #: per-key progress events for the SSE stream, oldest first
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        #: per-key single-use wakeup events (event-chain pattern)
        self._wakeups: Dict[str, asyncio.Event] = {}
        self._drain_event: Optional[asyncio.Event] = None
        self.draining = False

        m = self.runlog.metrics
        self._c_cache_hit = m.counter("serve.submit.cache_hit")
        self._c_cold = m.counter("serve.submit.cold")
        self._c_deduped = m.counter("serve.submit.deduped")
        self._c_computed = m.counter("serve.jobs.computed")
        self._c_failed = m.counter("serve.jobs.failed")
        self._h_hit_us = m.histogram("serve.cache.hit_us")
        self._h_compute_ms = m.histogram("serve.compute_ms")
        self._g_depth = m.gauge("serve.queue.depth")
        self._g_busy = m.gauge("serve.workers.busy")
        self._g_depth.set(0)
        self._g_busy.set(0)

    # -- lifecycle -------------------------------------------------------

    def start(self, loop: asyncio.AbstractEventLoop) -> None:
        """Bind the event loop and start the executor thread."""
        self._loop = loop
        self._drain_event = asyncio.Event()
        self._thread = threading.Thread(target=self._executor_loop,
                                        name="serve-executor",
                                        daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop the executor thread (after any in-flight job)."""
        if self._thread is not None:
            self._queue.put(_STOP)
            self._thread.join()
            self._thread = None

    async def drain(self) -> None:
        """Wait until every accepted cold job has been booked.

        The caller is expected to have stopped accepting new submits
        first (:attr:`draining`); status/result/metrics reads stay
        live throughout.
        """
        self.draining = True
        while True:
            with self._lock:
                if not self._unbooked():
                    return
            self._drain_event.clear()
            try:
                await asyncio.wait_for(self._drain_event.wait(),
                                       _WAIT_SLICE_S)
            except asyncio.TimeoutError:
                pass

    # -- submission (any thread) -----------------------------------------

    def submit(self, entry: str, mode: str = "full",
               seed: Optional[int] = None) -> Dict[str, Any]:
        """Submit one experiment; never blocks on computation.

        Safe from any thread.  Returns the job's content key and how
        the submit resolved: ``created`` is false when the submit
        attached to the existing job for the same key (racing identical
        submits collapse onto one job), and ``cache_hit`` is true when
        the result cache finished the new job at once.  A new cold job
        is queued for the executor.
        """
        t0 = self.runlog.now_ps()
        spec = REGISTRY.get(entry)
        if spec is None:
            raise ConfigError(f"unknown registry entry {entry!r}")
        seed = self.seed if seed is None else seed
        key = cache_key(entry, spec.params_for(mode), self._calib_fp,
                        self._sources_fp, seed)
        with self._lock:
            created = key not in self._jobs
        if created:
            job = Job(name=entry, eid=spec.eid, key=key, mode=mode,
                      seed=seed, cost_s=spec.cost_s,
                      deadline_s=default_deadline_s(spec.cost_s))
            hit = self.cache.get(key)  # outside the lock: a file read
            if hit is not None:
                job.payload_json = hit
                job.transition(DONE)
            with self._lock:
                # An identical submit on another thread may have won.
                created = self._jobs.setdefault(key, job) is job
                self._g_depth.set(self._unbooked())
        if not created:
            self._c_deduped.inc()
            return {"key": key, "created": False, "cache_hit": False}
        self._record_event(key, "submit", name=entry, mode=mode,
                           seed=seed, state=job.state)
        if self.journal is not None:
            try:
                self.journal.record("submit", name=entry, key=key,
                                    mode=mode, seed=seed, state=job.state)
            except OSError as exc:
                self._book_failed(job, "journal append failed: "
                                  f"{type(exc).__name__}: {exc}")
                return {"key": key, "created": True, "cache_hit": False}
        if job.state == DONE:
            # Cache hit: the whole request path never left this thread.
            self._c_cache_hit.inc()
            self._h_hit_us.observe(
                (self.runlog.now_ps() - t0) / 1e6)  # ps -> us
            self._record_event(key, "job", name=entry, state=DONE,
                               cache="hit")
            return {"key": key, "created": True, "cache_hit": True}
        self._c_cold.inc()
        self._queue.put(key)
        return {"key": key, "created": True, "cache_hit": False}

    # -- reading (any thread) --------------------------------------------

    def job(self, key: str) -> Optional[Job]:
        """The table's job for ``key``, or None if it was never submitted."""
        with self._lock:
            return self._jobs.get(key)

    def jobs(self) -> List[Dict[str, Any]]:
        """Every known job's snapshot, in submission order."""
        with self._lock:
            return [job.to_dict() for job in self._jobs.values()]

    def counts(self) -> Dict[str, int]:
        """How many known jobs sit in each state right now."""
        counts = dict.fromkeys(JOB_STATES, 0)
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] += 1
        return counts

    def result_text(self, key: str) -> Optional[str]:
        """The canonical payload text for a content key, verbatim.

        The done job's payload, else the result cache's (a result an
        earlier run computed); None when neither has it.  This is the
        byte-identity contract: the text is exactly what the suite and
        cache store, never re-serialized.
        """
        job = self.job(key)
        if job is not None and job.state == DONE:
            return job.payload_json
        return self.cache.get(key)  # outside the lock: a file read

    def events(self, key: str) -> List[Dict[str, Any]]:
        """Snapshot of the job's progress events, oldest first."""
        with self._lock:
            return list(self._events.get(key, ()))

    def _unbooked(self) -> int:
        """Cold jobs accepted but not yet booked: the queue depth.

        The caller holds the lock.
        """
        return sum(not job.finished for job in self._jobs.values())

    # -- waiting (event-loop thread) -------------------------------------

    async def wait_done(self, key: str,
                        timeout_s: float = 60.0) -> Job:
        """Wait until the job is booked finished (or the timeout passes).

        Returns the job either way; callers check ``job.finished``.
        """
        deadline = self._loop.time() + timeout_s
        while True:
            job = self.job(key)
            remaining = deadline - self._loop.time()
            if job.finished or remaining <= 0:
                return job
            await self._await_wakeup(key, min(remaining, _WAIT_SLICE_S))

    async def wait_event(self, key: str, after_seq: int,
                         timeout_s: float = 60.0
                         ) -> List[Dict[str, Any]]:
        """Progress events with ``seq > after_seq``, waiting if none yet.

        Returns an empty list only on timeout or when the job is
        already finished with no events left to deliver.
        """
        deadline = self._loop.time() + timeout_s
        while True:
            fresh = [e for e in self.events(key) if e["seq"] > after_seq]
            if fresh:
                return fresh
            remaining = deadline - self._loop.time()
            if self.job(key).finished or remaining <= 0:
                return []
            await self._await_wakeup(key, min(remaining, _WAIT_SLICE_S))

    async def _await_wakeup(self, key: str, timeout_s: float) -> None:
        ev = self._wakeups.setdefault(key, asyncio.Event())
        try:
            await asyncio.wait_for(ev.wait(), timeout_s)
        except asyncio.TimeoutError:
            pass

    # -- executor (its own thread) ---------------------------------------

    def _executor_loop(self) -> None:
        while True:
            # Batch everything already queued onto one scheduler run.
            batch = [self._queue.get()]
            while True:
                try:
                    batch.append(self._queue.get_nowait())
                except queue.Empty:
                    break
            keys = [k for k in batch if k is not _STOP]
            if keys:
                self._run_batch(keys)
            if len(keys) < len(batch):
                return

    def _run_batch(self, keys: List[str]) -> None:
        with self._lock:
            work = {key: dataclasses.replace(self._jobs[key])
                    for key in keys}
        self._g_busy.set(min(len(work), self.workers))

        def on_event(t: str, info: Dict[str, Any]) -> None:
            key = info.get("key")
            if key is None:
                return
            self._record_event(key, t, **{
                k: v for k, v in info.items()
                if k not in ("key", "payload_json")})
            if t == "job":
                self._book(work[key])
            self._notify(key)

        error = None
        try:
            JobScheduler(list(work.values()), run_entry,
                         workers=self.workers, journal=self.journal,
                         on_event=on_event).run()
        except Exception as exc:  # e.g. a journal append raised
            traceback.print_exc()
            error = f"scheduler raised: {type(exc).__name__}: {exc}"
        self._g_busy.set(0)
        for job in work.values():
            if error is None:
                self._book(job)
            elif not self.job(job.key).finished:
                self._book_failed(job, error)
            self._notify(job.key)
        self._signal_drain()

    def _book(self, job: Job) -> None:
        """Store a copy of the scheduler's ``job`` in the table.

        Runs on the executor thread only, the one writer of a cold
        job's table entry.  A finished job is booked first, exactly
        once: a done payload goes into the result cache (outside the
        lock, since the write fsyncs) and the outcome is counted, so a
        reader that sees the job finished also sees both.  A done job
        whose cache write raises is booked failed instead.
        """
        if self.job(job.key).finished:
            return
        if job.state == DONE:
            try:
                self.cache.put(job.key, job.name, job.payload_json,
                               meta={"mode": job.mode, "seed": job.seed})
            except OSError as exc:
                self._book_failed(job, "cache write failed: "
                                  f"{type(exc).__name__}: {exc}")
                return
            self._c_computed.inc()
            self._h_compute_ms.observe(job.wall_s * 1e3)
        elif job.state == FAILED:
            self._c_failed.inc()
        with self._lock:
            self._jobs[job.key] = dataclasses.replace(job)
            self._g_depth.set(self._unbooked())

    def _book_failed(self, job: Job, error: str) -> None:
        """Book ``job`` failed because the harness around it raised.

        The caller is the job's one table writer: the executor thread,
        or the submitting thread before the job is queued.  The failure
        is counted and becomes the job's last SSE frame.
        """
        self._c_failed.inc()
        self._record_event(job.key, "job", name=job.name, state=FAILED,
                           error=error)
        with self._lock:
            self._jobs[job.key] = dataclasses.replace(
                job, state=FAILED, payload_json=None, error=error)
            self._g_depth.set(self._unbooked())

    # -- cross-thread plumbing -------------------------------------------

    def _record_event(self, key: str, t: str, **info: Any) -> None:
        with self._lock:
            log = self._events.setdefault(key, [])
            log.append({"seq": len(log) + 1, "t": t, **info})

    def _notify(self, key: str) -> None:
        """Wake any event-loop waiters parked on ``key``."""
        def _fire() -> None:
            ev = self._wakeups.pop(key, None)
            if ev is not None:
                ev.set()

        try:
            self._loop.call_soon_threadsafe(_fire)
        except RuntimeError:
            pass  # loop already closed during shutdown

    def _signal_drain(self) -> None:
        try:
            self._loop.call_soon_threadsafe(self._drain_event.set)
        except RuntimeError:
            pass
