"""The async/sync bridge between the HTTP server and the job machinery.

:class:`ServeBridge` owns the boundary between two worlds:

* the **asyncio event-loop thread**, where every HTTP request is
  parsed and answered.  Handlers call :meth:`submit` (thread-safe by
  the :class:`~repro.bench.jobs.JobService` contract) and park on
  :meth:`wait_done` / :meth:`wait_event` without blocking the loop;

* a single **executor thread**, which pulls every cold job key queued
  so far off a queue and runs the batch on one
  :class:`~repro.bench.jobs.JobScheduler` — in the executor thread for
  ``workers=1``, on a supervised fork pool for more.

The two meet only through thread-safe primitives: the service's own
lock, a ``queue.SimpleQueue`` of cold keys, and
``loop.call_soon_threadsafe`` wakeups.  Results never cross the
boundary as mutable state — when the scheduler reports a job ``done``
or ``failed``, the executor pushes its payload into the result cache,
books the metrics, and *then* wakes the waiters, which re-read the job
through the service.  The scheduler marks the job finished a moment
before it reports it, so waiters ask :meth:`ServeBridge.finished`, which
holds only once the job is booked, and never ``job.finished``.  The
job's SSE frames are the scheduler's ``job`` records, as the journal
holds them.

Every interesting instant is counted on a :class:`repro.obs.runlog.RunLog`
registry (queue depth, cache-hit latency, worker saturation, compute
wall time), so ``GET /metrics`` is a window into exactly the same
telemetry the suite runner exports.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from typing import Any, Dict, List, Optional

from repro.bench.jobs import (DONE, FAILED, Job, JobScheduler, JobService,
                              _registry_runner)
from repro.obs.runlog import RunLog

#: Executor shutdown sentinel (queue items are otherwise job keys).
_STOP = object()

#: Safety cap on a single event-chain wait; a missed wakeup costs at
#: most this much added latency instead of a hang.
_WAIT_SLICE_S = 0.5


class ServeBridge:
    """Bridge a :class:`JobService` into an asyncio event loop."""

    def __init__(self, service: JobService,
                 runlog: Optional[RunLog] = None,
                 loop: Optional[asyncio.AbstractEventLoop] = None):
        self.service = service
        self.runlog = runlog or RunLog(label="serve")
        self._loop = loop
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        #: keys this bridge has ever accepted (created, not deduped)
        self._seen: set = set()
        #: per-key progress events for the SSE stream, oldest first
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        #: per-key single-use wakeup events (event-chain pattern)
        self._wakeups: Dict[str, asyncio.Event] = {}
        #: cold keys enqueued but not yet booked
        self._outstanding = 0
        #: keys whose job is finished with its result cached and
        #: counted (cache hits from the moment they are submitted)
        self._booked: set = set()
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

    def start(self, loop: Optional[asyncio.AbstractEventLoop] = None
              ) -> None:
        """Bind the loop and start the executor thread."""
        if loop is not None:
            self._loop = loop
        if self._loop is None:
            self._loop = asyncio.get_event_loop()
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
        """Wait until every accepted cold job has finished.

        The caller is expected to have stopped accepting new submits
        first (:attr:`draining`); status/result/metrics reads stay
        live throughout.
        """
        self.draining = True
        while True:
            with self._lock:
                if self._outstanding == 0:
                    return
            self._drain_event.clear()
            try:
                await asyncio.wait_for(self._drain_event.wait(),
                                       _WAIT_SLICE_S)
            except asyncio.TimeoutError:
                pass

    # -- submission (event-loop thread) ----------------------------------

    def submit(self, entry: str, mode: str = "full",
               seed: Optional[int] = None) -> Dict[str, Any]:
        """Submit one experiment; never blocks on computation.

        Returns a small routing record: the job's content key plus how
        the submit resolved — ``cache_hit`` (DONE instantly from the
        result cache), ``deduped`` (attached to an existing job for the
        same fingerprint), or cold (queued for the executor).
        """
        t0 = self.runlog.now_ps()
        key = self.service.submit(entry, mode=mode, seed=seed)
        job = self.service.get_job(key)
        with self._lock:
            created = key not in self._seen
            if created:
                self._seen.add(key)
        if not created:
            self._c_deduped.inc()
            return {"key": key, "created": False,
                    "cache_hit": False, "state": job.state}
        self._record_event(key, "submit", name=entry, mode=mode,
                           seed=job.seed, state=job.state)
        if job.state == DONE:
            # Cache hit: the service loaded the payload inline; the
            # whole request path never left this thread.
            with self._lock:
                self._booked.add(key)
            self._c_cache_hit.inc()
            self._h_hit_us.observe(
                (self.runlog.now_ps() - t0) / 1e6)  # ps -> us
            self._record_event(key, "job", name=entry, state=DONE,
                               cache="hit")
            return {"key": key, "created": True,
                    "cache_hit": True, "state": DONE}
        self._c_cold.inc()
        with self._lock:
            self._outstanding += 1
            self._g_depth.set(self._outstanding)
        self._queue.put(key)
        return {"key": key, "created": True,
                "cache_hit": False, "state": job.state}

    # -- waiting (event-loop thread) -------------------------------------

    async def wait_done(self, key: str,
                        timeout_s: float = 60.0) -> Job:
        """Wait until the job is finished (or the timeout passes).

        Returns the job either way; callers check ``job.finished``.
        """
        deadline = self._loop.time() + timeout_s
        while True:
            job = self.service.get_job(key)
            if self.finished(key):
                return job
            remaining = deadline - self._loop.time()
            if remaining <= 0:
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
            if self.finished(key):
                return []
            remaining = deadline - self._loop.time()
            if remaining <= 0:
                return []
            await self._await_wakeup(key, min(remaining, _WAIT_SLICE_S))

    def finished(self, key: str) -> bool:
        """Whether the job is finished, cached and counted."""
        with self._lock:
            return key in self._booked

    def events(self, key: str) -> List[Dict[str, Any]]:
        """Snapshot of the job's progress events, oldest first."""
        with self._lock:
            return list(self._events.get(key, ()))

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
        jobs = [self.service.get_job(k) for k in keys]
        self._g_busy.set(min(len(jobs), self.service.workers))
        try:
            JobScheduler(jobs, _registry_runner,
                         workers=self.service.workers,
                         journal=self.service.journal,
                         on_event=self._on_event).run()
        finally:
            self._g_busy.set(0)
            for job in jobs:
                self._account(job)
                self._notify(job.key)
            self._signal_drain()

    def _account(self, job: Job) -> None:
        """Book one finished job's metrics and result, exactly once.

        Runs on the executor thread only.  The job counts as
        :meth:`finished` to waiters only once this returns, so a client
        that saw its submit complete also sees the counters agree.
        """
        if self.finished(job.key) or not job.finished:
            return
        self.service.store_result(job)
        if job.state == DONE:
            self._c_computed.inc()
            self._h_compute_ms.observe(job.wall_s * 1e3)
        else:
            self._c_failed.inc()
        with self._lock:
            self._booked.add(job.key)
            self._outstanding -= 1
            self._g_depth.set(self._outstanding)

    def _on_event(self, t: str, info: Dict[str, Any]) -> None:
        key = info.get("key")
        if key is None:
            return
        info = {k: v for k, v in info.items()
                if k not in ("key", "payload_json")}
        self._record_event(key, t, **info)
        if info.get("state") in (DONE, FAILED):
            self._account(self.service.get_job(key))
        self._notify(key)

    # -- cross-thread plumbing -------------------------------------------

    def _record_event(self, key: str, t: str, **info: Any) -> None:
        with self._lock:
            log = self._events.setdefault(key, [])
            log.append({"seq": len(log) + 1, "t": t, **info})

    def _notify(self, key: str) -> None:
        """Wake any event-loop waiters parked on ``key``."""
        if self._loop is None:
            return

        def _fire() -> None:
            ev = self._wakeups.pop(key, None)
            if ev is not None:
                ev.set()

        try:
            self._loop.call_soon_threadsafe(_fire)
        except RuntimeError:
            pass  # loop already closed during shutdown

    def _signal_drain(self) -> None:
        if self._loop is None or self._drain_event is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._drain_event.set)
        except RuntimeError:
            pass
