"""The bridge's job table and the executor's promise.

The table: identical submits share one job, a cached key is done at
submit, racing submits from many threads create one job, and results
come back verbatim.

The promise holds for every worker count: when a waiter wakes on a
finished job, the job is already counted in ``serve.jobs.computed`` and
its payload is in the result cache, and the job's SSE frames are the
scheduler's ``job`` records.  Two cold jobs submitted before the
executor starts share one batch, so with two workers the fast one
finishes on the pool while the slow one still runs.  The cache write
fsyncs outside the table's lock, so reads on the event-loop thread
answer while it runs.  A cache write or journal append that raises
fails its job, not the executor: later jobs still run and the drain
finishes.
"""

import asyncio
import json
import sys
import threading
import time

import pytest

from repro.bench.cache import ResultCache
from repro.bench.jobs import DONE, FAILED, PENDING, RUNNING, Journal
from repro.errors import ConfigError
from repro.serve.bridge import _WAIT_SLICE_S, ServeBridge
from repro.serve.loadtest import _Client
from repro.serve.server import build_server


def _run(bridge, key):
    """Start the bridge's executor, wait until ``key`` is booked, stop."""
    async def main():
        bridge.start(asyncio.get_running_loop())
        try:
            return await bridge.wait_done(key, timeout_s=60)
        finally:
            bridge.stop()

    return asyncio.run(main())


async def _shut_down(server):
    server.bridge.draining = True
    await server.bridge.drain()
    server._server.close()
    await server._server.wait_closed()
    server.bridge.stop()
    if server.bridge.journal is not None:
        server.bridge.journal.close()


# -- the job table --------------------------------------------------------------------

def test_identical_submits_share_one_job(tmp_path):
    bridge = ServeBridge(ResultCache(tmp_path))
    a = bridge.submit("theory", mode="tiny")
    b = bridge.submit("theory", mode="tiny")
    assert a["key"] == b["key"]
    assert a["created"] and not b["created"]
    assert len(bridge.jobs()) == 1


def test_cached_result_is_done_at_submit(tmp_path):
    cache = ResultCache(tmp_path)
    warm = ServeBridge(cache)
    key = warm.submit("theory", mode="tiny")["key"]
    assert _run(warm, key).state == DONE
    assert warm.counts()[DONE] == 1

    cold = ServeBridge(cache)
    assert cold.submit("theory", mode="tiny") == {
        "key": key, "created": True, "cache_hit": True}
    assert cold.job(key).state == DONE  # no execution needed
    assert cold.result_text(key) == warm.result_text(key)


def test_pending_job_has_no_result(tmp_path):
    bridge = ServeBridge(ResultCache(tmp_path))
    key = bridge.submit("theory", mode="tiny")["key"]
    assert bridge.job(key).state == PENDING
    assert bridge.result_text(key) is None
    assert bridge.job("not-a-key") is None


def test_executor_runs_and_caches_a_cold_job(tmp_path):
    cache = ResultCache(tmp_path)
    bridge = ServeBridge(cache)
    key = bridge.submit("theory", mode="tiny")["key"]
    job = _run(bridge, key)
    counts = bridge.counts()
    assert counts[DONE] == 1 and counts[PENDING] == 0
    assert cache.get(key) == job.payload_json


def test_unknown_entry_is_rejected(tmp_path):
    with pytest.raises(ConfigError):
        ServeBridge(ResultCache(tmp_path)).submit("no-such-experiment")


def test_racing_identical_submits_create_one_job(tmp_path):
    """The server submits on its event-loop thread while the executor
    thread replaces jobs, so the table is guarded by a lock: racing
    identical submits from many threads create exactly one job."""
    bridge = ServeBridge(ResultCache(tmp_path))
    tickets = []
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        for _ in range(25):
            tickets.append(bridge.submit("theory", mode="tiny"))

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(tickets) == 200
    assert len({t["key"] for t in tickets}) == 1
    assert sum(t["created"] for t in tickets) == 1
    assert len(bridge.jobs()) == 1
    assert bridge.counts()[PENDING] == 1


def test_result_text_is_the_verbatim_payload(tmp_path):
    cache = ResultCache(tmp_path)
    bridge = ServeBridge(cache)
    key = bridge.submit("theory", mode="tiny")["key"]
    job = _run(bridge, key)
    assert bridge.result_text(key) == job.payload_json
    assert json.loads(bridge.result_text(key))
    # A bridge that never saw the key answers from the result cache.
    assert ServeBridge(cache).result_text(key) == job.payload_json
    assert bridge.result_text("f" * 64) is None


# -- the executor's promise -----------------------------------------------------------

def _wait_on_first(cache_dir, workers, submits, journal_dir=None):
    """Submit ``(entry, mode)`` pairs, start the server and wait on the
    first; return its job, the computed count, its cached payload and
    its frames as the waiter saw them on waking."""
    async def main():
        server = build_server(host="127.0.0.1", port=0, workers=workers,
                              cache_dir=str(cache_dir),
                              journal_dir=journal_dir)
        bridge = server.bridge
        keys = [bridge.submit(entry, mode=mode)["key"]
                for entry, mode in submits]
        await server.start()
        try:
            job = await bridge.wait_done(keys[0], timeout_s=120)
            computed = server.runlog.metrics.counter(
                "serve.jobs.computed").value
            cached = ResultCache(cache_dir).get(keys[0])
            frames = bridge.events(keys[0])
        finally:
            await _shut_down(server)
        return job, computed, cached, frames

    return asyncio.run(main())


@pytest.mark.parametrize("workers", [1, 2])
def test_waiter_wakes_after_the_job_is_booked(tmp_path, workers):
    job, computed, cached, frames = _wait_on_first(
        tmp_path, workers, [("theory", "tiny"), ("fig7", "smoke")])
    assert job.state == DONE
    assert computed >= 1
    assert cached == job.payload_json
    assert [(f["t"], f["state"]) for f in frames] == [
        ("submit", PENDING), ("job", RUNNING), ("job", DONE)]
    assert frames[1]["worker"] in range(workers)
    assert "payload_json" not in frames[2]


@pytest.mark.parametrize("workers", [1, 2])
def test_waiter_outlasts_a_slow_journal_write(tmp_path, monkeypatch,
                                              workers):
    """The scheduler marks a job DONE and journals it before the
    executor books it.  A journal write that outlasts several wait
    slices holds that gap open; a waiter whose slice ends inside it
    must keep waiting."""
    record = Journal.record

    def slow_record(self, t, **fields):
        if fields.get("state") == DONE:
            time.sleep(3 * _WAIT_SLICE_S)
        return record(self, t, **fields)

    monkeypatch.setattr(Journal, "record", slow_record)
    job, computed, cached, frames = _wait_on_first(
        tmp_path / "cache", workers, [("theory", "tiny")],
        journal_dir=str(tmp_path / "journal"))
    assert job.state == DONE
    assert computed == 1
    assert cached == job.payload_json
    assert (frames[-1]["t"], frames[-1]["state"]) == ("job", DONE)


def test_reads_answer_while_the_executor_writes_the_cache(tmp_path,
                                                         monkeypatch):
    """The executor's cache write fsyncs; a slow one must not stall a
    status read or a ``wait_done`` poll on the event-loop thread."""
    writing = threading.Event()
    put = ResultCache.put

    def slow_put(self, *args, **kwargs):
        writing.set()
        time.sleep(1.5)
        return put(self, *args, **kwargs)

    monkeypatch.setattr(ResultCache, "put", slow_put)

    async def main():
        server = build_server(host="127.0.0.1", port=0,
                              cache_dir=str(tmp_path))
        await server.start()
        client = _Client(server.host, server.port)
        await client.connect()
        try:
            key = server.bridge.submit("theory", mode="tiny")["key"]
            while not writing.is_set():
                await asyncio.sleep(0.01)
            t0 = time.monotonic()
            status, _ = await client.request("GET", f"/v1/jobs/{key}")
            status_s = time.monotonic() - t0
            t0 = time.monotonic()
            polled = await server.bridge.wait_done(key, timeout_s=0.05)
            poll_s = time.monotonic() - t0
            job = await server.bridge.wait_done(key, timeout_s=60)
        finally:
            await client.close()
            await _shut_down(server)
        return status, status_s, polled, poll_s, job

    status, status_s, polled, poll_s, job = asyncio.run(main())
    assert status == 200 and status_s < 0.5, status_s
    assert not polled.finished and poll_s < 0.5, poll_s
    assert job.state == DONE


# -- the harness's own errors ---------------------------------------------------------

def _wait_on_each(submits, **build_kw):
    """Start a server and wait on each ``(entry, mode)`` submit in turn;
    return the jobs as the waits left them, their last SSE frames and
    the failed count.  The drain must then finish, or this raises
    ``TimeoutError``."""
    async def main():
        server = build_server(host="127.0.0.1", port=0, **build_kw)
        await server.start()
        jobs, frames = [], []
        for entry, mode in submits:
            key = server.bridge.submit(entry, mode=mode)["key"]
            jobs.append(await server.bridge.wait_done(key, timeout_s=10))
            frames.append(server.bridge.events(key)[-1])
        failed = server.runlog.metrics.counter("serve.jobs.failed").value
        await asyncio.wait_for(_shut_down(server), 10)
        return jobs, frames, failed

    return asyncio.run(main())


def test_cache_write_error_fails_the_job_not_the_executor(tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("a file, not a directory\n")
    jobs, frames, failed = _wait_on_each(
        [("theory", "tiny"), ("table1", "tiny")],
        cache_dir=str(afile / "sub"))
    assert [job.state for job in jobs] == [FAILED, FAILED]
    assert all("NotADirectoryError" in job.error for job in jobs)
    assert [(f["t"], f["state"], f["error"]) for f in frames] == [
        ("job", FAILED, job.error) for job in jobs]
    assert failed == 2


@pytest.mark.parametrize("record", ["submit", "job"])
def test_journal_error_fails_the_job_not_the_executor(tmp_path, monkeypatch,
                                                      record):
    append = Journal.record

    def broken_record(self, t, **fields):
        if t == record:
            raise OSError("journal disk full")
        return append(self, t, **fields)

    monkeypatch.setattr(Journal, "record", broken_record)
    jobs, frames, failed = _wait_on_each(
        [("theory", "tiny"), ("table1", "tiny")],
        cache_dir=str(tmp_path / "cache"),
        journal_dir=str(tmp_path / "journal"))
    assert [job.state for job in jobs] == [FAILED, FAILED]
    assert all("journal disk full" in job.error for job in jobs)
    assert [(f["t"], f["state"]) for f in frames] == [("job", FAILED)] * 2
    assert failed == 2
