"""The executor's promise holds for every worker count.

When a waiter wakes on a finished job, the job is already counted in
``serve.jobs.computed`` and its payload is in the result cache, and the
job's SSE frames are the scheduler's ``job`` records.  Two cold jobs
submitted before the executor starts share one batch, so with two
workers the fast one finishes on the pool while the slow one still runs.
"""

import asyncio
import time

import pytest

from repro.bench.cache import ResultCache
from repro.bench.jobs import DONE, PENDING, RUNNING, Journal
from repro.serve.bridge import _WAIT_SLICE_S
from repro.serve.server import build_server


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
            bridge.draining = True
            await bridge.drain()
            server._server.close()
            await server._server.wait_closed()
            bridge.stop()
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
