"""The two serving-layer guarantees that need adversarial setups.

*Coalescing*: N concurrent identical cold submits must trigger exactly
one underlying computation, and every client must receive byte-identical
payloads — the content fingerprint is the dedup key, so this is the
serving-layer face of the cache's byte-determinism contract.

*Drain*: SIGTERM against a real ``tca-bench serve`` process must let
the in-flight job finish and journal, then exit 0 — proven here from
outside, over real sockets, against a real signal.
"""

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.bench.cache import ResultCache
from repro.bench.jobs import DONE, Journal
from repro.serve.loadtest import _Client
from repro.serve.server import build_server

REPO = Path(__file__).resolve().parent.parent.parent


# -- dedup under concurrency ----------------------------------------------------------

def test_concurrent_identical_cold_submits_coalesce(tmp_path):
    """8 racing submits -> 1 computation, 8 byte-identical payloads."""
    async def main():
        server = build_server(host="127.0.0.1", port=0,
                              cache_dir=str(tmp_path))
        await server.start()
        try:
            async def one():
                client = _Client(server.host, server.port)
                await client.connect()
                try:
                    _, raw = await client.request(
                        "POST", "/v1/jobs",
                        {"entry": "contention", "mode": "tiny",
                         "wait": True, "timeout_s": 120})
                    key = json.loads(raw)["fingerprint"]
                    _, body = await client.request(
                        "GET", f"/v1/jobs/{key}/result")
                    return key, body
                finally:
                    await client.close()

            outcomes = await asyncio.gather(*[one() for _ in range(8)])
            keys = {k for k, _ in outcomes}
            payloads = {p for _, p in outcomes}
            computed = server.runlog.metrics.counter(
                "serve.jobs.computed")
            assert len(keys) == 1
            assert len(payloads) == 1
            assert computed.value == 1
            deduped = server.runlog.metrics.counter(
                "serve.submit.deduped")
            assert deduped.value == 7
        finally:
            server.bridge.draining = True
            await server.bridge.drain()
            server._server.close()
            await server._server.wait_closed()
            server.bridge.stop()

    asyncio.run(main())


def test_concurrent_distinct_submits_all_complete(tmp_path):
    """Different fingerprints must not coalesce with each other."""
    async def main():
        server = build_server(host="127.0.0.1", port=0,
                              cache_dir=str(tmp_path))
        await server.start()
        try:
            async def one(entry, seed):
                client = _Client(server.host, server.port)
                await client.connect()
                try:
                    _, raw = await client.request(
                        "POST", "/v1/jobs",
                        {"entry": entry, "mode": "tiny", "seed": seed,
                         "wait": True, "timeout_s": 120})
                    return json.loads(raw)
                finally:
                    await client.close()

            docs = await asyncio.gather(
                one("theory", 0), one("theory", 1), one("latency", 0))
            assert all(d["job"]["state"] == DONE for d in docs)
            assert len({d["fingerprint"] for d in docs}) == 3
            computed = server.runlog.metrics.counter(
                "serve.jobs.computed")
            assert computed.value == 3
        finally:
            server.bridge.draining = True
            await server.bridge.drain()
            server._server.close()
            await server._server.wait_closed()
            server.bridge.stop()

    asyncio.run(main())


# -- SIGTERM drain, from outside ------------------------------------------------------

def _http(method, url, doc=None, timeout=30):
    req = urllib.request.Request(url, method=method)
    data = None
    if doc is not None:
        data = json.dumps(doc).encode()
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, data=data,
                                    timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def test_sigterm_drains_in_flight_job_then_exits_zero(tmp_path):
    cache_dir = tmp_path / "cache"
    journal_dir = tmp_path / "journal"
    env = dict(os.environ,
               PYTHONPATH=str(REPO / "src"),
               PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.bench", "serve", "--port", "0",
         "--cache-dir", str(cache_dir),
         "--journal-dir", str(journal_dir)],
        env=env, cwd=str(tmp_path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stderr.readline()
        m = re.search(r"serving on (http://[\d.]+:\d+) run=(\S+)", line)
        assert m, f"no startup line, got {line!r}"
        base, run_id = m.group(1), m.group(2)

        # A cold job slow enough (~1 s) that SIGTERM lands mid-flight.
        status, raw = _http("POST", f"{base}/v1/jobs",
                            {"entry": "fig9", "mode": "smoke"})
        assert status == 202
        key = json.loads(raw)["fingerprint"]

        proc.send_signal(signal.SIGTERM)

        # While draining: reads stay live, new submits are refused.
        deadline = time.monotonic() + 30
        saw_draining = False
        while time.monotonic() < deadline:
            try:
                status, raw = _http("GET", f"{base}/healthz", timeout=5)
            except OSError:
                break  # listener is gone: drain finished
            if json.loads(raw)["status"] == "draining":
                saw_draining = True
                status, _ = _http("POST", f"{base}/v1/jobs",
                                  {"entry": "theory", "mode": "tiny"})
                assert status == 503
                break
            time.sleep(0.05)
        assert saw_draining

        assert proc.wait(timeout=120) == 0

        # The in-flight job finished: its payload reached the cache...
        payload = ResultCache(cache_dir).get(key)
        assert payload is not None
        # ...and the journal closed cleanly with the job done.
        records = Journal.read(Journal.path_for(journal_dir, run_id))
        states = [r.get("state") for r in records if r["t"] == "job"]
        assert DONE in states
        assert records[-1]["t"] == "end"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
