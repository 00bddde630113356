"""HTTP contract tests against a live in-process job server.

Every test stands up a real :class:`JobServer` on an ephemeral port
inside its own event loop and talks to it over real sockets with the
load-test client, so the contract covers genuine HTTP framing —
status lines, Content-Length, keep-alive, SSE frames — not just
handler return values.  Experiments run in ``tiny`` mode to keep the
cold path fast.
"""

import asyncio
import json
import threading

import pytest

from repro.bench.cache import ResultCache
from repro.bench.jobs import DONE
from repro.bench.suite import run_entry
from repro.serve import bridge as bridge_module
from repro.serve.loadtest import _Client
from repro.serve.server import build_server

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning")


def serve(coro_fn, **build_kw):
    """Run one async test body against a fresh ephemeral server."""
    async def main():
        server = build_server(host="127.0.0.1", port=0, **build_kw)
        await server.start()
        client = _Client(server.host, server.port)
        await client.connect()
        try:
            return await coro_fn(server, client)
        finally:
            await client.close()
            server.bridge.draining = True
            await server.bridge.drain()
            server._server.close()
            await server._server.wait_closed()
            server.bridge.stop()

    return asyncio.run(main())


# -- health and metrics ---------------------------------------------------------------

def test_healthz_reports_ok_and_counts(tmp_path):
    async def body(server, client):
        status, raw = await client.request("GET", "/healthz")
        assert status == 200
        doc = json.loads(raw)
        assert doc["status"] == "ok"
        assert doc["run"] == server.run_id
        assert doc["jobs"] == {"pending": 0, "running": 0, "done": 0,
                               "failed": 0}

    serve(body, cache_dir=str(tmp_path))


def test_metrics_endpoint_renders_the_serve_registry(tmp_path):
    async def body(server, client):
        status, raw = await client.request("GET", "/metrics")
        assert status == 200
        text = raw.decode()
        for name in ("serve.http.requests", "serve.queue.depth",
                     "serve.submit.cold", "serve.cache.hit_us"):
            assert name in text, text

    serve(body, cache_dir=str(tmp_path))


# -- submit / status / result ---------------------------------------------------------

def test_submit_wait_runs_cold_job_to_done(tmp_path):
    async def body(server, client):
        status, raw = await client.request(
            "POST", "/v1/jobs",
            {"entry": "theory", "mode": "tiny", "wait": True,
             "timeout_s": 60})
        assert status == 200
        doc = json.loads(raw)
        assert doc["job"]["state"] == DONE
        assert doc["cache_hit"] is False and doc["deduped"] is False
        assert len(doc["fingerprint"]) == 64
        return doc["fingerprint"]

    serve(body, cache_dir=str(tmp_path))


def test_submit_without_wait_returns_202_then_completes(tmp_path):
    async def body(server, client):
        status, raw = await client.request(
            "POST", "/v1/jobs", {"entry": "theory", "mode": "tiny"})
        assert status == 202
        key = json.loads(raw)["fingerprint"]
        await server.bridge.wait_done(key, timeout_s=60)
        status, raw = await client.request("GET", f"/v1/jobs/{key}")
        assert status == 200
        assert json.loads(raw)["job"]["state"] == DONE

    serve(body, cache_dir=str(tmp_path))


def test_result_is_byte_identical_to_inline_run(tmp_path):
    """The serving layer must never reserialize a payload."""
    async def body(server, client):
        _, raw = await client.request(
            "POST", "/v1/jobs",
            {"entry": "theory", "mode": "tiny", "wait": True,
             "timeout_s": 60})
        doc = json.loads(raw)
        key = doc["fingerprint"]
        status, served = await client.request(
            "GET", f"/v1/jobs/{key}/result")
        assert status == 200
        inline, _wall = run_entry("theory", mode="tiny",
                                  seed=doc["job"].get("seed", 0))
        assert served.decode() == inline

    serve(body, cache_dir=str(tmp_path), seed=0)


def test_result_by_fingerprint_from_memory_and_cache(tmp_path):
    async def body(server, client):
        _, raw = await client.request(
            "POST", "/v1/jobs",
            {"entry": "theory", "mode": "tiny", "wait": True,
             "timeout_s": 60})
        key = json.loads(raw)["fingerprint"]
        status, from_memory = await client.request(
            "GET", f"/v1/results/{key}")
        assert status == 200
        # The same bytes must be in the on-disk cache too.
        assert ResultCache(tmp_path).get(key) == from_memory.decode()

    serve(body, cache_dir=str(tmp_path))


def test_cache_hit_submit_is_done_instantly(tmp_path):
    """A pre-warmed cache answers a first submit without computing."""
    async def body(server, client):
        _, raw = await client.request(
            "POST", "/v1/jobs",
            {"entry": "theory", "mode": "tiny", "wait": True,
             "timeout_s": 60})
        return json.loads(raw)

    first = serve(body, cache_dir=str(tmp_path))
    assert first["cache_hit"] is False

    async def again(server, client):
        status, raw = await client.request(
            "POST", "/v1/jobs", {"entry": "theory", "mode": "tiny"})
        doc = json.loads(raw)
        assert status == 200  # DONE on submit, no wait needed
        assert doc["cache_hit"] is True
        assert doc["fingerprint"] == first["fingerprint"]
        hit = server.runlog.metrics.counter("serve.submit.cache_hit")
        assert hit.value == 1
        computed = server.runlog.metrics.counter("serve.jobs.computed")
        assert computed.value == 0

    serve(again, cache_dir=str(tmp_path))


# -- error contract -------------------------------------------------------------------

def test_error_statuses(tmp_path):
    async def body(server, client):
        bad_key = "0" * 64
        checks = [
            ("GET", "/nope", None, 404),
            ("GET", "/v1/jobs/" + bad_key, None, 404),
            ("GET", f"/v1/jobs/{bad_key}/result", None, 404),
            ("GET", f"/v1/results/{bad_key}", None, 404),
            ("POST", "/v1/jobs", {"entry": "not-an-entry"}, 400),
            ("POST", "/v1/jobs", {}, 400),
            ("POST", "/v1/jobs", {"entry": "theory", "seed": "x"}, 400),
            ("DELETE", "/v1/jobs", None, 405),
        ]
        for method, path, doc, want in checks:
            status, raw = await client.request(method, path, doc)
            assert status == want, (method, path, status, raw[:120])
            assert "error" in json.loads(raw)

    serve(body, cache_dir=str(tmp_path))


def test_result_of_unfinished_job_is_409(tmp_path, monkeypatch):
    # Hold the job in the executor until the 409 has been checked.
    real_runner = bridge_module.run_entry
    release = threading.Event()

    def held_runner(name, mode, seed):
        release.wait(60)
        return real_runner(name, mode, seed)

    monkeypatch.setattr(bridge_module, "run_entry", held_runner)

    async def body(server, client):
        try:
            _, raw = await client.request(
                "POST", "/v1/jobs", {"entry": "theory", "mode": "tiny"})
            key = json.loads(raw)["fingerprint"]
            status, raw = await client.request(
                "GET", f"/v1/jobs/{key}/result")
            assert status == 409
        finally:
            release.set()
        await server.bridge.wait_done(key, timeout_s=60)
        status, _ = await client.request("GET", f"/v1/jobs/{key}/result")
        assert status == 200

    serve(body, cache_dir=str(tmp_path))


# -- SSE progress stream --------------------------------------------------------------

def test_events_stream_delivers_progress_and_end(tmp_path):
    async def body(server, client):
        _, raw = await client.request(
            "POST", "/v1/jobs",
            {"entry": "theory", "mode": "tiny", "wait": True,
             "timeout_s": 60})
        key = json.loads(raw)["fingerprint"]
        # A finished job's stream replays its history then closes.
        sse = _Client(server.host, server.port)
        await sse.connect()
        sse.writer.write(
            f"GET /v1/jobs/{key}/events HTTP/1.1\r\n"
            f"Host: x\r\n\r\n".encode())
        await sse.writer.drain()
        head = await sse.reader.readuntil(b"\r\n\r\n")
        assert b"200 OK" in head
        assert b"text/event-stream" in head
        frames = (await sse.reader.read()).decode()  # close-delimited
        await sse.close()
        assert "event: submit" in frames
        assert "event: job" in frames
        assert "event: end" in frames
        end_data = [line for line in frames.splitlines()
                    if line.startswith("data: ")][-1]
        assert json.loads(end_data[len("data: "):])["state"] == DONE

    serve(body, cache_dir=str(tmp_path))


def test_events_since_filters_already_seen(tmp_path):
    async def body(server, client):
        _, raw = await client.request(
            "POST", "/v1/jobs",
            {"entry": "theory", "mode": "tiny", "wait": True,
             "timeout_s": 60})
        key = json.loads(raw)["fingerprint"]
        total = len(server.bridge.events(key))
        assert total >= 2
        sse = _Client(server.host, server.port)
        await sse.connect()
        sse.writer.write(
            f"GET /v1/jobs/{key}/events?since={total} HTTP/1.1\r\n"
            f"Host: x\r\n\r\n".encode())
        await sse.writer.drain()
        await sse.reader.readuntil(b"\r\n\r\n")
        frames = (await sse.reader.read()).decode()
        await sse.close()
        # Everything already seen is filtered; only the end marker.
        assert "event: submit" not in frames
        assert "event: end" in frames

    serve(body, cache_dir=str(tmp_path))


# -- draining -------------------------------------------------------------------------

def test_draining_rejects_submits_but_serves_reads(tmp_path):
    async def body(server, client):
        _, raw = await client.request(
            "POST", "/v1/jobs",
            {"entry": "theory", "mode": "tiny", "wait": True,
             "timeout_s": 60})
        key = json.loads(raw)["fingerprint"]
        server.bridge.draining = True
        status, raw = await client.request(
            "POST", "/v1/jobs", {"entry": "latency", "mode": "tiny"})
        assert status == 503
        status, raw = await client.request("GET", "/healthz")
        assert status == 200
        assert json.loads(raw)["status"] == "draining"
        status, _ = await client.request(
            "GET", f"/v1/jobs/{key}/result")
        assert status == 200

    serve(body, cache_dir=str(tmp_path))
