"""The asyncio HTTP/1.1 job server: ``tca-bench serve``.

Stdlib-only by design — tier-1 stays hermetic.  The server speaks just
enough HTTP/1.1 for real clients (curl, ``urllib``, any load
generator): request-line + headers, ``Content-Length`` bodies,
keep-alive, and close-delimited SSE streams.

Endpoints (full reference in ``docs/serving.md``)::

    GET  /healthz                  liveness + drain state + job counts
    GET  /metrics                  the serve RunLog registry, text format
    POST /v1/jobs                  submit {entry, mode, seed, wait, timeout_s}
    GET  /v1/jobs                  every known job, submission order
    GET  /v1/jobs/{id}             one job's state-machine snapshot
    GET  /v1/jobs/{id}/result      the payload text, byte-verbatim
    GET  /v1/jobs/{id}/events      SSE progress stream (?since=SEQ)
    GET  /v1/results/{fingerprint} result by content key (memory, then cache)

Dedup and byte-identity are not server features — they fall out of the
substrate.  A job id *is* the cache fingerprint, so identical submits
collapse in :meth:`ServeBridge.submit`, whose job table every route
reads, and every result response is the canonical payload text served
verbatim.

Shutdown: SIGTERM (or SIGINT) flips the server into *draining* — new
submits get 503, reads stay live, in-flight jobs finish and journal —
then the process exits 0.
"""

from __future__ import annotations

import asyncio
import json
import re
import signal
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.bench.cache import ResultCache
from repro.bench.jobs import DONE, FAILED, Job, Journal, new_run_id
from repro.errors import ConfigError
from repro.serve.bridge import ServeBridge

SERVER_NAME = "tca-bench-serve/1"
DEFAULT_PORT = 8023
#: A job id is a cache fingerprint: 64 hex chars.
_KEY_RE = re.compile(r"^[0-9a-f]{64}$")
_MAX_HEADER_BYTES = 65536
_MAX_BODY_BYTES = 1 << 20

_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                409: "Conflict", 413: "Payload Too Large",
                500: "Internal Server Error",
                503: "Service Unavailable"}


class HttpError(Exception):
    """Raise inside a handler to short-circuit into an error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class JobServer:
    """One serving process: asyncio acceptor + ServeBridge executor."""

    def __init__(self, bridge: ServeBridge, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT,
                 run_id: Optional[str] = None):
        self.bridge = bridge
        self.host = host
        self.port = port
        self.runlog = bridge.runlog
        self.run_id = run_id or new_run_id("serve", bridge.seed)
        self._server: Optional[asyncio.base_events.Server] = None
        self._requests = self.runlog.metrics.counter("serve.http.requests")
        self._h_request_us = self.runlog.metrics.histogram(
            "serve.request_us")

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self.bridge.start(loop)
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port)
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        print(f"serving on http://{self.host}:{self.port} "
              f"run={self.run_id} workers={self.bridge.workers}",
              file=sys.stderr, flush=True)

    async def drain_and_stop(self) -> None:
        """The SIGTERM path: refuse new work, finish what's in flight."""
        self.bridge.draining = True
        print(f"draining run={self.run_id} "
              f"outstanding={self.bridge.counts()}",
              file=sys.stderr, flush=True)
        await self.bridge.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.bridge.stop()
        print(f"drained run={self.run_id}", file=sys.stderr, flush=True)

    # -- connection handling ---------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown while parked on a keep-alive read: tear the
            # connection down quietly instead of logging a cancelled task.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Dict[str, Any]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise
            return None  # clean EOF between requests
        if len(head) > _MAX_HEADER_BYTES:
            raise HttpError(413, "headers too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise HttpError(400, f"malformed request line {lines[0]!r}")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        body = b""
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise HttpError(413, "body too large")
        if length:
            body = await reader.readexactly(length)
        parts = urlsplit(target)
        return {"method": method.upper(), "path": parts.path,
                "query": {k: v[-1] for k, v in
                          parse_qs(parts.query).items()},
                "headers": headers, "body": body}

    # -- routing ---------------------------------------------------------

    async def _dispatch(self, request: Dict[str, Any],
                        writer: asyncio.StreamWriter) -> bool:
        self._requests.inc()
        t0 = self.runlog.now_ps()
        method, path = request["method"], request["path"]
        try:
            if path == "/healthz" and method == "GET":
                status, doc = self._route_healthz()
            elif path == "/metrics" and method == "GET":
                return await self._send(
                    writer, 200, self.runlog.metrics.render_text(
                        self.runlog.now_ps()).encode(),
                    content_type="text/plain; charset=utf-8",
                    keep_alive=self._keep(request), t0=t0)
            elif path == "/v1/jobs" and method == "POST":
                status, doc = await self._route_submit(request)
            elif path == "/v1/jobs" and method == "GET":
                status, doc = 200, {"jobs": self.bridge.jobs()}
            elif path in ("/v1/jobs", "/healthz", "/metrics"):
                raise HttpError(405, f"no route for {method} {path}")
            else:
                match = re.match(
                    r"^/v1/jobs/([0-9a-f]{64})(/result|/events)?$", path)
                result_match = re.match(r"^/v1/results/([0-9a-f]{64})$",
                                        path)
                if (match or result_match) and method != "GET":
                    raise HttpError(405, f"no route for {method} {path}")
                if match and method == "GET":
                    key, tail = match.group(1), match.group(2)
                    if tail == "/result":
                        return await self._route_result(
                            key, writer, keep_alive=self._keep(request),
                            t0=t0)
                    if tail == "/events":
                        await self._route_events(key, request, writer)
                        return False  # SSE is close-delimited
                    status, doc = self._route_status(key)
                elif result_match and method == "GET":
                    return await self._route_fingerprint(
                        result_match.group(1), writer,
                        keep_alive=self._keep(request), t0=t0)
                else:
                    raise HttpError(404, f"no route for {method} {path}")
        except HttpError as exc:
            status, doc = exc.status, {"error": exc.message}
        except ConfigError as exc:
            status, doc = 400, {"error": str(exc)}
        body = (json.dumps(doc, sort_keys=True) + "\n").encode()
        return await self._send(writer, status, body,
                                keep_alive=self._keep(request), t0=t0)

    @staticmethod
    def _keep(request: Dict[str, Any]) -> bool:
        return request["headers"].get("connection", "").lower() != "close"

    # -- routes ----------------------------------------------------------

    def _route_healthz(self) -> Tuple[int, Dict[str, Any]]:
        return 200, {
            "status": "draining" if self.bridge.draining else "ok",
            "run": self.run_id,
            "workers": self.bridge.workers,
            "jobs": self.bridge.counts(),
        }

    async def _route_submit(self, request: Dict[str, Any]
                            ) -> Tuple[int, Dict[str, Any]]:
        if self.bridge.draining:
            raise HttpError(503, "server is draining; submit refused")
        try:
            doc = json.loads(request["body"].decode() or "{}")
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"request body is not JSON: {exc}")
        if not isinstance(doc, dict) or "entry" not in doc:
            raise HttpError(400, 'body must be {"entry": ..., ...}')
        entry = doc["entry"]
        mode = doc.get("mode", "full")
        seed = doc.get("seed")
        wait = bool(doc.get("wait", False))
        timeout_s = float(doc.get("timeout_s", 60.0))
        if seed is not None and not isinstance(seed, int):
            raise HttpError(400, "seed must be an integer or null")
        ticket = self.bridge.submit(entry, mode=mode, seed=seed)
        key = ticket["key"]
        if wait:
            job = await self.bridge.wait_done(key, timeout_s=timeout_s)
        else:
            job = self.bridge.job(key)
        status = 200 if job.state == DONE else 202
        return status, {
            "job": job.to_dict(),
            "fingerprint": key,
            "deduped": not ticket["created"],
            "cache_hit": ticket["cache_hit"],
            "links": {
                "status": f"/v1/jobs/{key}",
                "result": f"/v1/jobs/{key}/result",
                "events": f"/v1/jobs/{key}/events",
            },
        }

    def _job(self, key: str) -> Job:
        job = self.bridge.job(key)
        if job is None:
            raise HttpError(404, f"unknown job {key[:12]}")
        return job

    def _route_status(self, key: str) -> Tuple[int, Dict[str, Any]]:
        return 200, {"job": self._job(key).to_dict(),
                     "events": len(self.bridge.events(key))}

    async def _route_result(self, key: str, writer: asyncio.StreamWriter,
                            keep_alive: bool, t0: int) -> bool:
        job = self._job(key)
        if job.state == FAILED:
            raise HttpError(500, f"job failed: {job.error}")
        if job.state != DONE:
            raise HttpError(409, f"job is {job.state}, result not ready")
        # Byte-identity contract: the canonical payload text, verbatim.
        return await self._send(writer, 200, job.payload_json.encode(),
                                keep_alive=keep_alive, t0=t0)

    async def _route_fingerprint(self, key: str,
                                 writer: asyncio.StreamWriter,
                                 keep_alive: bool, t0: int) -> bool:
        payload = self.bridge.result_text(key)
        if payload is None:
            raise HttpError(404, f"no result for fingerprint {key[:12]}")
        return await self._send(writer, 200, payload.encode(),
                                keep_alive=keep_alive, t0=t0)

    async def _route_events(self, key: str, request: Dict[str, Any],
                            writer: asyncio.StreamWriter) -> None:
        """SSE progress stream, fed from the job's bridge event log."""
        self._job(key)  # 404 before the stream opens
        try:
            since = int(request["query"].get("since", "0"))
        except ValueError:
            raise HttpError(400, "since must be an integer sequence")
        timeout_s = float(request["query"].get("timeout_s", "60"))
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"Connection: close\r\n\r\n")
        await writer.drain()
        deadline = asyncio.get_running_loop().time() + timeout_s
        while True:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                break
            fresh = await self.bridge.wait_event(key, since,
                                                 timeout_s=remaining)
            for event in fresh:
                since = event["seq"]
                data = json.dumps(event, sort_keys=True)
                writer.write(f"id: {event['seq']}\r\n"
                             f"event: {event['t']}\r\n"
                             f"data: {data}\r\n\r\n".encode())
            await writer.drain()
            if self._job(key).finished and not fresh:
                break
        final = json.dumps({"state": self._job(key).state, "key": key},
                           sort_keys=True)
        writer.write(f"event: end\r\ndata: {final}\r\n\r\n".encode())
        await writer.drain()

    # -- response plumbing -----------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter, status: int,
                    body: bytes,
                    content_type: str = "application/json",
                    keep_alive: bool = True, t0: int = 0) -> bool:
        reason = _STATUS_TEXT.get(status, "Unknown")
        connection = "keep-alive" if keep_alive else "close"
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Server: {SERVER_NAME}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {connection}\r\n\r\n")
        writer.write(head.encode() + body)
        await writer.drain()
        self._h_request_us.observe((self.runlog.now_ps() - t0) / 1e6)
        return keep_alive


# -- the CLI entry point --------------------------------------------------------------


def build_server(host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 workers: int = 1, seed: int = 0,
                 cache_dir: Optional[str] = None,
                 journal_dir: Optional[str] = None) -> JobServer:
    """Assemble the service stack exactly as ``tca-bench serve`` does."""
    cache = ResultCache(Path(cache_dir) if cache_dir else None)
    run_id = new_run_id("serve", seed)
    journal = None
    if journal_dir:
        journal = Journal.create(journal_dir, run_id, mode="serve",
                                 seed=seed, entries=[], keys=[])
    bridge = ServeBridge(cache, workers=workers, seed=seed,
                         journal=journal)
    return JobServer(bridge, host=host, port=port, run_id=run_id)


async def _serve_until_signalled(server: JobServer) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    await server.start()
    await stop.wait()
    await server.drain_and_stop()
    journal = server.bridge.journal
    if journal is not None:
        journal.record("end", run_id=server.run_id)
        journal.close()


def serve_main(args) -> int:
    """``tca-bench serve``: run the job server until SIGTERM/SIGINT."""
    from repro.bench.suite import DEFAULT_JOURNAL_DIR

    journal_dir = (None if args.no_journal
                   else args.journal_dir or DEFAULT_JOURNAL_DIR)
    server = build_server(host=args.host, port=args.port,
                          workers=args.serve_workers, seed=args.seed,
                          cache_dir=args.cache_dir,
                          journal_dir=journal_dir)
    asyncio.run(_serve_until_signalled(server))
    return 0
