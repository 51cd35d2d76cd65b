"""``python -m repro serve`` — the ``/v1`` wire protocol over HTTP.

A dependency-free asyncio server that is pure transport glue: every
request is parsed (path, query, JSON body with 411/413 enforcement)
and handed to :func:`repro.service.api.dispatch`, the same route table
the in-process :class:`~repro.client.local.LocalTransport` drives — so
HTTP and embedded clients see byte-identical payloads by construction.

The full wire reference (routes, request/response shapes, error codes)
is generated from that route table into ``docs/API.md``; the highlights:

=======  ====================================  =========================
Method   Path                                  Meaning
=======  ====================================  =========================
GET      ``/v1/health``, ``/v1/healthz``       liveness / status probes
GET      ``/v1/report``                        operator report
POST     ``/v1/markets``                       build/warm a market
POST     ``/v1/sessions``                      open a session
POST     ``/v1/sessions/<id>/step``            advance a session
GET/PUT  ``/v1/sessions/<id>/state``           checkpoint / restore
DELETE   ``/v1/sessions/<id>``                 close a session
POST     ``/v1/simulations``                   submit a durable job
GET      ``/v1/jobs?limit=&after=``            paginated job listings
GET      ``/v1/jobs/<id>``                     one job's progress
POST     ``/v1/jobs/<id>/resume``              restart pending chunks
GET      ``/v1/jobs/<id>/events``              JSON-lines progress stream
POST     ``/v1/chunks``                        multi-host worker protocol
=======  ====================================  =========================

Legacy unversioned paths (``/sessions``, ``/jobs``, ...) answer with a
deprecation envelope: 301 + ``Location`` for GET (stdlib clients follow
it transparently), 410 for anything else.

How :class:`MarketplaceServer` spends its threads:

* connections are coroutines on one event loop — 10k idle keep-alive
  clients cost one loop, not 10k stacks;
* cheap session routes dispatch inline on the loop; anything that can
  block (market builds, job submission, checkpoint restore, coalesce
  leaders) runs on a small bounded handler pool (``workers``);
* each ``GET /v1/jobs/<id>/events`` stream runs its blocking generator
  on a thread of its own, so open streams never hold the handler pool;
* the loop owns the duty cycles: a periodic idle-session eviction
  sweep, and graceful drain — on SIGTERM the listener closes, new
  requests on live connections get ``503`` with ``Retry-After`` (the
  SDK transport retries them transparently), in-flight requests finish
  within ``drain_timeout``, running jobs flush to the durable store
  (they resume with ``repro jobs resume``), and the process exits 0.

Example walkthrough (against ``python -m repro serve --port 8765``)::

    curl -s localhost:8765/v1/healthz
    curl -s -X POST localhost:8765/v1/markets -d '{"dataset": "synthetic"}'
    curl -s -X POST localhost:8765/v1/sessions \
         -d '{"market": {"dataset": "synthetic"}, "seed": 0}'
    curl -s -X POST localhost:8765/v1/sessions/s000000/step \
         -d '{"until_done": true}'
    curl -s -X POST localhost:8765/v1/simulations \
         -d '{"sessions": 500, "seed": 0, "shards": 2}'
    curl -sN localhost:8765/v1/jobs/<id>/events

Embedding (tests, benchmarks): ``MarketplaceServer(port=0, ...)``,
``start_background()`` returns the bound address, ``shutdown()``
drains and stops.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from urllib.parse import parse_qsl, unquote, urlsplit

from repro import obs
from repro.service.api import (
    JobService,
    ServiceContext,
    dispatch,
    error_envelope,
    legacy_location,
)
from repro.service.manager import SessionManager
from repro.utils.validation import require

__all__ = [
    "MarketplaceServer",
    "add_serve_arguments",
    "run_server",
    "start_fleet_agent",
]

#: Request bodies above this are refused with 413 before any read — an
#: oversized (or lying) Content-Length must not park a reader on a
#: multi-gigabyte body.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Cap on the request line + headers block.
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 301: "Moved Permanently",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 410: "Gone", 411: "Length Required",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

_SERVER_HEADER = "repro-serve/3.0"

#: Routes cheap enough to dispatch on the event loop itself, skipping
#: the executor handoff (~100µs/request under load).  Everything else —
#: market/oracle builds, job submission, streaming, checkpoint restore
#: (replays rounds) — goes through the worker pool.
_INLINE_GET = re.compile(
    r"^/v1/(health|healthz|report|sessions/[^/]+(/state)?)$"
)
_INLINE_STEP = re.compile(r"^/v1/sessions/[^/]+/step$")
_INLINE_DELETE = re.compile(r"^/v1/sessions/[^/]+$")

#: An inline /step may advance at most this many rounds; longer runs
#: (and ``until_done``) would stall every other connection on the loop.
_INLINE_MAX_ROUNDS = 8


class _ProtocolError(Exception):
    """A transport-level request error (411/413/malformed body)."""

    def __init__(self, status: int, code: str, message: str,
                 detail: object = None):
        super().__init__(message)
        self.status = status
        self.envelope = error_envelope(code, message, detail)


class MarketplaceServer:
    """The ``/v1`` marketplace protocol on one asyncio event loop.

    Parameters
    ----------
    host / port:
        Bind address; ``port=0`` binds an ephemeral port (tests) —
        the bound address is :attr:`address` once started.
    manager / jobs:
        The service core; ``jobs`` defaults to a :class:`JobService`
        over the default durable store (created lazily on the first
        submission).
    workers:
        Bounded handler thread pool.  Dispatch runs here, not on the
        loop, because handlers may block (oracle builds, micro-batch
        coalesce windows).
    eviction_interval:
        Seconds between periodic ``manager.evict_idle()`` sweeps
        (``None`` derives ``min(60, idle_ttl / 2)`` from the manager;
        ``0``, or a manager without ``idle_ttl``, disables the sweep).
    drain_timeout:
        Grace for in-flight requests and background jobs on shutdown.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        *,
        manager: SessionManager | None = None,
        jobs: JobService | None = None,
        workers: int = 8,
        eviction_interval: float | None = None,
        drain_timeout: float = 30.0,
        verbose: bool = False,
    ):
        require(workers >= 1, "workers must be >= 1")
        require(eviction_interval is None or eviction_interval >= 0,
                "eviction_interval must be >= 0")
        self.host = host
        self.port = port
        self.ctx = ServiceContext(
            manager=manager if manager is not None else SessionManager(),
            jobs=jobs if jobs is not None else JobService(),
        )
        self.manager = self.ctx.manager
        self.jobs = self.ctx.jobs
        self.workers = int(workers)
        if eviction_interval is None:
            ttl = self.manager.idle_ttl
            eviction_interval = min(60.0, ttl / 2.0) if ttl else 0.0
        self.eviction_interval = float(eviction_interval)
        self.drain_timeout = float(drain_timeout)
        self.verbose = verbose
        self.address: tuple[str, int] | None = None
        self.draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="serve"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._busy = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._stream_tasks: set[asyncio.Task] = set()
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_background(self) -> tuple[str, int]:
        """Run the loop on a daemon thread; returns the bound address."""
        require(self._thread is None, "server already started")

        def run() -> None:
            try:
                asyncio.run(self._main())
            finally:
                self._started.set()  # unblock a waiter even on bind failure
                self._stopped.set()

        self._thread = threading.Thread(target=run, name="serve", daemon=True)
        self._thread.start()
        self._started.wait()
        require(self.address is not None, "server failed to bind")
        assert self.address is not None
        return self.address

    def wait(self) -> None:
        """Block until the server has drained and stopped."""
        self._stopped.wait()

    def shutdown(self, timeout: float | None = 30.0) -> None:
        """Request a graceful drain from any thread; waits for exit."""
        loop, stop = self._loop, self._stop
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:  # loop tore down between checks
                pass
        self._stopped.wait(timeout)
        if self._thread is not None:
            self._thread.join(timeout)

    # ------------------------------------------------------------------
    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_connection, self.host, self.port,
            limit=MAX_HEADER_BYTES, backlog=1024,
        )
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        evictor = self._start_evictor()
        try:
            async with server:
                await self._stop.wait()
        finally:
            if evictor is not None:
                evictor.cancel()
            await self._drain(server)
            self._executor.shutdown(wait=False)
            self._stopped.set()

    def _start_evictor(self) -> asyncio.Task | None:
        """The periodic idle-session sweep: without it, eviction only
        piggybacks on ``open_session`` and a quiet server leaks stale
        sessions (and their engine state) indefinitely."""
        interval = self.eviction_interval
        if not interval:
            return None

        async def sweep() -> None:
            assert self._loop is not None
            while True:
                await asyncio.sleep(interval)
                await self._loop.run_in_executor(
                    self._executor, self.manager.evict_idle
                )

        return asyncio.get_running_loop().create_task(sweep())

    async def _drain(self, server: asyncio.base_events.Server) -> None:
        """Graceful shutdown: refuse new work, let in-flight requests
        finish, flush running jobs, let their event streams send the
        final ``end`` line, then close whatever connections are left."""
        self.draining = True
        server.close()
        await server.wait_closed()
        deadline = asyncio.get_running_loop().time() + self.drain_timeout
        while self._busy and asyncio.get_running_loop().time() < deadline:
            await asyncio.sleep(0.02)
        assert self._loop is not None
        remaining = max(0.5, deadline - asyncio.get_running_loop().time())
        await self._loop.run_in_executor(
            self._executor, self.jobs.drain, remaining
        )
        # Idle keep-alive connections go now; a stream needs one more
        # store poll to see its flushed job's terminal status.
        for task in self._conn_tasks - self._stream_tasks:
            task.cancel()
        if self._stream_tasks:
            remaining = max(0.5, deadline - asyncio.get_running_loop().time())
            await asyncio.wait(set(self._stream_tasks), timeout=remaining)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        try:
            while True:
                keep_alive = await self._serve_request(reader, writer)
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,   # client hung up between requests
            asyncio.CancelledError,        # drain cancelled an idle wait
            ConnectionResetError,
            BrokenPipeError,
            TimeoutError,
        ):
            pass
        except asyncio.LimitOverrunError:
            # Unparseably long request head; nothing sane to reply to.
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read, dispatch and answer one request; returns keep-alive."""
        head = await reader.readuntil(b"\r\n\r\n")
        self._busy += 1
        try:
            return await self._handle_parsed(reader, writer, head)
        finally:
            self._busy -= 1

    async def _handle_parsed(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        head: bytes,
    ) -> bool:
        try:
            method, target, version, headers = _parse_head(head)
        except ValueError as exc:
            self._write(writer, 400,
                        error_envelope("invalid_request", str(exc)),
                        close=True)
            await writer.drain()
            return False
        keep_alive = _keep_alive(version, headers)

        if self.draining:
            # The listener is closed; surviving keep-alive clients get
            # an honest refusal they can retry elsewhere (or here,
            # after the restart the Retry-After hints at).
            self._write(
                writer, 503,
                error_envelope("draining",
                               "server is draining for shutdown; retry"),
                headers={"Retry-After": "1"}, close=True,
            )
            await writer.drain()
            return False

        parsed = urlsplit(target)
        path = unquote(parsed.path)
        query = dict(parse_qsl(parsed.query))

        home = legacy_location(path)
        if home is not None:
            # Deprecation envelope: GETs are redirected (stdlib clients
            # follow 301 transparently), mutating methods are refused —
            # silently replaying a POST at a new location is how
            # clients double-submit.
            if method == "GET":
                self._write(
                    writer, 301,
                    error_envelope(
                        "moved",
                        f"unversioned routes moved under /v1; "
                        f"GET {home} instead",
                        {"location": home},
                    ),
                    headers={"Location": home}, close=True,
                )
            else:
                self._write(
                    writer, 410,
                    error_envelope(
                        "gone",
                        f"unversioned routes were removed; "
                        f"{method} {home} instead",
                        {"location": home},
                    ),
                    close=True,
                )
            await writer.drain()
            return False

        try:
            body = await self._read_body(reader, writer, headers)
        except _ProtocolError as exc:
            # The body was not (fully) consumed; the connection cannot
            # carry another request.
            self._write(writer, exc.status, exc.envelope, close=True)
            await writer.drain()
            return False

        t0 = time.perf_counter()
        remote = obs.from_traceparent(headers.get("traceparent"))

        def run_dispatch():
            # Runs on a worker-pool thread, whose execution context does
            # not inherit the coroutine's contextvars — the remote span
            # context must be re-attached here, inside the callable.
            token = obs.attach(remote) if remote is not None else None
            try:
                return dispatch(self.ctx, method, path, body=body,
                                query=query)
            finally:
                if token is not None:
                    obs.detach(token)

        assert self._loop is not None
        if self._inline_eligible(method, path, body):
            # ``dispatch`` never raises — errors come back as envelope
            # replies — so running it right on the loop is safe, and for
            # these sub-millisecond handlers it saves the executor
            # round-trip that otherwise dominates the request.
            reply = run_dispatch()
        else:
            reply = await self._loop.run_in_executor(
                self._executor, run_dispatch
            )
        obs.log_access(
            method, path, reply.status, time.perf_counter() - t0,
            remote.trace_id if remote is not None else None,
            verbose=self.verbose,
        )
        if reply.streaming:
            # A stream is a tail, not in-flight work: the drain ends it
            # by interrupting its job, so it must not hold the drain.
            self._busy -= 1
            task = asyncio.current_task()
            assert task is not None
            self._stream_tasks.add(task)
            try:
                await self._write_stream(writer, reply.payload)
            finally:
                self._stream_tasks.discard(task)
                self._busy += 1
            return False  # chunked replies own their connection
        self._write(writer, reply.status, reply.payload,
                    headers=reply.headers, close=not keep_alive)
        await writer.drain()
        return keep_alive

    def _inline_eligible(self, method: str, path: str, body: dict) -> bool:
        """Whether this request may run on the loop instead of the pool.

        Only handlers that cannot block meaningfully qualify: session
        opens against pooled markets, short steps, reads and deletes.
        A ``/step`` stays off the loop whenever it might sleep (a
        coalesce leader parks for the window) or run long
        (``until_done`` / large round counts); market builds, job
        routes, streaming and checkpoint restore always take the pool.
        """
        if method == "GET":
            return _INLINE_GET.match(path) is not None
        if method == "DELETE":
            return _INLINE_DELETE.match(path) is not None
        if method == "POST":
            if path == "/v1/sessions":
                # A digest reference is a pool lookup; an inline market
                # dict may trigger a full market build — pool that.
                return isinstance(body.get("market"), str)
            if _INLINE_STEP.match(path) is not None:
                if self.manager.coalesce_window is not None:
                    return False
                if body.get("until_done"):
                    return False
                rounds = body.get("rounds", 1)
                return (
                    isinstance(rounds, int)
                    and not isinstance(rounds, bool)
                    and 0 < rounds <= _INLINE_MAX_ROUNDS
                )
        return False

    # ------------------------------------------------------------------
    # Body parsing: 411/413 are transport-level protocol errors
    # ------------------------------------------------------------------
    async def _read_body(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        headers: dict[str, str],
    ) -> dict:
        if "chunked" in headers.get("transfer-encoding", "").lower():
            raise _ProtocolError(
                411, "length_required",
                "chunked request bodies are not accepted; send "
                "Content-Length",
            )
        raw_length = headers.get("content-length")
        if raw_length is None:
            return {}
        try:
            length = int(raw_length)
        except ValueError:
            raise _ProtocolError(
                411, "length_required",
                f"Content-Length {raw_length!r} is not an integer",
            ) from None
        if length < 0:
            raise _ProtocolError(
                411, "length_required",
                f"Content-Length must be >= 0, got {length}",
            )
        if length == 0:
            return {}
        if length > MAX_BODY_BYTES:
            raise _ProtocolError(
                413, "payload_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte cap",
                {"max_bytes": MAX_BODY_BYTES},
            )
        if headers.get("expect", "").lower() == "100-continue":
            # The client holds the body back until told the length is
            # acceptable; without this it waits out its own timeout.
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        try:
            raw = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _ProtocolError(
                400, "invalid_request",
                f"request body ended after {len(exc.partial)} of the "
                f"declared {length} bytes",
            ) from None
        try:
            payload = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _ProtocolError(
                400, "invalid_request",
                f"request body is not valid JSON: {exc}",
            ) from None
        if not isinstance(payload, dict):
            raise _ProtocolError(
                400, "invalid_request", "request body must be a JSON object"
            )
        return payload

    # ------------------------------------------------------------------
    # Replies
    # ------------------------------------------------------------------
    def _write(self, writer: asyncio.StreamWriter, status: int,
               payload: object, *, headers: dict | None = None,
               close: bool = False) -> None:
        extra = dict(headers or {})
        if isinstance(payload, str):
            # Raw-text reply (the /v1/metrics Prometheus exposition):
            # the handler owns the bytes and the content type.
            blob = payload.encode("utf-8")
            content_type = extra.pop("Content-Type",
                                     "text/plain; charset=utf-8")
        else:
            blob = json.dumps(payload).encode("utf-8")
            content_type = extra.pop("Content-Type", "application/json")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            f"Server: {_SERVER_HEADER}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(blob)}",
        ]
        if close:
            head.append("Connection: close")
        for name, value in extra.items():
            head.append(f"{name}: {value}")
        writer.write("\r\n".join(head).encode("utf-8") + b"\r\n\r\n" + blob)

    async def _write_stream(self, writer: asyncio.StreamWriter,
                            lines) -> None:
        """Chunked JSON lines from a blocking generator.

        The generator runs on a daemon thread of its own: an event
        stream blocks in ``next()`` until its job changes, so streams
        pumped through the handler pool would hold every worker that
        other requests (fleet heartbeats and leases among them) need.
        """
        writer.write(
            f"HTTP/1.1 200 {_REASONS[200]}\r\n"
            f"Server: {_SERVER_HEADER}\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n".encode("utf-8")
        )
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue()
        end = object()
        hung_up = threading.Event()

        def deliver(item: object) -> None:
            try:
                loop.call_soon_threadsafe(queue.put_nowait, item)
            except RuntimeError:  # the loop closed under a drain
                hung_up.set()

        def pump() -> None:
            iterator = iter(lines)
            try:
                for item in iterator:
                    deliver(item)
                    if hung_up.is_set():
                        break
                else:
                    deliver(end)
            except Exception as exc:  # re-raised on the loop below
                deliver(exc)
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        threading.Thread(target=pump, name="serve-stream", daemon=True).start()
        try:
            while True:
                item = await queue.get()
                if item is end:
                    break
                if isinstance(item, Exception):
                    raise item
                blob = json.dumps(item).encode("utf-8") + b"\n"
                writer.write(b"%X\r\n%s\r\n" % (len(blob), blob))
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            hung_up.set()


def _parse_head(head: bytes) -> tuple[str, str, str, dict[str, str]]:
    """``(method, target, version, lower-cased headers)`` of one request."""
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        raise ValueError("request head is not decodable")
    lines = text.split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line {lines[0]!r}")
    method, target, version = parts
    if not version.startswith("HTTP/"):
        raise ValueError(f"malformed HTTP version {version!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ValueError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    return method, target, version, headers


def _keep_alive(version: str, headers: dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"


def start_fleet_agent(
    join: str,
    ctx: ServiceContext,
    bound_host: str,
    bound_port: int,
    *,
    capacity: int = 1,
    worker_url: str | None = None,
    labels: dict | None = None,
):
    """Join this process to a coordinator's fleet (``serve --join URL``).

    The advertised URL defaults to the bound address — override it with
    ``worker_url`` when the coordinator reaches this host through NAT
    or a proxy.  ``REPRO_FLEET_THROTTLE`` (seconds per chunk) models a
    slower worker; it exists for heterogeneous-fleet benchmarks/drills.
    Returns the started :class:`~repro.fleet.agent.FleetAgent`.
    """
    import os

    from repro.fleet import FleetAgent
    from repro.service.api import service_load

    url = (worker_url or f"http://{bound_host}:{bound_port}").rstrip("/")
    throttle = float(os.environ.get("REPRO_FLEET_THROTTLE") or 0.0)
    agent = FleetAgent(
        join,
        url,
        capacity=max(1, int(capacity)),
        labels=labels,
        load_probe=lambda: service_load(ctx),
        throttle=throttle,
    )
    agent.start()
    print(f"fleet worker {agent.worker_id} ({url}) joining {agent.coordinator}")
    return agent


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    *,
    idle_ttl: float | None = 900.0,
    max_sessions: int = 4096,
    coalesce_window: float | None = None,
    job_store: str | None = None,
    shards: int = 2,
    drain_timeout: float = 30.0,
    eviction_interval: float | None = None,
    http_workers: int = 8,
    verbose: bool = False,
    join: str | None = None,
    capacity: int = 1,
    worker_url: str | None = None,
    lease_ttl: float = 60.0,
    heartbeat_ttl: float = 15.0,
) -> int:
    """Blocking entry point behind ``python -m repro serve``.

    Exits gracefully on SIGTERM (and Ctrl-C): the listener stops, any
    running jobs drain to the durable store — in-flight chunks flush,
    so ``repro jobs resume`` picks up exactly where the server stopped
    — and the process returns 0.
    """
    import signal

    from repro.jobs import JobStore, default_store_path

    manager = SessionManager(
        max_sessions=max_sessions,
        idle_ttl=idle_ttl or None,
        coalesce_window=coalesce_window,
    )
    jobs = JobService(JobStore(job_store or default_store_path()),
                      shards=shards, lease_ttl=lease_ttl,
                      heartbeat_ttl=heartbeat_ttl)
    server = MarketplaceServer(
        host, port,
        manager=manager,
        jobs=jobs,
        workers=http_workers,
        eviction_interval=eviction_interval,
        drain_timeout=drain_timeout,
        verbose=verbose,
    )
    bound_host, bound_port = server.start_background()
    try:
        # SIGTERM takes the Ctrl-C path: both end the wait below.
        signal.signal(signal.SIGTERM, signal.default_int_handler)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    agent = None
    try:
        if join:
            agent = start_fleet_agent(
                join, server.ctx, bound_host, bound_port,
                capacity=capacity, worker_url=worker_url,
            )
        print(f"repro marketplace service on "
              f"http://{bound_host}:{bound_port} (SIGTERM or Ctrl-C to stop)")
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        if agent is not None:
            agent.stop()
        server.shutdown(timeout=None)
        print("repro marketplace service drained and stopped")
    return 0


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """CLI flags for the ``serve`` command (kept next to the server)."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8765,
                        help="bind port (default 8765; 0 = ephemeral)")
    parser.add_argument("--idle-ttl", type=float, default=900.0, metavar="SECS",
                        help="evict sessions idle longer than this "
                             "(default 900; 0 disables)")
    parser.add_argument("--max-sessions", type=int, default=4096,
                        help="resident-session cap (default 4096)")
    parser.add_argument("--job-store", default=None, metavar="PATH",
                        help="durable job store (default: $REPRO_JOB_STORE "
                             "or ~/.cache/repro/jobs.sqlite3)")
    parser.add_argument("--shards", type=int, default=2, metavar="N",
                        help="worker shards for submitted jobs (default 2; "
                             "0 = all cores)")
    parser.add_argument("--drain-timeout", type=float, default=30.0,
                        metavar="SECS",
                        help="grace for in-flight job chunks on shutdown")
    # Accepted and ignored for one release: asyncio is the only server.
    parser.add_argument("--async", dest="use_async", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--coalesce-window", type=float, default=None,
                        metavar="SECS",
                        help="micro-batch concurrent /step calls per market "
                             "for this long before sweeping them together "
                             "(default: off; try 0.002)")
    parser.add_argument("--eviction-interval", type=float, default=None,
                        metavar="SECS",
                        help="periodic idle-session sweep interval "
                             "(default: min(60, idle_ttl/2); 0 disables)")
    parser.add_argument("--http-workers", type=int, default=8, metavar="N",
                        help="handler threads for requests that may block "
                             "(default 8)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every request")
    parser.add_argument("--join", default=None, metavar="URL",
                        help="join a coordinator's worker fleet: register "
                             "at URL, heartbeat, and pull job chunks from "
                             "its lease queue")
    parser.add_argument("--capacity", type=int, default=1, metavar="N",
                        help="chunks this worker pulls concurrently when "
                             "joined (default 1)")
    parser.add_argument("--worker-url", default=None, metavar="URL",
                        help="advertised URL for --join (default: the "
                             "bound address); the worker's fleet identity")
    parser.add_argument("--lease-ttl", type=float, default=60.0,
                        metavar="SECS",
                        help="coordinator: seconds a worker owns a leased "
                             "chunk before it becomes stealable "
                             "(default 60)")
    parser.add_argument("--heartbeat-ttl", type=float, default=15.0,
                        metavar="SECS",
                        help="coordinator: seconds without a heartbeat "
                             "before a worker is lost and its leases "
                             "re-queue (default 15)")
