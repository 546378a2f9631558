"""Asyncio HTTP front end for the tip service (``repro serve``).

Against an index that answers batched θ-lookups at tens of millions per
second, the per-request parse → route → manifest read → gather →
serialize round trip is the whole cost.  This front end amortises it like
an inference-serving batcher:

* **persistent connections** — a hand-rolled HTTP/1.1 protocol layer over
  asyncio streams: keep-alive by default, pipelining supported
  (requests are parsed as fast as they arrive; responses are written back
  in order by a per-connection writer task).
* **micro-batching** — concurrent point-θ requests across *all*
  connections coalesce into one vectorized ``TipIndex`` gather per
  event-loop tick (:class:`~repro.service.coalesce.ThetaCoalescer`, with
  ``max_batch`` / ``max_delay`` knobs).
* **cached stats** — bare ``/stats`` responses are cached for a short TTL
  so monitoring polls never touch an artifact (pass any query parameter,
  e.g. ``/stats?fresh=1``, to bypass the cache).
* **bulk protocol** — ``POST /theta/batch`` with
  ``Content-Type: application/x-ndjson`` treats every body line as one
  batch request and streams back one JSON answer per line.
* **admission-controlled writes** — ``POST /update`` runs on a single
  writer thread behind a bounded queue
  (:class:`~repro.service.coalesce.UpdateAdmissionController`); overflow
  answers 503 + ``Retry-After`` immediately, so a write burst never
  stalls the coalesced read pipeline.
* **read deadlines** — one server-wide sweep closes a connection idle
  between requests for :data:`_IDLE_TIMEOUT_SECONDS` (never one awaiting
  a response), answers 408 when a request's line and headers take longer
  than :data:`_HEADER_TIMEOUT_SECONDS` from its first byte, and a header
  block over :data:`_MAX_HEADER_BYTES` is answered 431.

Routing is :meth:`~repro.service.server.TipService.handle` and its route
table (:data:`~repro.service.server.ROUTES`), so served and offline
answers are byte-for-byte identical — the serving benchmark asserts
exactly that.  Each row's ``execution`` says how a request runs: inline,
on the default executor (blocking routes, so the event loop keeps serving
reads meanwhile), through the coalescer (via the vectorized twin
:meth:`~repro.service.server.TipService.theta_payloads`) or through
admission control.  This module names only the paths the transport owns:
``/metrics``, the cached bare ``/stats`` and NDJSON on ``/theta/batch``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
import time
from urllib.parse import parse_qs, urlsplit

from ..errors import ReproError, ServiceError
from .coalesce import DEFAULT_MAX_BATCH, ThetaCoalescer, UpdateAdmissionController
from .resilience import Deadline
from .server import (
    MAX_REQUEST_BODY_BYTES,
    METRICS_CONTENT_TYPE,
    ROUTE_TABLE,
    TipService,
    error_payload,
    parse_post_body,
    to_jsonable,
)

__all__ = ["AsyncTipServer", "AsyncServerHandle", "serve_async", "start_server_thread"]

#: Reason phrases for the statuses the service actually emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Cap on queued-but-unwritten responses per connection; a client
#: pipelining deeper than this is back-pressured at the read loop.
_PIPELINE_DEPTH = 1024

_MAX_HEADERS = 100

#: Seconds a connection may sit idle between requests, with no response
#: outstanding, before it is closed.
_IDLE_TIMEOUT_SECONDS = 60.0

#: Seconds from a request's first byte to the end of its header block;
#: a slower request is answered 408 and its connection closed.
_HEADER_TIMEOUT_SECONDS = 10.0

#: Cap on the bytes of one request's header lines (the request line has
#: the stream reader's 64 KiB line limit); a larger block is answered 431.
_MAX_HEADER_BYTES = 32 * 1024


class _BadRequest(ServiceError):
    """Protocol-level failure: answered, then the connection is closed.

    ``route`` labels the request metrics: the request's route when its
    request line parsed, ``<unknown>`` otherwise.
    """

    def __init__(self, message: str, *, status: int = 400, route: str = "<unknown>"):
        super().__init__(message, status=status)
        self.route = route


class _Reader(asyncio.StreamReader):
    """One connection's read side, with the state the deadline sweep reads.

    ``first_byte`` is the monotonic time of the first byte received since
    the read loop last finished a header block or body (``None`` while
    nothing has come; bytes already buffered behind a pipelined request
    count from the next arrival).  ``in_head`` is set while a request line
    and headers are read, ``pending`` counts responses queued and not yet
    written, and ``idle_since`` is when ``pending`` last fell to 0.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.first_byte: float | None = None
        self.in_head = True
        self.pending = 0
        self.idle_since = time.monotonic()

    def feed_data(self, data: bytes) -> None:
        """Buffer ``data``, stamping the first byte of a new request."""
        if self.first_byte is None:
            self.first_byte = time.monotonic()
        super().feed_data(data)


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(to_jsonable(payload)).encode("utf-8")


def _theta_json(payload: dict) -> bytes:
    # Byte-identical to json.dumps({"vertex": v, "theta": t}) without the
    # serializer round trip — this is the hot path.
    return b'{"vertex": %d, "theta": %d}' % (payload["vertex"], payload["theta"])


def _split_target(target: str) -> tuple[str, dict]:
    """Request target → (route, query params, the last value of each wins)."""
    try:
        parsed = urlsplit(target)
    except ValueError:  # e.g. an unbalanced "[" where urlsplit expects a host
        raise _BadRequest("malformed request target") from None
    params = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
    return parsed.path.rstrip("/") or "/", params


class AsyncTipServer:
    """Event-loop transport over a :class:`TipService`.

    Lifecycle: construct (off-loop is fine), ``await start()`` on the
    serving loop, ``await serve_forever()``; ``request_stop()`` (loop) or
    :class:`AsyncServerHandle` (other threads) end it; ``await close()``
    tears down connections and the writer thread.
    """

    def __init__(
        self,
        artifact_paths=None,
        *,
        service: TipService | None = None,
        host: str = "127.0.0.1",
        port: int = 8750,
        cache_capacity: int = 8,
        mmap: bool = True,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_delay: float = 0.0,
        max_pending_updates: int = 4,
        retry_after_seconds: float = 1.0,
        stats_cache_seconds: float = 0.05,
        shards: int | None = None,
        quiet: bool = True,
    ):
        if service is None:
            service = TipService(
                artifact_paths or [], cache_capacity=cache_capacity, mmap=mmap,
                shards=shards)
        self.service = service
        self.host = host
        self.port = int(port)
        self.quiet = quiet
        self.stats_cache_seconds = float(stats_cache_seconds)
        self.coalescer = ThetaCoalescer(
            service, max_batch=max_batch, max_delay=max_delay)
        self.admission = UpdateAdmissionController(
            service, max_pending=max_pending_updates,
            retry_after_seconds=retry_after_seconds)
        # /stats observability for the new layer, via the shared service.
        service.transport_metrics["coalescer"] = self.coalescer.metrics
        service.transport_metrics["updates"] = self.admission.metrics
        self._stats_cache: tuple[float, bytes] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop_event: asyncio.Event | None = None
        self._sweeper: asyncio.TimerHandle | None = None
        self._connections: dict[asyncio.Task, _Reader] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (``port=0`` picks a free port)."""
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await loop.create_server(
            lambda: asyncio.StreamReaderProtocol(
                _Reader(loop=loop), self._on_connection, loop=loop),
            self.host, self.port, reuse_address=True)
        self._sweep()

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)``; valid after :meth:`start`."""
        assert self._server is not None, "call start() first"
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    async def serve_forever(self) -> None:
        """Block until :meth:`request_stop` is called."""
        assert self._stop_event is not None, "call start() first"
        await self._stop_event.wait()

    def request_stop(self) -> None:
        """End :meth:`serve_forever`; must be called on the serving loop."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def close(self) -> None:
        """Stop listening and cancel every open connection task."""
        if self._server is not None:
            self._server.close()
        if self._sweeper is not None:
            self._sweeper.cancel()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self.admission.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(self, reader, writer) -> None:
        # Deliberately a plain (non-coroutine) callback: asyncio.streams
        # attaches a done-callback to coroutine callbacks that calls
        # task.exception(), which logs a spurious error for every
        # connection task cancelled at shutdown.  Spawning the task here
        # means we own it outright.
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer))
        self._connections[task] = reader
        task.add_done_callback(self._connections.pop)

    def _sweep(self) -> None:
        """Enforce the read deadlines on every connection, then re-arm.

        One timer for the whole server instead of a timeout around every
        read: the hot path only stamps times and counts responses.
        """
        now = time.monotonic()
        for reader in self._connections.values():
            if reader.pending or not reader.in_head:
                continue  # answering, or reading a body: never cut off
            if reader.first_byte is None:
                if now - reader.idle_since > _IDLE_TIMEOUT_SECONDS:
                    reader.set_exception(TimeoutError("idle connection"))
            elif now - reader.first_byte > _HEADER_TIMEOUT_SECONDS:
                reader.set_exception(_BadRequest(
                    f"request headers not received within "
                    f"{_HEADER_TIMEOUT_SECONDS:g}s", status=408))
        self._sweeper = asyncio.get_running_loop().call_later(
            min(_IDLE_TIMEOUT_SECONDS, _HEADER_TIMEOUT_SECONDS) / 4, self._sweep)

    async def _handle_connection(self, reader: _Reader, writer) -> None:
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, TimeoutError):
            pass  # client went away mid-request, or sat idle too long
        finally:
            writer.close()

    async def _serve_connection(self, reader: _Reader, writer) -> None:
        # Reader/writer split: the read loop parses requests as fast as the
        # socket delivers them and enqueues a response *slot* per request;
        # the writer task resolves slots in order.  A burst of pipelined
        # point-θ requests is therefore fully parsed — and lands in one
        # coalescer batch — before any response is awaited.
        queue: asyncio.Queue = asyncio.Queue(maxsize=_PIPELINE_DEPTH)
        writer_task = asyncio.create_task(self._drain_responses(queue, reader, writer))
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    # Rejected before dispatch, so there is no handler time
                    # to observe; counted all the same, so oversized bodies
                    # and scanners show up in the request metrics.
                    self.service.observe_request(
                        "async", error.route, error.status, 0.0, quiet=self.quiet)
                    reader.pending += 1
                    await queue.put((self._render_error(error, close=True), True))
                    break
                if request is None:
                    break  # EOF
                item, close = self._dispatch(*request)
                reader.pending += 1
                await queue.put((item, close))
                if close:
                    break
        finally:
            try:
                queue.put_nowait(None)
            except asyncio.QueueFull:
                writer_task.cancel()
            try:
                await writer_task
            except asyncio.CancelledError:
                writer_task.cancel()
                raise
            except Exception:
                writer_task.cancel()

    async def _drain_responses(self, queue: asyncio.Queue, reader: _Reader, writer) -> None:
        # On a write failure the loop keeps *consuming* slots (so a read
        # loop blocked on a full queue is never deadlocked, and pending
        # coalescer futures are still awaited) — it just stops writing.
        broken = False
        while True:
            item = await queue.get()
            if item is None:
                break
            payload, close = item
            if not isinstance(payload, (bytes, bytearray)):
                try:
                    payload = await payload
                except Exception as error:  # a response slot must never die
                    payload, close = self._failure(error, close=True)
            if not broken:
                try:
                    writer.write(payload)
                    if queue.empty():
                        await writer.drain()  # one syscall per pipelined burst
                except (ConnectionError, RuntimeError):
                    broken = True
            reader.pending -= 1
            if not reader.pending:
                reader.idle_since = time.monotonic()
            if close:
                break

    async def _read_request(self, reader: _Reader):
        """Parse one HTTP/1.1 request; None on clean EOF.

        Returns ``(method, route, params, headers, body, keep_alive)``.
        """
        reader.in_head = True
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise _BadRequest("request line too long") from None
            if not line:
                return None
            if line in (b"\r\n", b"\n"):
                continue  # stray CRLF between pipelined requests (RFC 9112)
            break
        parts = line.split()
        if len(parts) != 3:
            raise _BadRequest("malformed request line")
        method, target, version = parts
        if version not in (b"HTTP/1.1", b"HTTP/1.0"):
            raise _BadRequest(f"unsupported protocol {version.decode('latin-1')!r}")
        route, params = _split_target(target.decode("latin-1"))
        headers: dict[str, str] = {}
        header_bytes = 0
        for _ in range(_MAX_HEADERS):
            try:
                header_line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise _BadRequest("header line too long", route=route) from None
            except _BadRequest as error:  # the sweep's header deadline
                error.route = route
                raise
            if header_line in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(header_line)
            if header_bytes > _MAX_HEADER_BYTES:
                raise _BadRequest(
                    f"header block exceeds the {_MAX_HEADER_BYTES}-byte cap",
                    status=431, route=route)
            name, separator, value = header_line.decode("latin-1").partition(":")
            if not separator:
                raise _BadRequest("malformed header line", route=route)
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest("too many headers", route=route)
        reader.in_head = False
        reader.first_byte = None
        raw_length = headers.get("content-length") or "0"
        # ASCII digits only (RFC 9110): int() would also take "+5", "1_0"
        # and non-ASCII digits, framing the body differently from a proxy.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise _BadRequest("malformed Content-Length", route=route)
        content_length = int(raw_length)
        if content_length > MAX_REQUEST_BODY_BYTES:
            # The unread body would desynchronise the stream; 413 + close.
            raise _BadRequest(
                f"request body of {content_length} bytes exceeds the "
                f"{MAX_REQUEST_BODY_BYTES}-byte cap", status=413, route=route)
        body = b""
        if content_length:
            try:
                body = await reader.readexactly(content_length)
            except asyncio.IncompleteReadError:
                return None
            reader.first_byte = None
        connection = headers.get("connection", "").lower()
        keep_alive = (
            connection != "close"
            if version == b"HTTP/1.1"
            else connection == "keep-alive"
        )
        return method.decode("latin-1").upper(), route, params, headers, body, keep_alive

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, method, route, params, headers, body, keep_alive):
        """One request → (response bytes | awaitable of bytes, close flag).

        Wraps the routing core with latency observation.  Deferred
        responses (coalesced θ lookups, executor routes, admitted updates)
        are observed when their awaitable resolves, so the recorded latency
        includes the queue and executor wait — the number a client
        actually sees.
        """
        started = time.perf_counter()
        item, close = self._route(method, route, params, headers, body, not keep_alive)
        if isinstance(item, (bytes, bytearray)):
            self._observe(route, item, started)
            return item, close
        return self._observed(item, route, started), close

    def _observe(self, route: str, response: bytes, started: float) -> None:
        # Rendered responses lead with b"HTTP/1.1 NNN ..."; slicing the
        # status back out beats threading it through every return site.
        self.service.observe_request(
            "async", route, int(response[9:12]),
            time.perf_counter() - started, quiet=self.quiet)

    async def _observed(self, item, route: str, started: float) -> bytes:
        response = await item
        self._observe(route, response, started)
        return response

    def _route(self, method, route, params, headers, body, close):
        service = self.service
        try:
            if method == "GET":
                if route == "/metrics":
                    service.count_requests("/metrics")
                    return self._render(
                        200, service.metrics_text().encode("utf-8"),
                        close=close, content_type=METRICS_CONTENT_TYPE), close
                if route == "/stats" and not params and self.stats_cache_seconds > 0:
                    return self._render(200, self._stats_body(), close=close), close
                request_body = None
            elif method == "POST":
                content_type = headers.get("content-type", "")
                if (route == "/theta/batch"
                        and content_type.split(";")[0].strip().lower()
                        == "application/x-ndjson"):
                    return self._render(
                        200, self._ndjson_batch(params, body), close=close,
                        content_type="application/x-ndjson"), close
                request_body = parse_post_body(body)
            else:
                raise ServiceError(
                    f"method {method} not allowed; use GET or POST", status=405)
            row = ROUTE_TABLE.get(route)
            execution = row.execution if row is not None else "inline"
            if execution == "coalesced" and method == "GET":
                future = self._coalesce(params)
                if future is not None:
                    return self._deferred(future, close, _theta_json), close
            elif execution == "admitted" and method == "POST":
                task = asyncio.get_running_loop().create_task(
                    self.admission.submit(params, request_body))
                return self._deferred(task, close), close
            elif execution == "executor":
                work = asyncio.get_running_loop().run_in_executor(
                    None, functools.partial(service.handle, route, params, request_body))
                return self._deferred(work, close), close
            payload = service.handle(route, params, request_body)
            return self._render(200, _json_bytes(payload), close=close), close
        except Exception as error:  # a handler bug must not kill the loop
            return self._failure(error, close=close)

    def _coalesce(self, params: dict):
        """Queue a point-θ lookup; None when ``handle()`` must answer instead.

        The vertex and deadline are parsed as ``handle()`` parses them, so
        whatever it would reject falls through to it for the exact 400.
        """
        try:
            vertex = TipService._int_param(params, "vertex")
            deadline = Deadline.from_params(params)
        except ServiceError:
            return None
        return self.coalescer.submit(params.get("artifact"), vertex, deadline=deadline)

    async def _deferred(self, work, close: bool, encode=_json_bytes) -> bytes:
        """Render a coalesced, executor or admitted answer once it resolves."""
        try:
            payload = await work
        except Exception as error:
            return self._failure(error, close=close)[0]
        return self._render(200, encode(payload), close=close)

    def _failure(self, error: Exception, *, close: bool) -> tuple[bytes, bool]:
        """The one error ladder: ``(response bytes, close flag)``.

        A :class:`ServiceError` answers its own status (503s carry
        ``Retry-After``); any other repro error is a 500; anything else is
        a handler bug, answered 500 with the connection closed.
        """
        if isinstance(error, ServiceError):
            return self._render_error(error, close=close), close
        if not isinstance(error, ReproError):
            close = True
        return self._render(
            500, _json_bytes(error_payload(error, status=500)), close=close), close

    def _stats_body(self) -> bytes:
        now = time.monotonic()
        cached = self._stats_cache
        if cached is not None and now - cached[0] < self.stats_cache_seconds:
            self.service.count_requests("/stats")
            return cached[1]
        body = _json_bytes(self.service.handle("/stats"))
        self._stats_cache = (now, body)
        return body

    def _ndjson_batch(self, params: dict, raw: bytes) -> bytes:
        """NDJSON bulk protocol: one /theta/batch request per body line."""
        lines = [line for line in raw.split(b"\n") if line.strip()]
        if not lines:
            raise ServiceError("NDJSON body carries no request lines")
        rendered = []
        for line in lines:
            try:
                entry = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                rendered.append(_json_bytes(error_payload(
                    ServiceError("NDJSON line is not valid JSON"))))
                continue
            body = {"vertices": entry} if isinstance(entry, list) else entry
            if not isinstance(body, dict):
                rendered.append(_json_bytes(error_payload(
                    ServiceError("NDJSON line must be a JSON object or array"))))
                continue
            try:
                payload = self.service.handle("/theta/batch", params, body)
            except ServiceError as error:
                rendered.append(_json_bytes(error_payload(error)))
                continue
            rendered.append(_json_bytes(payload))
        return b"\n".join(rendered) + b"\n"

    # ------------------------------------------------------------------
    # Response rendering
    # ------------------------------------------------------------------
    def _render(self, status: int, body: bytes, *, close: bool = False,
                content_type: str = "application/json",
                extra_headers=None) -> bytes:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if extra_headers:
            for name, value in extra_headers:
                head += f"{name}: {value}\r\n"
        if close:
            head += "Connection: close\r\n"
        return head.encode("latin-1") + b"\r\n" + body

    def _render_error(self, error: Exception, *, close: bool) -> bytes:
        payload = error_payload(error)
        extra = None
        retry_after = payload.get("retry_after_seconds")
        if retry_after is not None:
            extra = (("Retry-After", str(max(1, round(retry_after)))),)
        return self._render(payload["status"], _json_bytes(payload),
                            close=close, extra_headers=extra)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
async def _serve_until_stopped(server: AsyncTipServer) -> None:
    await server.start()
    host, port = server.address
    if not server.quiet:
        names = server.service.artifact_names
        print(f"serving {len(names)} artifact(s) ({', '.join(names)}) "
              f"on http://{host}:{port} [transport=async]")
    try:
        await server.serve_forever()
    finally:
        await server.close()


def serve_async(service: TipService, *, quiet: bool = False, **options) -> None:
    """Serve ``service`` on the async transport until interrupted.

    The body of ``repro serve``; ``options`` are :class:`AsyncTipServer`'s
    keywords.
    """
    server = AsyncTipServer(service=service, quiet=quiet, **options)
    try:
        asyncio.run(_serve_until_stopped(server))
    except KeyboardInterrupt:
        pass


class AsyncServerHandle:
    """A running async server on a background thread (tests/benchmarks)."""

    def __init__(self, server: AsyncTipServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def service(self) -> TipService:
        """The :class:`TipService` behind the running server."""
        return self.server.service

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` of the background server."""
        return self.server.address

    @property
    def base_url(self) -> str:
        """``http://host:port`` for plain-URL clients."""
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread."""
        self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout)


def start_server_thread(artifact_paths=None, **options) -> AsyncServerHandle:
    """Start an :class:`AsyncTipServer` on a daemon thread and wait for bind.

    ``options`` are :class:`AsyncTipServer`'s keywords; ``port`` defaults
    to 0, a free port.
    """
    options.setdefault("port", 0)
    started = threading.Event()
    box: dict = {}

    def runner() -> None:
        """Thread target: own the event loop for the server's lifetime."""

        async def main() -> None:
            """Build, start and run the server inside the thread's loop."""
            server = AsyncTipServer(artifact_paths, **options)
            await server.start()
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            try:
                await server.serve_forever()
            finally:
                await server.close()

        try:
            asyncio.run(main())
        except Exception as error:  # surface startup failures to the caller
            box.setdefault("error", error)
            started.set()

    thread = threading.Thread(target=runner, daemon=True, name="tip-aserver")
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("async server did not start within 30s")
    if "error" in box:
        raise box["error"]
    return AsyncServerHandle(box["server"], box["loop"], thread)
