"""HTTP/1.1 for the service tier: framing, errors, connections, exchanges.

Everything the worker server (:mod:`repro.service.server`), the cluster
coordinator (:mod:`repro.cluster.coordinator`) and the clients
(:class:`~repro.service.client.ServiceClient`,
:mod:`repro.parallel.transport`, :class:`repro.cluster.ClusterHandle`)
know about the wire lives here; they only decide what to send and what
to do with the answer.

The connection policy is small and stdlib only.  **Connections persist
on every hop.**  The server answers requests one after another on a
connection while the client asks for keep-alive, each with a matching
``Connection`` header.  It closes the connection after a chunked
stream, an error, a client ``Connection: close``, a handler that wrote
nothing, or :data:`IDLE_TIMEOUT_S` of silence; a drain closes idle
connections at once.  The clients keep up to :data:`MAX_IDLE_PER_PEER`
idle connections per peer: :func:`exchange` in a pool per event loop
(:func:`close_connections` empties it), :func:`fetch` in one
process-wide pool that a forked child drops.  A connection goes back
only after its reply was read whole; one that was cancelled, timed out
or framed badly is closed.  A *reused* connection that fails before
its reply begins (the server closed it while idle) is retried once on
a fresh one, inside the exchange.  Batch streams
(:func:`open_response`) stay one connection each.

JSON bodies are framed by ``Content-Length``, and batch streams as
chunked NDJSON terminated by a ``{"done": true}`` line and the
zero-length chunk.  Every refusal is one JSON error envelope,
``{"ok": false, "error": {"code": ..., "message": ...}}``, built by
:func:`http_error`.  Reason phrases come from :class:`http.HTTPStatus`.

:class:`HttpEndpoint` is the shared server half: one connection handler
(parse, route by table, answer errors, keep alive or close, observe
latency) plus the listener lifecycle.  :func:`exchange` is the one
asynchronous client exchange (a JSON reply, or a live NDJSON stream);
:func:`fetch` and :func:`open_response` are the blocking ones.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import os
import signal
import threading
import time
import weakref
from dataclasses import dataclass
from http import HTTPStatus
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "IDLE_TIMEOUT_S",
    "LAST_CHUNK",
    "MAX_BODY_BYTES",
    "MAX_IDLE_PER_PEER",
    "HttpEndpoint",
    "HttpError",
    "HttpProtocolError",
    "NdjsonLines",
    "Request",
    "ResponseWriter",
    "chunk",
    "close_connections",
    "end_ndjson",
    "error_body",
    "exchange",
    "fetch",
    "head_bytes",
    "http_error",
    "iter_ndjson",
    "loop_thread",
    "on_signals",
    "open_response",
    "read_request",
    "replayable",
    "restamp_connection",
    "send_bytes",
    "send_json",
    "send_line",
    "start_in_thread",
    "start_ndjson",
]

#: Largest accepted request body (bytes); protects the JSON parser.
MAX_BODY_BYTES = 32 * 1024 * 1024
#: The zero-length chunk that ends a chunked body.
LAST_CHUNK = b"0\r\n\r\n"
#: Seconds a served connection may sit idle between requests before
#: the server closes it.
IDLE_TIMEOUT_S = 60.0
#: Idle connections a client pool keeps per peer; more are closed.
MAX_IDLE_PER_PEER = 8

Headers = Dict[str, str]


class HttpError(Exception):
    """Abort request handling with a status and a JSON body."""

    def __init__(
        self,
        status: int,
        body: Dict[str, Any],
        headers: Optional[Headers] = None,
    ) -> None:
        super().__init__(body.get("error"))
        self.status = status
        self.body = body
        self.headers = headers or {}


def error_body(code: str, message: str, **fields: Any) -> Dict[str, Any]:
    """The one error envelope: ``{"ok": false, "error": {...}, **fields}``."""
    body = {"ok": False, "error": {"code": code, "message": message}}
    body.update(fields)
    return body


def http_error(
    status: int,
    code: str,
    message: str,
    headers: Optional[Headers] = None,
    **fields: Any,
) -> HttpError:
    """An :class:`HttpError` carrying :func:`error_body`."""
    return HttpError(status, error_body(code, message, **fields), headers)


class HttpProtocolError(ConnectionError):
    """The peer broke HTTP framing (status line, chunking, stream end).

    A :class:`ConnectionError`, so every caller that already treats a
    dropped connection as a transport failure treats this one alike.
    """


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def _head(first_line: str, headers: Headers) -> bytes:
    lines = [first_line]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def head_bytes(status: int, headers: Headers) -> bytes:
    """A response status line plus headers."""
    return _head(f"HTTP/1.1 {status} {HTTPStatus(status).phrase}", headers)


def chunk(payload: bytes) -> bytes:
    """One chunked-transfer frame around *payload*."""
    return f"{len(payload):x}\r\n".encode("latin-1") + payload + b"\r\n"


class ResponseWriter:
    """The writing half of one served connection.

    Handlers write through it as through an :class:`asyncio.StreamWriter`.
    :attr:`keep_alive` is the reuse decision of the current response:
    :func:`send_bytes` stamps it into the ``Connection`` header, and a
    stream clears it.  :attr:`written` counts the response's bytes, so a
    handler that wrote nothing closes the connection.  Between
    :meth:`record` and :meth:`recorded` the bytes are also kept (the
    coordinator's idempotent replay).
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._recording: Optional[List[bytes]] = None
        self.next_response()

    def next_response(self) -> None:
        """Reset the per-response state before the next request."""
        self.keep_alive = False
        self.written = 0
        self._recording = None

    def write(self, data: bytes) -> None:
        self.written += len(data)
        if self._recording is not None:
            self._recording.append(bytes(data))
        self._writer.write(data)

    async def drain(self) -> None:
        await self._writer.drain()

    def record(self) -> None:
        """Keep a copy of everything written from now on."""
        self._recording = []

    def recorded(self) -> bytes:
        """The bytes written since :meth:`record`."""
        return b"".join(self._recording or ())


def _connection_token(keep_alive: bool) -> str:
    return "keep-alive" if keep_alive else "close"


async def send_bytes(
    writer: ResponseWriter, status: int, payload: bytes, headers: Headers
) -> None:
    """A complete response with a ``Content-Length`` body.

    Its ``Connection`` header says whether *writer*'s connection serves
    another request (:attr:`ResponseWriter.keep_alive`).
    """
    all_headers = {
        **headers,
        "Content-Length": str(len(payload)),
        "Connection": _connection_token(writer.keep_alive),
    }
    writer.write(head_bytes(status, all_headers) + payload)
    await writer.drain()


async def send_json(
    writer: ResponseWriter,
    status: int,
    body: Any,
    headers: Optional[Headers] = None,
) -> None:
    """A complete JSON response, framed by :func:`send_bytes`.

    The connection stays open after it when the client asked for
    keep-alive, the endpoint is not draining and the response is not an
    error; otherwise it closes.
    """
    await send_bytes(
        writer,
        status,
        json.dumps(body).encode("utf-8"),
        {"Content-Type": "application/json", **(headers or {})},
    )


def restamp_connection(raw: bytes, keep_alive: bool) -> bytes:
    """A recorded response with its ``Connection`` header set anew."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    lines = [
        line
        for line in head.split(b"\r\n")
        if not line.lower().startswith(b"connection:")
    ]
    lines.append(b"Connection: " + _connection_token(keep_alive).encode())
    return b"\r\n".join(lines) + sep + body


async def start_ndjson(writer: ResponseWriter, headers: Headers) -> None:
    """Open a chunked NDJSON ``200`` response (closes the connection)."""
    writer.keep_alive = False
    writer.write(
        head_bytes(
            200,
            {
                "Content-Type": "application/x-ndjson",
                "Transfer-Encoding": "chunked",
                "Connection": "close",
                **headers,
            },
        )
    )
    await writer.drain()


async def send_line(writer, doc: Dict[str, Any]) -> None:
    """One NDJSON line as one chunk."""
    writer.write(chunk(json.dumps(doc).encode("utf-8") + b"\n"))
    await writer.drain()


async def end_ndjson(writer, count: int) -> None:
    """The ``{"done": true}`` line and the terminating chunk."""
    writer.write(
        chunk(json.dumps({"done": True, "count": count}).encode() + b"\n")
        + LAST_CHUNK
    )
    await writer.drain()


def replayable(raw: bytes) -> bool:
    """True for a recorded ``200`` with a plain (not chunked) body."""
    head = raw.split(b"\r\n\r\n", 1)[0]
    return raw.startswith(b"HTTP/1.1 200") and (
        b"Transfer-Encoding: chunked" not in head
    )


class NdjsonLines:
    """Incremental decoder of a batch stream's NDJSON lines.

    :meth:`feed` returns the documents completed by each piece of body;
    the terminating ``{"done": true}`` line is consumed, and
    :meth:`finish` raises :class:`HttpProtocolError` if it never came.
    """

    def __init__(self) -> None:
        self._buffer = b""
        self.done = False

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        self._buffer += data
        out: List[Dict[str, Any]] = []
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise HttpProtocolError(
                    f"undecodable stream line: {exc}"
                ) from exc
            if not isinstance(doc, dict):
                raise HttpProtocolError("stream line is not a JSON object")
            if doc.get("done"):
                self.done = True
            else:
                out.append(doc)
        return out

    def finish(self) -> None:
        if not self.done:
            raise HttpProtocolError(
                "stream ended without a done marker (truncated response)"
            )


def _content_length(headers: Headers) -> Optional[int]:
    """The declared body length; ValueError when it is not one."""
    raw = headers.get("content-length")
    if not raw:
        return None
    length = int(raw)
    if length < 0:
        raise ValueError(f"negative Content-Length {length}")
    return length


async def _read_headers(reader: asyncio.StreamReader) -> Headers:
    headers: Headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


@dataclass
class Request:
    """One parsed request; header names are lowercased."""

    method: str
    path: str
    headers: Headers
    body: bytes
    version: str = "HTTP/1.1"

    @property
    def trace_id(self) -> Optional[str]:
        return self.headers.get("x-trace-id")

    @property
    def keep_alive(self) -> bool:
        """Whether the client asks to reuse the connection (the
        HTTP/1.1 default unless it says ``Connection: close``)."""
        token = self.headers.get("connection", "").lower()
        return token == "keep-alive" or (
            token != "close" and self.version == "HTTP/1.1"
        )

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise http_error(
                400, "bad_request", f"invalid JSON body: {exc}"
            ) from exc


async def read_request(
    reader: asyncio.StreamReader, line: Optional[bytes] = None
) -> Request:
    """Parse one request: line, headers, ``Content-Length`` body.

    *line* is the request line when the caller already read it.
    """
    if line is None:
        line = await reader.readline()
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise http_error(400, "bad_request", "malformed request line")
    method, target, version = parts
    headers = await _read_headers(reader)
    try:
        length = _content_length(headers)
    except ValueError:
        error = http_error(400, "bad_request", "invalid Content-Length")
        raise error from None
    if length is not None and length > MAX_BODY_BYTES:
        raise http_error(
            413, "bad_request", f"body exceeds {MAX_BODY_BYTES} bytes"
        )
    body = await reader.readexactly(length) if length else b""
    return Request(
        method.upper(), target.split("?", 1)[0], headers, body, version
    )


# ----------------------------------------------------------------------
# Server half
# ----------------------------------------------------------------------


class HttpEndpoint:
    """Connection handling and listener lifecycle shared by the worker
    server and the coordinator.

    Subclasses set :attr:`ROUTES` (``path -> (method, handler name)``;
    a path ending in ``/`` takes one more segment) and ``metrics`` (a
    :class:`~repro.service.metrics.ServiceMetrics`).  A handler
    ``async def h(self, request, writer) -> bool`` writes its response
    and returns whether it succeeded; raising :class:`HttpError` sends
    that error envelope instead.  ``writer`` is the connection's
    :class:`ResponseWriter`.

    A connection's task counts in ``_handlers`` while it reads or
    answers a request; while it waits for the next one, ``_idle`` maps
    the task to its writer.
    """

    ROUTES: Dict[str, Tuple[str, str]] = {}
    #: Who is draining, in the ``503`` message.
    ROLE = "server"

    def __init__(self) -> None:
        self.draining = False
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._handlers: set = set()
        self._idle: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._stopped: Optional[asyncio.Event] = None

    async def _listen(self, host: str, port: int) -> None:
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _await_handlers(self, grace_s: float) -> bool:
        """Wait up to *grace_s* for open connections; True when none is."""
        deadline = time.monotonic() + grace_s
        while self._handlers and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        return not self._handlers

    async def shutdown(self, drain: bool = True) -> bool:
        """Stop listening; with *drain*, finish accepted work first.

        Returns True when every accepted request settled before the
        grace period expired.
        """
        if self.draining:
            return True
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._close_idle()
            await self._server.wait_closed()
        clean = await self._wind_down(drain)
        await close_connections()
        self._mark_stopped()
        return clean

    async def _close_idle(self) -> None:
        """Close every connection that waits between requests.

        Its task reads end-of-stream and returns.  A connection that is
        answering a request closes by itself once the response is out
        (the endpoint is draining).
        """
        idle = list(self._idle.items())
        for _task, writer in idle:
            writer.close()
        await asyncio.gather(*(t for t, _w in idle), return_exceptions=True)

    async def _wind_down(self, drain: bool) -> bool:
        """Subclass teardown after the listener closed."""
        raise NotImplementedError

    def _mark_stopped(self) -> None:
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until the endpoint has shut down."""
        assert self._stopped is not None, "start() was not called"
        await self._stopped.wait()

    def drain_on_signals(self) -> None:
        """SIGTERM/SIGINT start a graceful drain."""

        def _drain() -> None:
            self._drain_task = asyncio.ensure_future(self.shutdown())

        on_signals(_drain)

    async def send_line(self, writer, index: int, envelope) -> None:
        """One batch-stream line, tagged with its request *index*."""
        await send_line(writer, {**envelope, "index": index})
        self.metrics.record("streamed_lines")

    def refuse_if_draining(self) -> None:
        if self.draining:
            raise http_error(
                503,
                "draining",
                f"{self.ROLE} is draining",
                headers={"Retry-After": "1"},
            )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.record("connections_accepted")
        task = asyncio.current_task()
        conn = ResponseWriter(writer)
        self._handlers.add(task)
        try:
            line = await reader.readline()
            while line and await self._answer(line, reader, conn):
                if self.draining:
                    break
                self._handlers.discard(task)
                self._idle[task] = writer
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), IDLE_TIMEOUT_S
                    )
                except (asyncio.TimeoutError, ConnectionError):
                    break
                finally:
                    del self._idle[task]
                self._handlers.add(task)
        except (ConnectionError, ValueError):
            pass  # client went away, or sent an overlong request line
        finally:
            self._handlers.discard(task)
            with contextlib.suppress(Exception):
                # End the stream explicitly: plane workers forked while
                # this connection was open hold a duplicate of its fd,
                # so a plain close would not reach a client that keeps
                # the connection pooled.
                if writer.can_write_eof():
                    writer.write_eof()
                writer.close()
                await writer.wait_closed()

    async def _answer(
        self, line: bytes, reader: asyncio.StreamReader, conn: ResponseWriter
    ) -> bool:
        """Read and answer one request; True when the connection can
        serve another."""
        t0 = time.perf_counter()
        endpoint = None
        ok = False
        conn.next_response()
        try:
            request = await read_request(reader, line)
            endpoint = f"{request.method} {request.path}"
            conn.keep_alive = request.keep_alive and not self.draining
            ok = await self.handle(request, conn)
        except HttpError as exc:
            conn.keep_alive = False
            await send_json(conn, exc.status, exc.body, exc.headers)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            return False  # client went away mid-request; nothing to answer
        except Exception:  # noqa: BLE001 - a handler bug must not kill the loop
            conn.keep_alive = False
            with contextlib.suppress(Exception):
                await send_json(
                    conn, 500, error_body("internal", "internal error")
                )
        finally:
            if endpoint is not None:
                self.metrics.observe_request(
                    endpoint, time.perf_counter() - t0, ok
                )
        return conn.keep_alive and conn.written > 0

    async def route(self, request: Request, writer) -> bool:
        """Dispatch one request by :attr:`ROUTES`."""
        entry = self.ROUTES.get(request.path) or self.ROUTES.get(
            request.path.rpartition("/")[0] + "/"
        )
        if entry is None:
            raise http_error(404, "bad_request", f"no route {request.path}")
        method, handler = entry
        if request.method != method:
            raise http_error(405, "bad_request", "method not allowed")
        return await getattr(self, handler)(request, writer)

    #: Answers one request; the coordinator wraps it.
    handle = route


def on_signals(callback: Callable[[], None]) -> None:
    """Run *callback* on the running loop at SIGTERM or SIGINT."""
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError):  # non-Unix
            loop.add_signal_handler(signum, callback)


def loop_thread(main: Callable[[], Any], name: str):
    """Run ``main()`` on a new event loop in a daemon thread.

    Returns ``(loop, thread)`` at once.
    """
    loop = asyncio.new_event_loop()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(main())
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name=name, daemon=True)
    thread.start()
    return loop, thread


def start_in_thread(endpoint, name: str):
    """Serve *endpoint* from a :func:`loop_thread`.

    Returns ``(loop, thread)`` once the endpoint is bound; re-raises a
    boot failure in the caller.
    """
    started = threading.Event()
    boot_error: List[BaseException] = []

    async def _main() -> None:
        try:
            await endpoint.start()
        except Exception as exc:  # noqa: BLE001 - reported to starter
            boot_error.append(exc)
            return
        finally:
            started.set()
        await endpoint.wait_stopped()

    loop, thread = loop_thread(_main, name)
    started.wait(timeout=30)
    if boot_error:
        raise boot_error[0]
    if endpoint.port is None:
        raise RuntimeError(f"{name} failed to bind within 30s")
    return loop, thread


# ----------------------------------------------------------------------
# Client half
# ----------------------------------------------------------------------


def _request_headers(
    body: Optional[bytes], headers: Optional[Headers], keep_alive: bool
) -> Headers:
    out = {"Connection": _connection_token(keep_alive)}
    if body is not None:
        out["Content-Type"] = "application/json"
    out.update(headers or {})
    return out


class _NoReply(ConnectionResetError):
    """The connection failed before the first byte of a reply."""


async def _read_chunks(reader: asyncio.StreamReader):
    """Decode chunked framing, yielding each chunk's payload."""
    while True:
        size_line = await reader.readline()
        try:
            size = int(size_line.strip().split(b";", 1)[0], 16)
        except ValueError:
            raise HttpProtocolError(
                f"malformed chunk size {size_line!r}"
            ) from None
        if size == 0:
            await reader.readline()  # trailing CRLF
            return
        payload = await reader.readexactly(size)
        await reader.readexactly(2)  # chunk CRLF
        yield payload


_Conn = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class _Pool:
    """Idle connections per ``(host, port)``, at most
    :data:`MAX_IDLE_PER_PEER` each; safe to share between threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: Dict[Tuple[str, int], List[Any]] = {}

    def take(self, peer: Tuple[str, int]) -> Any:
        with self._lock:
            conns = self._idle.get(peer)
            return conns.pop() if conns else None

    def give(self, peer: Tuple[str, int], conn: Any) -> bool:
        """Keep *conn*; False when the peer's share is full."""
        with self._lock:
            conns = self._idle.setdefault(peer, [])
            if len(conns) >= MAX_IDLE_PER_PEER:
                return False
            conns.append(conn)
            return True

    def empty(self) -> List[Any]:
        """Remove and return every idle connection."""
        with self._lock:
            conns = [conn for peer in self._idle.values() for conn in peer]
            self._idle = {}
        return conns


#: The pool of :func:`exchange`, one per event loop.
_ASYNC_POOLS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_ASYNC_POOLS_LOCK = threading.Lock()
#: The pool of :func:`fetch`, shared by every thread of the process.
_BLOCKING_POOL = _Pool()


def _forget_pools_in_child() -> None:
    """A forked child drops the blocking pool: its sockets are the
    parent's.  The per-loop pools stay referenced, untouched: the child
    never runs the parent's loops, and finalising their transports here
    would unregister the parent's sockets from the epoll instance the
    child shares with it."""
    global _ASYNC_POOLS_LOCK, _BLOCKING_POOL
    _ASYNC_POOLS_LOCK = threading.Lock()
    _BLOCKING_POOL = _Pool()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_forget_pools_in_child)


def _loop_pool() -> _Pool:
    loop = asyncio.get_running_loop()
    with _ASYNC_POOLS_LOCK:
        pool = _ASYNC_POOLS.get(loop)
        if pool is None:
            pool = _ASYNC_POOLS[loop] = _Pool()
    return pool


def _take_live(pool: _Pool, peer: Tuple[str, int]) -> Optional[_Conn]:
    """An idle connection the peer has not closed, or None."""
    conn = pool.take(peer)
    while conn is not None and (conn[1].is_closing() or conn[0].at_eof()):
        conn[1].close()
        conn = pool.take(peer)
    return conn


async def close_connections() -> None:
    """Close the running event loop's idle pooled connections."""
    with _ASYNC_POOLS_LOCK:
        pool = _ASYNC_POOLS.pop(asyncio.get_running_loop(), None)
    writers = [writer for _reader, writer in (pool.empty() if pool else ())]
    for writer in writers:
        writer.close()
    for writer in writers:
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def _round_trip(
    conn: _Conn,
    request: bytes,
    on_line: Optional[Callable[[Dict[str, Any]], None]],
) -> Tuple[int, Headers, bytes, bool]:
    """Send *request* on *conn* and read the whole reply.

    Returns ``(status, headers, body, reusable)``; raises
    :class:`_NoReply` when the connection fails before the status line.
    """
    reader, writer = conn
    try:
        writer.write(request)
        await writer.drain()
        line = await reader.readline()
    except ConnectionError as exc:
        raise _NoReply(f"connection failed before a reply: {exc}") from exc
    if not line:
        raise _NoReply("connection closed before a reply")
    parts = line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpProtocolError(f"malformed status line {parts!r}")
    status = int(parts[1])
    reply_headers = await _read_headers(reader)
    reusable = parts[0] == "HTTP/1.1" and (
        reply_headers.get("connection", "").lower() != "close"
    )
    if reply_headers.get("transfer-encoding", "").lower() == "chunked":
        if on_line is not None and status == 200:
            lines = NdjsonLines()
            async for piece in _read_chunks(reader):
                for doc in lines.feed(piece):
                    on_line(doc)
            lines.finish()
            return status, reply_headers, b"", reusable
        payload = b"".join([p async for p in _read_chunks(reader)])
        return status, reply_headers, payload, reusable
    try:
        length = _content_length(reply_headers)
    except ValueError as exc:
        raise HttpProtocolError(str(exc)) from None
    if length is None:
        return status, reply_headers, await reader.read(), False
    return status, reply_headers, await reader.readexactly(length), reusable


async def exchange(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    headers: Optional[Headers] = None,
    on_line: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Tuple[int, Headers, bytes]:
    """One asynchronous exchange; returns ``(status, headers, body)``.

    Runs on a pooled connection to the peer when the running loop has
    an idle one (see the module docstring), else on a new one.  With
    *on_line*, a ``200`` chunked reply is read as a batch stream: each
    NDJSON document goes to *on_line* as it lands and the returned body
    is empty.  Transport and framing failures raise
    :class:`ConnectionError` / :class:`OSError` /
    :class:`asyncio.IncompleteReadError`; the caller bounds the whole
    exchange (stream included) with its own timeout, and a cancelled
    exchange closes its connection.
    """
    head = {"Host": host, **_request_headers(body, headers, True)}
    if body is not None:
        head["Content-Length"] = str(len(body))
    request = _head(f"{method} {path} HTTP/1.1", head) + (body or b"")
    peer = (host, port)
    pool = _loop_pool()
    conn = _take_live(pool, peer)
    reused = conn is not None
    try:
        if conn is None:
            conn = await asyncio.open_connection(host, port)
        try:
            status, reply_headers, payload, reusable = await _round_trip(
                conn, request, on_line
            )
        except _NoReply:
            if not reused:
                raise
            conn[1].close()
            conn = await asyncio.open_connection(host, port)
            status, reply_headers, payload, reusable = await _round_trip(
                conn, request, on_line
            )
    except BaseException:
        if conn is not None:
            conn[1].close()
        raise
    if not (reusable and pool.give(peer, conn)):
        conn[1].close()
    return status, reply_headers, payload


def _send(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: Optional[bytes],
    headers: Headers,
    timeout: float,
) -> http.client.HTTPResponse:
    conn.timeout = timeout
    if conn.sock is not None:
        conn.sock.settimeout(timeout)
    conn.request(method, path, body=body, headers=headers)
    return conn.getresponse()


@contextlib.contextmanager
def open_response(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    headers: Optional[Headers] = None,
    timeout: float = 60.0,
) -> Iterator[http.client.HTTPResponse]:
    """One blocking exchange on a connection of its own (a batch stream).

    Yields the open response.  Malformed replies surface as
    :class:`HttpProtocolError`, so callers handle every failure as an
    :class:`OSError`.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        yield _send(
            conn, method, path, body,
            _request_headers(body, headers, False), timeout,
        )
    except http.client.HTTPException as exc:
        raise HttpProtocolError(f"{host}:{port}{path}: {exc!r}") from exc
    finally:
        conn.close()


def fetch(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    headers: Optional[Headers] = None,
    timeout: float = 60.0,
) -> Tuple[int, Headers, bytes]:
    """One blocking exchange; returns ``(status, headers, body)`` with
    lowercased header names.

    Runs on a pooled connection to the peer when one is idle (see the
    module docstring), else on a new one.  Malformed replies surface as
    :class:`HttpProtocolError`.
    """
    head = _request_headers(body, headers, True)
    peer = (host, port)
    conn = _BLOCKING_POOL.take(peer)
    reused = conn is not None
    if conn is None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        try:
            response = _send(conn, method, path, body, head, timeout)
        except ConnectionError:
            # The send failed or the reply ended before its status line:
            # the server closed the pooled connection while it was idle.
            if not reused:
                raise
            conn.close()
            conn = http.client.HTTPConnection(host, port, timeout=timeout)
            response = _send(conn, method, path, body, head, timeout)
        payload = response.read()
    except http.client.HTTPException as exc:
        conn.close()
        raise HttpProtocolError(f"{host}:{port}{path}: {exc!r}") from exc
    except BaseException:
        conn.close()
        raise
    if response.will_close or not _BLOCKING_POOL.give(peer, conn):
        conn.close()
    return (
        response.status,
        {k.lower(): v for k, v in response.getheaders()},
        payload,
    )


def iter_ndjson(response) -> Iterator[Dict[str, Any]]:
    """The documents of a blocking batch-stream response, live.

    ``read1`` hands back each chunk as it lands (``http.client`` strips
    the chunk framing) and returns ``b""`` at the terminating chunk.
    """
    lines = NdjsonLines()
    while True:
        piece = response.read1(65536)
        if not piece:
            break
        yield from lines.feed(piece)
    lines.finish()
