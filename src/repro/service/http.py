"""HTTP/1.1 for the service tier: framing, errors, connections, exchanges.

Everything the worker server (:mod:`repro.service.server`), the cluster
coordinator (:mod:`repro.cluster.coordinator`) and the clients
(:class:`~repro.service.client.ServiceClient`,
:mod:`repro.parallel.transport`, :class:`repro.cluster.ClusterHandle`)
know about the wire lives here; they only decide what to send and what
to do with the answer.

The connection policy is deliberately small: stdlib only, **one
connection per request** (``Connection: close`` both ways), JSON bodies
framed by ``Content-Length``, and batch streams framed as chunked NDJSON
terminated by a ``{"done": true}`` line and the zero-length chunk.
Every refusal is one JSON error envelope,
``{"ok": false, "error": {"code": ..., "message": ...}}``, built by
:func:`http_error`.  Reason phrases come from :class:`http.HTTPStatus`.

:class:`HttpEndpoint` is the shared server half: one connection handler
(parse, route by table, answer errors, close, observe latency) plus the
listener lifecycle.  :func:`exchange` is the one asynchronous client
exchange (a JSON reply, or a live NDJSON stream); :func:`open_response`
and :func:`fetch` are the blocking ones.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import signal
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "LAST_CHUNK",
    "MAX_BODY_BYTES",
    "HttpEndpoint",
    "HttpError",
    "HttpProtocolError",
    "NdjsonLines",
    "Request",
    "chunk",
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
    "send_json",
    "send_line",
    "start_in_thread",
    "start_ndjson",
]

#: Largest accepted request body (bytes); protects the JSON parser.
MAX_BODY_BYTES = 32 * 1024 * 1024
#: The zero-length chunk that ends a chunked body.
LAST_CHUNK = b"0\r\n\r\n"

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


async def send_json(
    writer, status: int, body: Any, headers: Optional[Headers] = None
) -> None:
    """A complete ``Connection: close`` JSON response."""
    payload = json.dumps(body).encode("utf-8")
    all_headers = {
        "Content-Type": "application/json",
        "Content-Length": str(len(payload)),
        "Connection": "close",
    }
    all_headers.update(headers or {})
    writer.write(head_bytes(status, all_headers) + payload)
    await writer.drain()


async def start_ndjson(writer, headers: Headers) -> None:
    """Open a chunked NDJSON ``200`` response."""
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

    @property
    def trace_id(self) -> Optional[str]:
        return self.headers.get("x-trace-id")

    def json(self) -> Any:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise http_error(
                400, "bad_request", f"invalid JSON body: {exc}"
            ) from exc


async def read_request(reader: asyncio.StreamReader) -> Request:
    """Parse one request: line, headers, ``Content-Length`` body."""
    parts = (await reader.readline()).decode("latin-1").split()
    if len(parts) != 3:
        raise http_error(400, "bad_request", "malformed request line")
    method, target, _version = parts
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
    return Request(method.upper(), target.split("?", 1)[0], headers, body)


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
    that error envelope instead.
    """

    ROUTES: Dict[str, Tuple[str, str]] = {}
    #: Who is draining, in the ``503`` message.
    ROLE = "server"

    def __init__(self) -> None:
        self.draining = False
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._handlers: set = set()
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
            await self._server.wait_closed()
        clean = await self._wind_down(drain)
        self._mark_stopped()
        return clean

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
        task = asyncio.current_task()
        self._handlers.add(task)
        t0 = time.perf_counter()
        endpoint = None
        ok = False
        try:
            request = await read_request(reader)
            endpoint = f"{request.method} {request.path}"
            ok = await self.handle(request, writer)
        except HttpError as exc:
            await send_json(writer, exc.status, exc.body, exc.headers)
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        except Exception:  # noqa: BLE001 - a handler bug must not kill the loop
            with contextlib.suppress(Exception):
                await send_json(
                    writer, 500, error_body("internal", "internal error")
                )
        finally:
            self._handlers.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()
            if endpoint is not None:
                self.metrics.observe_request(
                    endpoint, time.perf_counter() - t0, ok
                )

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
    body: Optional[bytes], headers: Optional[Headers]
) -> Headers:
    out = {"Connection": "close"}
    if body is not None:
        out["Content-Type"] = "application/json"
    out.update(headers or {})
    return out


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

    With *on_line*, a ``200`` chunked reply is read as a batch stream:
    each NDJSON document goes to *on_line* as it lands and the returned
    body is empty.  Transport and framing failures raise
    :class:`ConnectionError` / :class:`OSError` /
    :class:`asyncio.IncompleteReadError`; the caller bounds the whole
    exchange (stream included) with its own timeout.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = {"Host": host, **_request_headers(body, headers)}
        if body is not None:
            head["Content-Length"] = str(len(body))
        writer.write(_head(f"{method} {path} HTTP/1.1", head) + (body or b""))
        await writer.drain()
        parts = (await reader.readline()).decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise HttpProtocolError(f"malformed status line {parts!r}")
        status = int(parts[1])
        reply_headers = await _read_headers(reader)
        if reply_headers.get("transfer-encoding", "").lower() == "chunked":
            if on_line is not None and status == 200:
                lines = NdjsonLines()
                async for piece in _read_chunks(reader):
                    for doc in lines.feed(piece):
                        on_line(doc)
                lines.finish()
                return status, reply_headers, b""
            payload = b"".join([p async for p in _read_chunks(reader)])
            return status, reply_headers, payload
        try:
            length = _content_length(reply_headers)
        except ValueError as exc:
            raise HttpProtocolError(str(exc)) from None
        if length is None:
            return status, reply_headers, await reader.read()
        return status, reply_headers, await reader.readexactly(length)
    finally:
        with contextlib.suppress(Exception):
            writer.close()
            await writer.wait_closed()


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
    """One blocking exchange, yielding the open response.

    Malformed replies surface as :class:`HttpProtocolError`, so callers
    handle every failure as an :class:`OSError`.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            method, path, body=body, headers=_request_headers(body, headers)
        )
        yield conn.getresponse()
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
    lowercased header names."""
    with open_response(
        host, port, method, path, body, headers, timeout
    ) as response:
        payload = response.read()
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
