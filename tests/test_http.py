"""The shared HTTP layer (:mod:`repro.service.http`): framing, error
envelopes, and the one worker-exchange policy of the coordinator.

Fake workers here are raw TCP listeners: one never answers, one answers
every request with ``429`` + ``Retry-After: 0``.  They pin down what
the coordinator does with a stalled or saturated owner on the plain and
the streamed batch path alike.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from fractions import Fraction as F

import pytest

from repro.cluster import ClusterHandle
from repro.cluster.routing import routing_digest
from repro.curves.service import rate_latency_service
from repro.drt.model import DRTTask
from repro.resilience import bounded_delay, chaos
from repro.service import (
    ServerHandle,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    protocol,
)
from repro.service import http


@pytest.fixture(autouse=True, scope="module")
def _no_ambient_chaos():
    """Exact status codes and timings — mask ambient fault injection."""
    saved = chaos.current_config()
    chaos.apply_config(None)
    yield
    chaos.apply_config(saved)


BETA = rate_latency_service(F(1, 2), F(2))


def _task(seed: int) -> DRTTask:
    jobs = {f"v{i}": (1 + (seed + i) % 3, 8 + (seed * 3 + i) % 9)
            for i in range(3)}
    names = list(jobs)
    edges = [
        (a, b, 6 + (seed + i) % 7)
        for i, (a, b) in enumerate(zip(names, names[1:] + names[:1]))
    ]
    return DRTTask.build(f"h{seed}", jobs=jobs, edges=edges)


def _raw(port: int, request: bytes, timeout: float = 10.0):
    """Send *request* verbatim; return (status line, JSON body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(request)
        data = b""
        while True:
            piece = s.recv(65536)
            if not piece:
                break
            data += piece
    head, _, body = data.partition(b"\r\n\r\n")
    return head.split(b"\r\n", 1)[0].decode("latin-1"), json.loads(body)


class _FakeWorker:
    """A TCP listener standing in for a ``repro serve`` worker.

    ``mode="silent"`` accepts and never answers; ``mode="busy"`` reads
    each request and answers ``429`` with ``Retry-After: 0``.  Every
    request line seen is kept in :attr:`seen`.
    """

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.seen = []
        self._held = []
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(64)
        self._sock.settimeout(0.1)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            if self.mode == "silent":
                self._held.append(conn)
            else:
                threading.Thread(
                    target=self._answer_busy, args=(conn,), daemon=True
                ).start()

    def _answer_busy(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(5)
            data = b""
            while b"\r\n\r\n" not in data:
                piece = conn.recv(65536)
                if not piece:
                    return
                data += piece
            head, _, body = data.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            self.seen.append(lines[0])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            while len(body) < length:
                piece = conn.recv(65536)
                if not piece:
                    return
                body += piece
            payload = json.dumps(
                {"ok": False,
                 "error": {"code": "queue_full", "message": "busy"}}
            ).encode()
            conn.sendall(
                b"HTTP/1.1 429 Too Many Requests\r\n"
                b"Content-Type: application/json\r\n"
                b"Retry-After: 0\r\nConnection: close\r\n"
                + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                + payload
            )

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._sock.close()
        for conn in self._held:
            conn.close()


def _fleet_with(fake: _FakeWorker, **config):
    """One real worker (``w0``) and *fake* (``w1``) behind a coordinator."""
    real = ServerHandle.start(ServiceConfig(port=0, batch_window_ms=1.0))
    handle = ClusterHandle.start(
        workers=[("127.0.0.1", real.port), ("127.0.0.1", fake.port)],
        **config,
    )
    return real, handle


def _specs_spanning(handle, n_fake: int = 3, n_real: int = 2):
    """Batch specs of which *n_fake* are owned by ``w1`` (the fake)."""
    ring = handle.coordinator.ring
    picked = {"w0": [], "w1": []}
    want = {"w0": n_real, "w1": n_fake}
    for seed in range(200):
        spec = ServiceClient.build_request("delay", _task(seed), BETA)
        owner = ring.owner(routing_digest(spec))
        if len(picked[owner]) < want[owner]:
            picked[owner].append((seed, spec))
        if all(len(picked[w]) == want[w] for w in want):
            break
    pairs = picked["w1"] + picked["w0"]
    return [seed for seed, _ in pairs], [spec for _, spec in pairs]


def _send_batch(client: ServiceClient, specs, stream: bool):
    if not stream:
        return client.batch(specs)
    settled = dict(client.batch_stream(specs))
    assert sorted(settled) == list(range(len(specs)))
    return [settled[i] for i in range(len(specs))]


# ---------------------------------------------------------------------------
# Framing units
# ---------------------------------------------------------------------------


class TestFraming:
    def test_status_line_uses_the_standard_reason_phrase(self):
        for status, phrase in ((200, "OK"), (409, "Conflict"),
                               (502, "Bad Gateway"),
                               (429, "Too Many Requests")):
            head = http.head_bytes(status, {"Content-Length": "0"})
            assert head.startswith(f"HTTP/1.1 {status} {phrase}\r\n".encode())

    def test_error_envelope_shape(self):
        exc = http.http_error(
            429, "queue_full", "full", headers={"Retry-After": "2"},
            retry_after=2,
        )
        assert exc.status == 429
        assert exc.headers == {"Retry-After": "2"}
        assert exc.body == {
            "ok": False,
            "error": {"code": "queue_full", "message": "full"},
            "retry_after": 2,
        }

    def test_ndjson_lines_split_across_chunks(self):
        lines = http.NdjsonLines()
        out = lines.feed(b'{"index": 0, "ok": true}\n{"ind')
        out += lines.feed(b'ex": 1}\n\n{"done": true, "count": 2}\n')
        assert out == [{"index": 0, "ok": True}, {"index": 1}]
        lines.finish()

    def test_ndjson_without_done_marker_is_truncated(self):
        lines = http.NdjsonLines()
        lines.feed(b'{"index": 0}\n')
        with pytest.raises(http.HttpProtocolError):
            lines.finish()

    def test_async_exchange_reads_a_stream_live(self):
        """The worker exchange decodes a chunked NDJSON reply line by
        line and rejects one that stops short of its done marker."""

        async def _run(reply: bytes):
            async def _answer(reader, writer):
                await http.read_request(reader)
                writer.write(reply)
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(_answer, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            seen = []
            try:
                status, _headers, _body = await http.exchange(
                    "127.0.0.1", port, "POST", "/v1/batch", b"{}",
                    on_line=seen.append,
                )
                return status, seen
            finally:
                server.close()
                await server.wait_closed()

        head = http.head_bytes(200, {"Transfer-Encoding": "chunked"})
        body = http.chunk(b'{"index": 0}\n') + http.chunk(b'{"done": true}\n')
        status, seen = asyncio.run(_run(head + body + http.LAST_CHUNK))
        assert status == 200 and seen == [{"index": 0}]
        with pytest.raises(http.HttpProtocolError):
            asyncio.run(_run(head + http.chunk(b'{"index": 0}\n')
                             + http.LAST_CHUNK))


# ---------------------------------------------------------------------------
# Content-Length edge cases on both front ends
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def serve():
    handle = ServerHandle.start(ServiceConfig(port=0))
    yield handle
    handle.shutdown(timeout=30)


@pytest.fixture(scope="module")
def coordinator():
    handle = ClusterHandle.start(n_workers=1, worker_mode="thread")
    yield handle
    handle.shutdown(timeout=30)


@pytest.mark.parametrize("front", ["serve", "coordinator"])
@pytest.mark.parametrize("length", ["-1", "abc"])
def test_bad_content_length_is_400(request, front, length):
    handle = request.getfixturevalue(front)
    status, doc = _raw(
        handle.port,
        (
            "POST /v1/analyze HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode("latin-1"),
    )
    assert status.startswith("HTTP/1.1 400 ")
    assert doc["ok"] is False
    assert doc["error"]["code"] == "bad_request"


def test_admin_conflict_has_its_reason_phrase(coordinator):
    body = json.dumps({"worker": "w0"}).encode()
    status, doc = _raw(
        coordinator.port,
        b"POST /admin/remove-worker HTTP/1.1\r\nHost: x\r\n"
        b"Connection: close\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body,
    )
    assert status == "HTTP/1.1 409 Conflict"
    assert doc["error"]["code"] == "conflict"


# ---------------------------------------------------------------------------
# One worker-exchange policy on every batch path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stream", [False, True])
def test_silent_worker_is_bounded_by_request_timeout(stream):
    """A worker that accepts and never answers costs one
    ``request_timeout_s``, streamed or not; its share reroutes."""
    fake = _FakeWorker("silent")
    real, handle = _fleet_with(
        fake, request_timeout_s=1.0, probe_interval_s=60.0
    )
    try:
        seeds, specs = _specs_spanning(handle)
        client = ServiceClient(port=handle.port, timeout=20, max_retries=0)
        t0 = time.monotonic()
        envelopes = _send_batch(client, specs, stream)
        elapsed = time.monotonic() - t0
        assert elapsed < 8.0, elapsed
        for seed, envelope in zip(seeds, envelopes):
            if envelope.get("ok"):
                served = protocol.decode_result("delay", envelope["result"])
                assert served.delay == bounded_delay(_task(seed), BETA).delay
            else:
                assert envelope["error"]["code"] == "worker_unreachable"
    finally:
        handle.shutdown(timeout=30)
        real.shutdown(timeout=30)
        fake.close()


def test_saturated_worker_keeps_its_ring_seat():
    """``429`` is back-pressure, not death: on the plain and the
    streamed batch path the coordinator waits out ``Retry-After``,
    reroutes, and never ejects the worker."""
    fake = _FakeWorker("busy")
    real, handle = _fleet_with(fake, probe_interval_s=0.2)
    try:
        seeds, specs = _specs_spanning(handle)
        client = ServiceClient(port=handle.port, timeout=30, max_retries=0)
        before = client.healthz()
        assert before["healthy_workers"] == 2
        for stream in (False, True):
            envelopes = _send_batch(client, specs, stream)
            for seed, envelope in zip(seeds, envelopes):
                assert envelope.get("ok"), envelope
                served = protocol.decode_result("delay", envelope["result"])
                assert served.delay == bounded_delay(_task(seed), BETA).delay
        after = client.healthz()
        assert after["healthy_workers"] == 2
        assert after["ring_generation"] == before["ring_generation"]
        assert any(line.startswith("POST /v1/batch") for line in fake.seen)
    finally:
        handle.shutdown(timeout=30)
        real.shutdown(timeout=30)
        fake.close()


# ---------------------------------------------------------------------------
# Persistent connections
# ---------------------------------------------------------------------------


def _accepted(client: ServiceClient) -> int:
    """Connections the server (or the coordinator itself) accepted."""
    doc = client.metrics()
    return doc.get("coordinator", doc)["requests"]["connections_accepted"]


class _KeepAliveFake:
    """An asyncio keep-alive server on its own loop thread, by path:
    ``/ok`` answers at once, ``/slow`` after half a second, and
    ``/drop`` closes the connection without a reply when it already
    served a request (a server that closed an idle connection).  Every
    reply body names the path it answers."""

    def __init__(self) -> None:
        self.connections = 0
        self.port = None
        self._tasks = set()
        ready = threading.Event()

        async def _main():
            self._server = await asyncio.start_server(
                self._serve, "127.0.0.1", 0
            )
            self.port = self._server.sockets[0].getsockname()[1]
            self._done = asyncio.Event()
            ready.set()
            await self._done.wait()
            self._server.close()
            for task in self._tasks:
                task.cancel()
            await asyncio.gather(*self._tasks, return_exceptions=True)

        self._loop, self._thread = http.loop_thread(_main, "fake-keepalive")
        ready.wait(10)

    async def _serve(self, reader, writer):
        self.connections += 1
        self._tasks.add(asyncio.current_task())
        served = 0
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                request = await http.read_request(reader, line)
                if request.path == "/drop" and served:
                    return
                if request.path == "/slow":
                    await asyncio.sleep(0.5)
                payload = json.dumps({"path": request.path}).encode()
                writer.write(http.head_bytes(200, {
                    "Content-Type": "application/json",
                    "Content-Length": str(len(payload)),
                    "Connection": "keep-alive",
                }) + payload)
                await writer.drain()
                served += 1
        except ConnectionError:
            pass
        finally:
            writer.close()

    def close(self) -> None:
        self._loop.call_soon_threadsafe(self._done.set)
        self._thread.join(10)


class _Silent(http.HttpEndpoint):
    """An endpoint whose one handler writes nothing."""

    ROUTES = {"/nothing": ("GET", "_nothing")}

    def __init__(self) -> None:
        super().__init__()
        from repro.service.metrics import ServiceMetrics

        self.metrics = ServiceMetrics()

    async def start(self) -> None:
        await self._listen("127.0.0.1", 0)

    async def _wind_down(self, drain: bool) -> bool:
        return True

    async def _nothing(self, request, writer) -> bool:
        return False


class TestPersistentConnections:
    def test_sequential_requests_share_one_connection(self):
        handle = ServerHandle.start(ServiceConfig(port=0))
        try:
            client = ServiceClient(port=handle.port, max_retries=0)
            for _ in range(5):
                assert client.healthz()["status"] == "ok"
            doc = client.metrics()
            assert doc["requests"]["connections_accepted"] == 1
            assert doc["requests"]["requests_total"] == 5
        finally:
            handle.shutdown(timeout=30)

    def test_connection_close_gets_one_response_and_eof(self, serve):
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
        with socket.create_connection(("127.0.0.1", serve.port), 10) as s:
            # A second request pipelined behind the closing one must
            # go unanswered.
            s.sendall(request + b"Connection: close\r\n\r\n" + request
                      + b"\r\n")
            data = b""
            while True:
                piece = s.recv(65536)
                if not piece:
                    break
                data += piece
        assert data.count(b"HTTP/1.1 ") == 1
        head = data.partition(b"\r\n\r\n")[0]
        assert b"Connection: close" in head

    def test_idle_closed_connection_is_replaced_without_a_retry(
        self, monkeypatch
    ):
        monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 0.1)
        handle = ServerHandle.start(ServiceConfig(port=0))
        try:
            client = ServiceClient(port=handle.port, max_retries=0)
            assert client.healthz()["status"] == "ok"
            time.sleep(0.4)  # the server closes the pooled connection
            assert client.healthz()["status"] == "ok"
            assert _accepted(client) == 2
        finally:
            handle.shutdown(timeout=30)

    def test_reused_connection_dropped_before_reply_is_retried_once(self):
        fake = _KeepAliveFake()
        try:
            _, _, body = http.fetch("127.0.0.1", fake.port, "GET", "/ok")
            assert json.loads(body) == {"path": "/ok"}
            _, _, body = http.fetch("127.0.0.1", fake.port, "GET", "/drop")
            assert json.loads(body) == {"path": "/drop"}

            async def _pair():
                await http.exchange("127.0.0.1", fake.port, "GET", "/ok")
                reply = await http.exchange(
                    "127.0.0.1", fake.port, "GET", "/drop"
                )
                await http.close_connections()
                return reply

            _, _, body = asyncio.run(_pair())
            assert json.loads(body) == {"path": "/drop"}
            # One connection each that the server dropped, one fresh
            # replacement each.
            assert fake.connections == 4
        finally:
            fake.close()

    def test_cancelled_exchange_never_returns_its_connection(self):
        fake = _KeepAliveFake()

        async def _run():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(
                    http.exchange("127.0.0.1", fake.port, "GET", "/slow"),
                    0.1,
                )
            # Had the cancelled connection gone back to the pool, this
            # exchange would read the late "/slow" reply.
            _, _, body = await http.exchange(
                "127.0.0.1", fake.port, "GET", "/ok"
            )
            await http.close_connections()
            return body

        try:
            assert json.loads(asyncio.run(_run())) == {"path": "/ok"}
            assert fake.connections == 2
        finally:
            fake.close()

    def test_handler_that_writes_nothing_closes_the_connection(self):
        endpoint = _Silent()
        loop, thread = http.start_in_thread(endpoint, "silent")
        try:
            with socket.create_connection(
                ("127.0.0.1", endpoint.port), 10
            ) as s:
                s.sendall(b"GET /nothing HTTP/1.1\r\nHost: x\r\n\r\n")
                t0 = time.monotonic()
                assert s.recv(65536) == b""
                assert time.monotonic() - t0 < 5.0
        finally:
            asyncio.run_coroutine_threadsafe(
                endpoint.shutdown(), loop
            ).result(30)
            thread.join(30)

    def test_forked_child_opens_its_own_connection(self, coordinator):
        """A child forked while both pools hold connections opens its
        own, and the parent's pools keep working after it exits."""
        import os

        client = ServiceClient(
            port=coordinator.port, timeout=10.0, max_retries=0
        )
        # Leaves a pooled client connection and a pooled coordinator ->
        # worker connection behind.
        assert client.delay(_task(5), BETA).delay is not None
        before = _accepted(client)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            ok = b"0"
            try:
                if (
                    http._BLOCKING_POOL.take(("127.0.0.1", coordinator.port))
                    is None
                    and client.healthz()["status"] == "ok"
                ):
                    ok = b"1"
            finally:
                os.write(write_end, ok)
                os._exit(0)
        os.close(write_end)
        try:
            assert os.read(read_end, 1) == b"1"
        finally:
            os.close(read_end)
            os.waitpid(pid, 0)
        assert client.delay(_task(6), BETA).delay is not None
        # The child's request came on a connection of its own.
        assert _accepted(client) == before + 1

    def test_drain_closes_idle_keep_alive_connections(self):
        handle = ServerHandle.start(
            ServiceConfig(port=0, drain_grace_s=10.0)
        )
        client = ServiceClient(port=handle.port, max_retries=0)
        assert client.healthz()["status"] == "ok"  # now idle in the pool
        t0 = time.monotonic()
        assert handle.shutdown(drain=True, timeout=30)
        assert time.monotonic() - t0 < 2.0
        with pytest.raises(ServiceError):
            client.healthz()


def _read_reply(sock: socket.socket):
    """One ``Content-Length`` reply from *sock*: (head, JSON body)."""
    data = b""
    while b"\r\n\r\n" not in data:
        piece = sock.recv(65536)
        assert piece, "connection closed before a reply"
        data += piece
    head, _, body = data.partition(b"\r\n\r\n")
    length = int(
        [line.split(b":", 1)[1] for line in head.split(b"\r\n")
         if line.lower().startswith(b"content-length:")][0]
    )
    while len(body) < length:
        piece = sock.recv(65536)
        assert piece, "connection closed mid-body"
        body += piece
    return head, json.loads(body)


def test_idempotent_replay_restamps_connection(coordinator):
    """A replayed response carries this connection's ``Connection``
    header, not the one recorded with the first answer."""
    body = json.dumps(
        ServiceClient.build_request("delay", _task(3), BETA)
    ).encode()

    def _post(connection: bytes) -> bytes:
        return (
            b"POST /v1/analyze HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            b"X-Idempotency-Key: restamp-1\r\n" + connection
            + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
        )

    status, first = _raw(coordinator.port, _post(b"Connection: close\r\n"))
    assert status.startswith("HTTP/1.1 200 ") and first["ok"]
    with socket.create_connection(("127.0.0.1", coordinator.port), 10) as s:
        s.sendall(_post(b""))  # HTTP/1.1 default: keep-alive
        head, replayed = _read_reply(s)
        assert b"Connection: keep-alive" in head
        assert b"Connection: close" not in head
        assert replayed == first
        # The connection really stays open for the next request.
        s.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        head, health = _read_reply(s)
        assert head.startswith(b"HTTP/1.1 200 ")
    doc = ServiceClient(port=coordinator.port).metrics()
    assert doc["coordinator"]["requests"]["idempotent_replays"] >= 1
