"""The asyncio analysis server: HTTP/JSON front end of the engine.

An :class:`~repro.service.http.HttpEndpoint` on
:func:`asyncio.start_server`; framing and connection policy live in
:mod:`repro.service.http`.  Endpoints:

=============================  =========================================
``POST /v1/analyze``           one analysis request (see
                               :mod:`repro.service.protocol`)
``POST /v1/whatif``            one ``whatif_sweep`` request (kind
                               implied by the route): a base task, a
                               service curve and an ``edits`` list,
                               re-analysed incrementally
                               (:mod:`repro.whatif`)
``POST /v1/batch``             ``{"requests": [...], "stream": bool}``;
                               with ``stream`` the response is chunked
                               NDJSON, one envelope per line in
                               *completion* order (each carries its
                               ``index``), terminated by a
                               ``{"done": true}`` line
``GET /healthz``               liveness (``503`` while draining)
``GET /metrics``               the JSON metrics document
``GET /v1/cache/keys``         resident result-cache keys + blob sizes
``GET /v1/cache/entry/<key>``  one raw cache blob, digest-stamped
                               (``X-Repro-Blob-Sha256``)
``POST /v1/cache/pull``        pull-migrate entries *from* a peer worker
                               (``{"peer": "host:port", "keys": [...]}``;
                               see :mod:`repro.parallel.transport`)
=============================  =========================================

Every accepted analysis request flows through the shared
:class:`~repro.service.batching.Batcher` (coalescing) behind the
:class:`~repro.service.admission.AdmissionController` (bounded queue,
``429`` + ``Retry-After``, load shedding onto the degradation ladder).
``SIGTERM``/``SIGINT`` trigger a graceful drain: the listener closes,
queued and in-flight requests finish (bounded by ``drain_grace_s``),
then the server exits — a load balancer never sees dropped work.

For tests and tools, :class:`ServerHandle` boots a server with its own
event loop in a daemon thread and tears it down symmetrically.
"""

from __future__ import annotations

import asyncio
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError, SerializationError, ValidationError
from repro.parallel.plane import JobsLike
from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.batching import Batcher
from repro.service.http import (
    HttpEndpoint,
    HttpError,
    Request,
    end_ndjson,
    http_error,
    send_bytes,
    send_json,
    start_in_thread,
    start_ndjson,
)
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import DecodedRequest

__all__ = ["ServiceConfig", "AnalysisServer", "ServerHandle", "serve_main"]

@dataclass
class ServiceConfig:
    """Tunables of one :class:`AnalysisServer`.

    Attributes:
        host: Bind address.
        port: Bind port (0 picks a free one; see ``AnalysisServer.port``).
        jobs: Plane worker specification for micro-batch fan-out.
        max_queue: Admission cap on queued + in-flight requests.
        shed_fraction: Queue fraction above which load shedding starts.
        shed_deadline_ms: Budget deadline forced onto shed requests.
        max_batch: Micro-batch size cap.
        batch_window_ms: Coalescing window while a micro-batch is in
            flight: a request that arrives when nothing runs is
            dispatched at once, one that arrives during a batch waits
            this long for company.
        dispatch_threads: Concurrent micro-batches in flight.
        item_timeout_s: Per-item plane watchdog: a worker hanging past
            this is killed and the item retried (None disables it).
        drain_grace_s: Longest wait for in-flight work during drain.
    """

    host: str = "127.0.0.1"
    port: int = 8177
    jobs: JobsLike = None
    max_queue: int = 256
    shed_fraction: float = 0.75
    shed_deadline_ms: float = 50.0
    max_batch: int = 64
    batch_window_ms: float = 2.0
    dispatch_threads: int = 2
    item_timeout_s: Optional[float] = None
    drain_grace_s: float = 30.0


class AnalysisServer(HttpEndpoint):
    """One service instance: listener + batcher + admission + metrics."""

    ROUTES = {
        "/healthz": ("GET", "_handle_healthz"),
        "/metrics": ("GET", "_handle_metrics"),
        "/v1/analyze": ("POST", "_handle_analyze"),
        "/v1/whatif": ("POST", "_handle_whatif"),
        "/v1/batch": ("POST", "_handle_batch"),
        "/v1/cache/keys": ("GET", "_handle_cache_keys"),
        "/v1/cache/entry/": ("GET", "_handle_cache_entry"),
        "/v1/cache/pull": ("POST", "_handle_cache_pull"),
    }

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        super().__init__()
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.admission = AdmissionController(
            max_queue=self.config.max_queue,
            shed_fraction=self.config.shed_fraction,
            shed_deadline_ms=self.config.shed_deadline_ms,
        )
        self.batcher = Batcher(
            jobs=self.config.jobs,
            max_batch=self.config.max_batch,
            batch_window=self.config.batch_window_ms / 1000.0,
            dispatch_threads=self.config.dispatch_threads,
            metrics=self.metrics,
            item_timeout=self.config.item_timeout_s,
        )

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the dispatcher."""
        self.batcher.start()
        await self._listen(self.config.host, self.config.port)

    async def _wind_down(self, drain: bool) -> bool:
        clean = True
        if drain:
            clean = await self.batcher.join(self.config.drain_grace_s)
            grace = self.config.drain_grace_s
            clean = await self._await_handlers(grace) and clean
        await self.batcher.close()
        return clean

    # -- plumbing endpoints ----------------------------------------------

    async def _handle_healthz(self, request: Request, writer) -> bool:
        await send_json(
            writer,
            503 if self.draining else 200,
            {
                "status": "draining" if self.draining else "ok",
                "uptime_s": self.metrics.uptime_s(),
                "queue_depth": self.batcher.depth,
                "protocol_version": protocol.PROTOCOL_VERSION,
            },
        )
        return not self.draining

    async def _handle_metrics(self, request: Request, writer) -> bool:
        await send_json(
            writer,
            200,
            self.metrics.snapshot(
                queue_depth=self.batcher.depth,
                queue_max=self.admission.max_queue,
                queue_high_water=self.admission.high_water,
                draining=self.draining,
            ),
        )
        return True

    # -- cache transport (cluster resize migration) ----------------------

    async def _handle_cache_keys(self, request: Request, writer) -> bool:
        from repro.parallel import cache as result_cache

        def _listing():
            keys = result_cache.list_keys()
            tags = result_cache.placements()
            return [[k, n, tags.get(k)] for k, n in keys]

        keys = await asyncio.get_running_loop().run_in_executor(
            None, _listing
        )
        await send_json(writer, 200, {"ok": True, "keys": keys})
        return True

    async def _handle_cache_entry(self, request: Request, writer) -> bool:
        from repro.parallel import cache as result_cache

        key = request.path[len("/v1/cache/entry/"):]
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise http_error(
                400, "bad_request", "cache keys are lowercase hex digests"
            )
        blob = await asyncio.get_running_loop().run_in_executor(
            None, result_cache.read_entry, key
        )
        if blob is None:
            raise http_error(404, "bad_request", "no such cache entry")
        headers = {
            "Content-Type": "application/octet-stream",
            "X-Repro-Blob-Sha256": result_cache.blob_digest(blob),
        }
        placement = result_cache.placement_of(key)
        if placement:
            headers["X-Repro-Placement"] = placement
        await send_bytes(writer, 200, blob, headers)
        return True

    async def _handle_cache_pull(self, request: Request, writer) -> bool:
        from repro.parallel import transport

        data = request.json()
        peer = data.get("peer") if isinstance(data, dict) else None
        keys = data.get("keys") if isinstance(data, dict) else None
        host, _, port = str(peer or "").rpartition(":")
        if (
            not host
            or not port.isdigit()
            or not isinstance(keys, list)
            or not all(isinstance(k, str) for k in keys)
        ):
            raise http_error(
                400,
                "bad_request",
                "pull needs 'peer' as host:port and 'keys' as a list of "
                "digests",
            )
        rate = data.get("rate_bytes_per_s")
        summary = await asyncio.get_running_loop().run_in_executor(
            None,
            lambda: transport.pull_entries(
                host,
                int(port),
                [str(k) for k in keys],
                rate_bytes_per_s=(
                    float(rate) if isinstance(rate, (int, float)) else None
                ),
            ),
        )
        self.metrics.record("cache_entries_pulled", int(summary["pulled"]))
        await send_json(writer, 200, {"ok": True, "pull": summary})
        return True

    # -- admission + submission -----------------------------------------

    @staticmethod
    def _sheddable(req: DecodedRequest) -> bool:
        """Shedding needs a sound degraded form *and* a client deadline."""
        return (
            protocol.is_sheddable(req.kind)
            and req.budget is not None
            and req.budget.deadline is not None
        )

    def _admit(self, requests: List[DecodedRequest]) -> None:
        """Admission-check *requests* atomically; may tighten budgets."""
        decision = self.admission.admit(
            len(requests),
            self.batcher.depth,
            sheddable=all(self._sheddable(r) for r in requests),
        )
        if not decision.accepted:
            self.metrics.record("rejected", len(requests))
            raise http_error(
                429,
                "queue_full",
                f"analysis queue is full (depth {self.batcher.depth} of "
                f"{self.admission.max_queue})",
                headers={"Retry-After": str(decision.retry_after)},
                retry_after=decision.retry_after,
            )
        if decision.action == "shed":
            self.metrics.record("shed", len(requests))
            for req in requests:
                assert req.budget is not None  # _sheddable guarantees it
                req.budget = req.budget.tightened(
                    deadline=self.admission.shed_deadline_ms / 1000.0
                )
                req.shed = True

    def _finish_envelope(self, envelope: Dict[str, object]) -> None:
        """Book one settled analysis envelope into the service stats."""
        elapsed = envelope.get("elapsed_s")
        if isinstance(elapsed, (int, float)):
            self.admission.observe_service_time(float(elapsed))
        if envelope.get("degraded"):
            self.metrics.record("degraded")
        if not envelope.get("ok", False):
            self.metrics.record("analysis_errors")

    async def _handle_whatif(self, request: Request, writer) -> bool:
        return await self._handle_analyze(
            request, writer, force_kind="whatif_sweep"
        )

    async def _handle_analyze(
        self, request: Request, writer, force_kind: Optional[str] = None
    ) -> bool:
        self.refuse_if_draining()
        data = request.json()
        if force_kind is not None and isinstance(data, dict):
            # Kind-specific routes (/v1/whatif) imply their kind; an
            # explicit mismatching one is a client error.
            stated = data.get("kind")
            if stated is not None and stated != force_kind:
                raise http_error(
                    400,
                    "bad_request",
                    f"kind {stated!r} does not match this route "
                    f"(expects {force_kind!r})",
                )
            data = dict(data)
            data["kind"] = force_kind
        trace_id = request.trace_id
        try:
            req = protocol.decode_request(data, trace_id=trace_id)
        except (SerializationError, ValidationError) as exc:
            raise HttpError(
                400,
                protocol.error_envelope(
                    exc, trace_id or protocol.new_trace_id()
                ),
            ) from exc
        self._admit([req])
        envelope = await self.batcher.submit(req)
        self._finish_envelope(envelope)
        await send_json(writer, 200, envelope)
        return bool(envelope.get("ok", False))

    async def _handle_batch(self, request: Request, writer) -> bool:
        self.refuse_if_draining()
        data = request.json()
        specs = data.get("requests") if isinstance(data, dict) else None
        if not isinstance(specs, list) or not specs:
            raise http_error(
                400, "bad_request", "'requests' must be a non-empty list"
            )
        stream = bool(data.get("stream", False))

        # Decode everything first: structurally broken items settle as
        # per-item envelopes, and only the well-formed remainder takes
        # queue space.
        decoded: List[Tuple[int, DecodedRequest]] = []
        settled: Dict[int, Dict[str, object]] = {}
        for index, spec in enumerate(specs):
            try:
                decoded.append((index, protocol.decode_request(spec)))
            except (SerializationError, ValidationError, ReproError) as exc:
                settled[index] = protocol.error_envelope(
                    exc, protocol.new_trace_id()
                )
        if decoded:
            self._admit([req for _, req in decoded])

        batch_trace = request.trace_id or protocol.new_trace_id()
        futures = {
            index: self.batcher.submit_nowait(req) for index, req in decoded
        }

        if not stream:
            for index, future in futures.items():
                envelope = await future
                self._finish_envelope(envelope)
                settled[index] = envelope
            await send_json(
                writer,
                200,
                {
                    "ok": True,
                    "trace_id": batch_trace,
                    "count": len(specs),
                    "responses": [settled[i] for i in range(len(specs))],
                },
            )
            return True

        # Streaming: NDJSON in completion order, framed with
        # Transfer-Encoding: chunked and terminated by an explicit
        # zero-length chunk.  Close-delimited framing would deadlock:
        # plane workers forked while this connection is open inherit a
        # duplicate of its fd, so the EOF a close is supposed to
        # produce cannot reach the client until the whole worker pool
        # is torn down.
        await start_ndjson(writer, {"X-Trace-Id": batch_trace})
        for index, envelope in settled.items():
            await self.send_line(writer, index, envelope)

        async def _tagged(index: int, future: asyncio.Future):
            return index, await future

        for next_done in asyncio.as_completed(
            [_tagged(index, future) for index, future in futures.items()]
        ):
            done_index, envelope = await next_done
            self._finish_envelope(envelope)
            await self.send_line(writer, done_index, envelope)
        await end_ndjson(writer, len(specs))
        return True


# ----------------------------------------------------------------------
# Background handle (tests, tools) and the CLI entry point
# ----------------------------------------------------------------------


class ServerHandle:
    """A server running on its own event loop in a daemon thread."""

    def __init__(self, server: AnalysisServer, loop, thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        assert self.server.port is not None
        return self.server.port

    @classmethod
    def start(cls, config: Optional[ServiceConfig] = None) -> "ServerHandle":
        """Boot a server in a background thread; returns once bound."""
        server = AnalysisServer(config)
        loop, thread = start_in_thread(server, "repro-service")
        return cls(server, loop, thread)

    def shutdown(self, drain: bool = True, timeout: float = 60.0) -> bool:
        """Drain (optionally) and stop the server thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain=drain), self._loop
        )
        clean = future.result(timeout=timeout)
        self._thread.join(timeout=timeout)
        return clean


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``repro serve``: boot the analysis service in the foreground."""
    import argparse

    from repro.parallel import cache as result_cache
    from repro.parallel import plane

    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Serve delay analyses over HTTP/JSON with micro-batching, "
            "admission control and a metrics plane"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8177, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--jobs",
        metavar="N",
        help="plane workers per micro-batch ('auto' = one per CPU)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent result cache directory (REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=256, help="admission queue cap"
    )
    parser.add_argument(
        "--max-batch", type=int, default=64, help="micro-batch size cap"
    )
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="coalescing window while a micro-batch is in flight",
    )
    parser.add_argument(
        "--dispatch-threads",
        type=int,
        default=2,
        help="concurrent micro-batches in flight",
    )
    parser.add_argument(
        "--item-timeout-s",
        type=float,
        help=(
            "per-item plane watchdog: a worker hanging past this is "
            "killed and the item retried (default: off)"
        ),
    )
    parser.add_argument(
        "--shed-deadline-ms",
        type=float,
        default=50.0,
        help="budget deadline forced onto load-shed requests",
    )
    parser.add_argument(
        "--drain-grace-s",
        type=float,
        default=30.0,
        help="longest wait for in-flight work on SIGTERM",
    )
    args = parser.parse_args(argv)

    if args.cache_dir:
        result_cache.configure(args.cache_dir)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_queue=args.max_queue,
        max_batch=args.max_batch,
        batch_window_ms=args.batch_window_ms,
        dispatch_threads=args.dispatch_threads,
        item_timeout_s=args.item_timeout_s,
        shed_deadline_ms=args.shed_deadline_ms,
        drain_grace_s=args.drain_grace_s,
    )

    async def _main() -> int:
        server = AnalysisServer(config)
        await server.start()
        print(
            f"repro service: listening on {config.host}:{server.port} "
            f"(jobs={plane.resolve_jobs(config.jobs)} "
            f"cache={result_cache.describe()} "
            f"queue={config.max_queue} batch<={config.max_batch})",
            flush=True,
        )
        server.drain_on_signals()
        await server.wait_stopped()
        print("repro service: drained and stopped", flush=True)
        return 0

    try:
        return asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - direct ^C race
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(serve_main())
