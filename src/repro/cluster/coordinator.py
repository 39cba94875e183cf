"""The cluster coordinator: cache-aware routing over a worker fleet.

A stdlib-only asyncio HTTP tier that fronts N ``repro serve`` workers
(:mod:`repro.service.server`) and speaks the *same* wire protocol, so
every existing client — :class:`repro.service.client.ServiceClient`
included — points at a coordinator unchanged.  What it adds:

* **digest-affinity placement** — each request's routing key is the
  content digest the result cache already keys on
  (:mod:`repro.cluster.routing`); a consistent-hash ring
  (:mod:`repro.cluster.ring`) pins the key to one worker, so warm
  persistent-cache entries, memoized curve operations and what-if
  session state stay on the node that built them;
* **fan-out/merge** — one split-by-owner path: ``/v1/batch`` (plain or
  streamed) splits by owner, runs the sub-batches concurrently and
  settles every envelope exactly once at its original index;
  ``/v1/whatif`` splits a sweep's *edits* by per-edit digest and
  re-merges the per-edit results in edit order.  Merged
  results are bit-identical to a single-node run because every worker
  computes with the same exact arithmetic and the coordinator never
  rewrites a result payload;
* **health + churn** — periodic ``/healthz`` probes eject an
  unresponsive worker from the ring (and re-admit it on recovery);
  a proxy-level connection failure ejects immediately and retries the
  affected requests on the next owner along the ring, bounded by
  ``retry_next_owner``.  Exhausted retries yield *typed* error
  envelopes (``worker_unreachable``) — never silent wrong bounds;
* **cluster-wide admission** — the same three-tier
  :class:`~repro.service.admission.AdmissionController` discipline at
  fleet scope: accept, shed (tighten the forwarded ``deadline_ms`` so
  overload degrades to sound anytime bounds tagged ``shed``), or
  reject with ``429`` + an EWMA-derived ``Retry-After``;
* **observability** — ``/metrics`` aggregates every worker's document
  and merges the per-endpoint latency Histograms with the
  :meth:`repro.perf.Histogram.merge` algebra; responses carry
  ``X-Repro-Worker`` / ``X-Repro-Ring-Generation`` / ``X-Trace-Id``,
  and incoming trace IDs propagate coordinator → worker.

Every worker exchange — single, sub-batch or stream — takes the same
path: one ``request_timeout_s`` ceiling, the ``cluster.partition`` /
``cluster.slow_worker`` / ``cluster.worker_crash`` chaos sites
(:mod:`repro.resilience.chaos`), ejection on transport failure, and one
``429`` policy (wait out ``Retry-After`` once, then reroute without
ejecting).  Framing lives in :mod:`repro.service.http`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import perf
from repro._memo import LRU
from repro.parallel import transport
from repro.resilience import chaos
from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.metrics import ServiceMetrics
from repro.service import http
from repro.service.http import (
    HttpEndpoint,
    Request,
    end_ndjson,
    error_body,
    http_error,
    send_json,
    start_ndjson,
)
from repro.cluster.membership import (
    DEFAULT_LEASE_S,
    CoordinatorLease,
    MembershipLog,
)
from repro.cluster.ring import HashRing
from repro.cluster.routing import routing_digest, whatif_edit_digest

__all__ = ["ClusterConfig", "ClusterCoordinator", "WorkerState"]

#: Completed-response replay store size (requests deduplicated per
#: coordinator by ``X-Idempotency-Key``).
IDEMPOTENCY_CAP = 1024
#: Responses above this size are not recorded for replay.
IDEMPOTENT_MAX_BYTES = 256 * 1024


@dataclass
class ClusterConfig:
    """Tunables of one :class:`ClusterCoordinator`.

    Attributes:
        host: Coordinator bind address.
        port: Coordinator bind port (0 picks a free one).
        workers: ``(host, port)`` of every worker in the fleet.
        vnodes: Virtual nodes per worker on the hash ring.
        max_queue: Fleet-wide admission cap (default: 256 per worker).
        shed_fraction: In-flight fraction above which shedding starts.
        shed_deadline_ms: ``deadline_ms`` forced onto shed requests.
        probe_interval_s: Delay between health-probe rounds.
        probe_timeout_s: Per-probe socket timeout.
        probe_failures: Consecutive probe failures before ejection.
        retry_next_owner: How many successive next-owners a request may
            be retried on after its owner fails (0 disables rerouting).
        request_timeout_s: Per-proxied-request ceiling.
        drain_grace_s: Longest wait for in-flight work during drain.
        state_dir: Directory for the durable membership log and the
            coordinator lease; ``None`` keeps everything in memory (a
            restart cold-starts the ring at generation 0).
        lease_s: Coordinator lease validity window; a standby takes
            over once the lease has been stale for longer than this.
        migrate_rate_bytes_per_s: Default rate limit for resize cache
            migration pulls (``None`` = unthrottled).
    """

    host: str = "127.0.0.1"
    port: int = 8178
    workers: Tuple[Tuple[str, int], ...] = ()
    vnodes: int = 64
    max_queue: Optional[int] = None
    shed_fraction: float = 0.75
    shed_deadline_ms: float = 50.0
    probe_interval_s: float = 1.0
    probe_timeout_s: float = 2.0
    probe_failures: int = 2
    retry_next_owner: int = 1
    request_timeout_s: float = 120.0
    drain_grace_s: float = 30.0
    state_dir: Optional[str] = None
    lease_s: float = DEFAULT_LEASE_S
    migrate_rate_bytes_per_s: Optional[float] = None

    def __post_init__(self) -> None:
        """Validate every tunable at construction — a bad probe interval
        should fail `repro cluster` startup, not surface as a wedged
        fleet during an incident."""
        problems: List[str] = []
        if self.vnodes < 1:
            problems.append(f"vnodes must be >= 1 (got {self.vnodes})")
        if self.max_queue is not None and self.max_queue < 1:
            problems.append(
                f"max_queue must be >= 1 (got {self.max_queue})"
            )
        if not 0.0 <= self.shed_fraction <= 1.0:
            problems.append(
                f"shed_fraction must be in [0, 1] (got {self.shed_fraction})"
            )
        if self.shed_deadline_ms <= 0:
            problems.append(
                f"shed_deadline_ms must be positive "
                f"(got {self.shed_deadline_ms})"
            )
        if self.probe_interval_s <= 0:
            problems.append(
                f"probe_interval_s must be positive "
                f"(got {self.probe_interval_s})"
            )
        if self.probe_timeout_s <= 0:
            problems.append(
                f"probe_timeout_s must be positive "
                f"(got {self.probe_timeout_s})"
            )
        if self.probe_failures < 1:
            problems.append(
                f"probe_failures must be >= 1 (got {self.probe_failures})"
            )
        if self.retry_next_owner < 0:
            problems.append(
                f"retry_next_owner must be >= 0 "
                f"(got {self.retry_next_owner})"
            )
        if self.request_timeout_s <= 0:
            problems.append(
                f"request_timeout_s must be positive "
                f"(got {self.request_timeout_s})"
            )
        if self.drain_grace_s < 0:
            problems.append(
                f"drain_grace_s must be >= 0 (got {self.drain_grace_s})"
            )
        if self.lease_s <= 0:
            problems.append(f"lease_s must be positive (got {self.lease_s})")
        if (
            self.migrate_rate_bytes_per_s is not None
            and self.migrate_rate_bytes_per_s <= 0
        ):
            problems.append(
                f"migrate_rate_bytes_per_s must be positive "
                f"(got {self.migrate_rate_bytes_per_s})"
            )
        if problems:
            raise ValueError("invalid cluster config: " + "; ".join(problems))


@dataclass
class WorkerState:
    """Live health bookkeeping of one fleet member."""

    worker_id: str
    host: str
    port: int
    healthy: bool = True
    consecutive_failures: int = 0
    last_error: Optional[str] = None


class _WorkerDown(Exception):
    """Internal: a proxy attempt could not reach the worker."""


def _cache_counts(doc: Any) -> Tuple[int, int]:
    """Result-cache ``(hits, misses)`` of one worker ``/metrics`` doc."""
    cache = (doc.get("cache") if isinstance(doc, dict) else None) or {}
    return int(cache.get("hits") or 0), int(cache.get("misses") or 0)


def _edit_error(edit: Any, message: str, code: str) -> Dict[str, Any]:
    """One failed row of a merged what-if sweep."""
    return {
        "edit": edit,
        "ok": False,
        "summary": None,
        "error": message,
        "error_code": code,
    }


class ClusterCoordinator(HttpEndpoint):
    """One coordinator instance: ring + proxy + admission + rollup."""

    ROUTES = {
        "/healthz": ("GET", "_handle_healthz"),
        "/metrics": ("GET", "_handle_metrics"),
        "/v1/analyze": ("POST", "_handle_analyze"),
        "/v1/whatif": ("POST", "_handle_whatif"),
        "/v1/batch": ("POST", "_handle_batch"),
        "/admin/membership": ("GET", "_handle_membership"),
        "/admin/add-worker": ("POST", "_handle_add_worker"),
        "/admin/remove-worker": ("POST", "_handle_remove_worker"),
    }
    ROLE = "coordinator"

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        super().__init__()
        self.config = config or ClusterConfig()
        self.workers: Dict[str, WorkerState] = {}
        for index, (host, port) in enumerate(self.config.workers):
            wid = f"w{index}"
            self.workers[wid] = WorkerState(wid, host, int(port))
        # Durable membership: with a state_dir, the log is authoritative
        # for the worker-id -> endpoint mapping and the ring generation,
        # so a restarted coordinator recovers the ring exactly where the
        # previous process left it (same ids => same vnode positions =>
        # same placement => warm caches still line up).
        restored_generation: Optional[int] = None
        self._membership: Optional[MembershipLog] = None
        self._lease: Optional[CoordinatorLease] = None
        if self.config.state_dir:
            self._membership = MembershipLog(self.config.state_dir)
            latest = self._membership.latest()
            if latest is not None:
                restored = self._members_from_record(latest)
                if restored:
                    self.workers = restored
                    restored_generation = latest.generation
        if not self.workers:
            raise ValueError("a cluster needs at least one worker")
        self.ring = HashRing(self.workers, vnodes=self.config.vnodes)
        if restored_generation is not None:
            self.ring.generation = restored_generation
        elif self._membership is not None:
            self._membership.append(
                self._membership_entries(),
                "bootstrap",
                detail="initial fleet",
                generation=self.ring.generation,
            )
        self.metrics = ServiceMetrics()
        max_queue = self.config.max_queue
        if max_queue is None:
            max_queue = 256 * len(self.workers)
        self.admission = AdmissionController(
            max_queue=max_queue,
            shed_fraction=self.config.shed_fraction,
            shed_deadline_ms=self.config.shed_deadline_ms,
        )
        self._inflight = 0
        self._probe_task: Optional[asyncio.Task] = None
        self._lease_task: Optional[asyncio.Task] = None
        #: Completed responses keyed by (X-Idempotency-Key, path, body
        #: digest): a client that lost a response (timeout, dropped
        #: connection) re-issues the request with the same key and gets
        #: the recorded response back without re-execution.
        self._idempotent = LRU(IDEMPOTENCY_CAP)
        #: Per-worker cache counters at the last planned ring-generation
        #: change — /metrics reports hit-rate deltas relative to this.
        self._gen_baseline: Dict[str, Any] = {
            "generation": self.ring.generation,
            "workers": {},
        }

    # -- durable membership ----------------------------------------------

    def _members_from_record(self, record) -> Dict[str, WorkerState]:
        """The worker map encoded in one membership record.

        Entries are ``wid=host:port`` (the id matters: vnode positions
        hash the id, so placement survives restarts only if ids do).
        Config endpoints refresh recorded members positionally — a
        restarted fleet respawns workers on new ports, but ``w<i>`` in
        the config still names the i-th spawned worker.
        """
        members: Dict[str, WorkerState] = {}
        for entry in record.workers:
            wid, sep, addr = entry.partition("=")
            host, _, port = addr.rpartition(":")
            if not sep or not host or not port.isdigit():
                continue
            members[wid] = WorkerState(wid, host, int(port))
        if not members:
            return {}
        for index, (host, port) in enumerate(self.config.workers):
            wid = f"w{index}"
            if wid in members:
                members[wid] = WorkerState(wid, host, int(port))
        return members

    def _membership_entries(self) -> List[str]:
        return [
            f"{wid}={state.host}:{state.port}"
            for wid, state in self.workers.items()
        ]

    def _append_membership(self, action: str, detail: str) -> Optional[int]:
        """Record a planned membership change; returns its generation."""
        if self._membership is None:
            return None
        record = self._membership.append(
            self._membership_entries(),
            action,
            detail=detail,
            generation=self.ring.generation,
        )
        return record.generation

    def _next_worker_id(self) -> str:
        taken = set()
        for wid in self.workers:
            if wid.startswith("w") and wid[1:].isdigit():
                taken.add(int(wid[1:]))
        index = 0
        while index in taken:
            index += 1
        return f"w{index}"

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        await self._listen(self.config.host, self.config.port)
        if self.config.state_dir:
            self._lease = CoordinatorLease(
                self.config.state_dir,
                owner=f"{self.config.host}:{self.port}",
                lease_s=self.config.lease_s,
            )
            self._lease.renew(port=self.port)
            self._lease_task = asyncio.ensure_future(self._lease_loop())
        self._probe_task = asyncio.ensure_future(self._probe_loop())

    async def _lease_loop(self) -> None:
        assert self._lease is not None
        while not self.draining:
            await asyncio.sleep(self._lease.renew_interval_s)
            if not self.draining:
                self._lease.renew(port=self.port)

    async def _wind_down(self, drain: bool) -> bool:
        for task in (self._probe_task, self._lease_task):
            if task is not None:
                task.cancel()
                try:
                    await task
                except (asyncio.CancelledError, Exception):  # noqa: BLE001
                    pass
        if self._lease is not None:
            self._lease.release()
        if not drain:
            return True
        return await self._await_handlers(self.config.drain_grace_s)

    async def crash(self) -> None:
        """Abrupt stop for the failover tests: no drain, no lease release.

        The lease file is left behind holding this owner's last renewal,
        so a warm standby observes takeover exactly as after a real
        crash — by the lease *expiring*, not by a clean handoff.
        """
        self.draining = True
        if self._server is not None:
            self._server.close()
        to_cancel = [
            task
            for task in (self._probe_task, self._lease_task)
            if task is not None
        ]
        to_cancel.extend(self._handlers)
        for task in to_cancel:
            task.cancel()
        # Let the cancelled handlers run their finallys so in-flight
        # sockets actually close — clients must see the connection drop
        # *now* (and fail over), not sit out their read timeout.  Idle
        # kept-alive connections close too.
        if to_cancel:
            await asyncio.gather(*to_cancel, return_exceptions=True)
        await self._close_idle()
        await http.close_connections()
        self._mark_stopped()

    # -- health probes ---------------------------------------------------

    async def _probe_loop(self) -> None:
        while not self.draining:
            await asyncio.gather(
                *(self._probe_one(state) for state in self.workers.values()),
                return_exceptions=True,
            )
            await asyncio.sleep(self.config.probe_interval_s)

    async def _probe_one(self, state: WorkerState) -> None:
        error = reason = None
        try:
            status, _headers, _doc = await self._worker_json(
                state, "GET", "/healthz", timeout=self.config.probe_timeout_s
            )
            # A drained worker (503) is alive but unschedulable; for
            # ring membership it counts as a failed probe.
            if status == 503:
                error = reason = "draining"
        except _WorkerDown as exc:
            error, reason = str(exc), f"probe: {exc}"
        if error is not None:
            state.consecutive_failures += 1
            state.last_error = error
            if (
                state.consecutive_failures >= self.config.probe_failures
                and state.worker_id in self.ring
            ):
                self._eject(state, reason)
            return
        state.consecutive_failures = 0
        state.last_error = None
        if state.worker_id not in self.ring:
            state.healthy = True
            self.ring.add(state.worker_id)
            self.metrics.record("ring_readmissions")
            perf.record("cluster.ring_readmissions")
        else:
            state.healthy = True

    def _eject(self, state: WorkerState, reason: str) -> None:
        state.healthy = False
        state.last_error = reason
        if self.ring.remove(state.worker_id):
            self.metrics.record("ring_ejections")
            perf.record("cluster.ring_ejections")

    # -- worker HTTP -----------------------------------------------------

    async def _worker_json(
        self,
        state: WorkerState,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        timeout: Optional[float] = None,
        trace_id: Optional[str] = None,
        on_line=None,
    ) -> Tuple[int, Dict[str, str], Any]:
        """One exchange with a worker; returns (status, headers, JSON doc).

        With *on_line* a streamed reply is handed over line by line and
        the doc is None.  The whole exchange, a stream included, is
        bounded by *timeout* (default ``request_timeout_s``).  Raises
        :class:`_WorkerDown` on any transport-level failure (connect,
        timeout, truncated or undecodable response).
        """
        timeout = self.config.request_timeout_s if timeout is None else timeout
        # Gray-failure injection: a partition refuses this worker+route
        # pair outright; a slow worker stalls it (probe routes stall
        # past their timeout and go through the ejection path).
        if chaos.should_fire("cluster.partition", key=(state.worker_id, path)):
            perf.record("cluster.chaos_partitions")
            raise _WorkerDown(
                f"{state.worker_id}: injected network partition"
            )
        if chaos.should_fire(
            "cluster.slow_worker", key=(state.worker_id, path)
        ):
            perf.record("cluster.chaos_slow_workers")
            await asyncio.sleep(min(chaos.HANG_SECONDS, timeout))
        try:
            status, headers, payload = await asyncio.wait_for(
                http.exchange(
                    state.host,
                    state.port,
                    method,
                    path,
                    body,
                    {"X-Trace-Id": trace_id} if trace_id else None,
                    on_line=on_line,
                ),
                timeout,
            )
            doc = json.loads(payload.decode("utf-8")) if payload else None
        except asyncio.TimeoutError:
            raise _WorkerDown(
                f"{state.worker_id} timed out after {timeout}s"
            ) from None
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            raise _WorkerDown(
                f"{state.worker_id}: {type(exc).__name__}: {exc}"
            ) from exc
        return status, headers, doc

    # -- connection handling ---------------------------------------------

    async def handle(self, request: Request, writer) -> bool:
        """Route one request, deduplicating by ``X-Idempotency-Key``.

        A keyed POST whose response was already recorded is replayed
        verbatim without re-execution — the retry a client sends after
        losing a response (timeout, coordinator bounce mid-reply) lands
        exactly once.  The log keys on the header, path and body
        digest, so a key reused for another request executes it.  Keys
        are per-coordinator; a replay on a *failed-over* coordinator
        re-executes instead, which is safe because every analysis is
        pure: the re-executed response is bit-identical to the lost one.
        """
        idem = request.headers.get("x-idempotency-key")
        # Injected coordinator crash: drop the connection after the
        # request was read but before any response byte — the shape
        # a real coordinator death mid-request has on the wire.
        # Clients recover by failing over their coordinator list
        # and re-issuing under the same idempotency key.
        if chaos.should_fire(
            "cluster.coordinator_crash",
            key=(request.path, idem, len(request.body)),
        ):
            perf.record("cluster.chaos_coordinator_crashes")
            self.metrics.record("chaos_connection_drops")
            return False
        if (
            not idem
            or request.method != "POST"
            or not request.path.startswith("/v1/")
        ):
            return await self.route(request, writer)
        body_digest = hashlib.sha256(request.body).digest()
        replay_key = (idem, request.path, body_digest)
        recorded = self._idempotent.get(replay_key)
        if recorded is not None:
            self.metrics.record("idempotent_replays")
            perf.record("cluster.idempotent_replays")
            # The recorded Connection header belongs to the connection
            # that first carried the request, not to this one.
            writer.write(http.restamp_connection(recorded, writer.keep_alive))
            await writer.drain()
            return True
        writer.record()
        ok = await self.route(request, writer)
        self._remember_idempotent(replay_key, writer.recorded())
        return ok

    def _remember_idempotent(self, key: tuple, raw: bytes) -> None:
        """Record one completed 200 response for replay (bounded LRU).

        Streams (chunked framing) and oversized or non-200 responses
        are not recorded: errors should re-execute on retry, and a
        stream replay would need the full body buffered anyway.
        """
        if len(raw) > IDEMPOTENT_MAX_BYTES or not http.replayable(raw):
            return
        self._idempotent.put(key, raw)

    # -- admission -------------------------------------------------------

    def _admit(self, specs: Sequence[Any]) -> bool:
        """Fleet-wide admission; returns True when the batch is shed.

        Shedding at the coordinator tightens each forwarded request's
        ``deadline_ms`` (in place on the spec dicts), so the owning
        worker runs it under a budget and answers with a *sound*
        degraded bound, exactly like single-node shedding.
        """
        sheddable = all(
            isinstance(s, dict)
            and protocol.is_sheddable(s.get("kind"))
            and s.get("deadline_ms") is not None
            for s in specs
        )
        decision = self.admission.admit(
            len(specs), self._inflight, sheddable=sheddable
        )
        if not decision.accepted:
            self.metrics.record("rejected", len(specs))
            raise http_error(
                429,
                "queue_full",
                f"cluster queue is full (in-flight {self._inflight} of "
                f"{self.admission.max_queue})",
                headers={"Retry-After": str(decision.retry_after)},
                retry_after=decision.retry_after,
            )
        if decision.action == "shed":
            self.metrics.record("shed", len(specs))
            for spec in specs:
                spec["deadline_ms"] = min(
                    float(spec["deadline_ms"]),
                    self.admission.shed_deadline_ms,
                )
            return True
        return False

    def _observe(self, envelope: Dict[str, Any]) -> None:
        elapsed = envelope.get("elapsed_s")
        if isinstance(elapsed, (int, float)):
            healthy = max(1, len(self.ring))
            self.admission.observe_service_time(float(elapsed) / healthy)
        if envelope.get("degraded"):
            self.metrics.record("degraded")
        if not envelope.get("ok", False):
            self.metrics.record("analysis_errors")

    # -- placement + proxy -----------------------------------------------

    def _owner_chain(self, digest: str) -> List[WorkerState]:
        """The owner plus up to ``retry_next_owner`` fallbacks."""
        chain = self.ring.owners(digest, 1 + self.config.retry_next_owner)
        return [self.workers[wid] for wid in chain]

    def _fail_over(self, state: WorkerState, exc: _WorkerDown) -> None:
        self._eject(state, str(exc))
        self.metrics.record("proxy_failovers")

    async def _ask(
        self,
        state: WorkerState,
        path: str,
        body: bytes,
        trace_id: str,
        on_line=None,
    ) -> Optional[Tuple[int, Any]]:
        """POST *body* to one worker under the one proxy policy.

        A crash — injected at ``cluster.worker_crash`` or real — raises
        :class:`_WorkerDown` and the caller ejects.  A ``429`` is
        back-pressure, not death: wait out the worker's ``Retry-After``
        (capped at 5 s) once and ask again; if it still refuses, return
        None and leave it on the ring.  Otherwise returns
        ``(status, doc)``.
        """
        for attempt in range(2):
            if chaos.should_fire(
                "cluster.worker_crash", key=f"{trace_id}:{state.worker_id}"
            ):
                perf.record("cluster.chaos_crashes")
                raise _WorkerDown(f"{state.worker_id}: injected worker crash")
            status, headers, doc = await self._worker_json(
                state, "POST", path, body, trace_id=trace_id, on_line=on_line
            )
            if status != 429:
                return status, doc
            if attempt == 0:
                try:
                    wait = min(float(headers.get("retry-after", "1")), 5.0)
                except ValueError:
                    wait = 1.0
                await asyncio.sleep(wait)
        self.metrics.record("proxy_failovers")
        return None

    async def _proxy_spec(
        self,
        path: str,
        spec: Any,
        trace_id: str,
    ) -> Tuple[Dict[str, Any], Optional[str], int]:
        """Route one spec to its owner; returns (envelope, worker_id,
        the worker's HTTP status).

        Transport failures eject the owner and walk the ring to the
        next one (bounded); exhaustion yields a typed error envelope
        with status 200.  The envelope always reflects the answering
        worker verbatim.
        """
        digest = routing_digest(spec)
        body = json.dumps(spec).encode("utf-8")
        tried: List[str] = []
        for _ in range(1 + self.config.retry_next_owner):
            chain = [
                s for s in self._owner_chain(digest)
                if s.worker_id not in tried
            ]
            if not chain:
                break
            state = chain[0]
            tried.append(state.worker_id)
            try:
                reply = await self._ask(state, path, body, trace_id)
            except _WorkerDown as exc:
                self._fail_over(state, exc)
                continue
            if reply is None:
                continue  # still saturated: next owner, same ring
            status, envelope = reply
            if not isinstance(envelope, dict):
                envelope = {"ok": False, "result": envelope}
            return envelope, state.worker_id, status
        kind = spec.get("kind") if isinstance(spec, dict) else None
        envelope = error_body(
            "worker_unreachable",
            "no live worker could serve this request "
            f"(tried {', '.join(tried) or 'none'})",
            trace_id=trace_id,
        )
        if kind:
            envelope["kind"] = kind
        return envelope, None, 200

    async def _by_owner(
        self, digests: Sequence[str], run_group, inflight: int
    ) -> None:
        """The one split-by-owner path.

        Groups the indices of *digests* by ring owner and awaits
        ``run_group(owner, indices)`` for every group concurrently,
        holding *inflight* admitted units in ``_inflight`` meanwhile.
        """
        groups: Dict[Optional[str], List[int]] = {}
        for index, digest in enumerate(digests):
            groups.setdefault(self.ring.owner(digest), []).append(index)
        self._inflight += inflight
        try:
            await asyncio.gather(
                *(run_group(owner, group) for owner, group in groups.items())
            )
        finally:
            self._inflight -= inflight

    # -- endpoints -------------------------------------------------------

    async def _handle_healthz(self, request: Request, writer) -> bool:
        healthy = len(self.ring)
        status = 503 if self.draining or healthy == 0 else 200
        await send_json(
            writer,
            status,
            {
                "status": "draining" if self.draining else (
                    "ok" if healthy else "no_workers"
                ),
                "role": "coordinator",
                "uptime_s": self.metrics.uptime_s(),
                "ring_generation": self.ring.generation,
                "healthy_workers": healthy,
                "workers": {
                    wid: {
                        "host": s.host,
                        "port": s.port,
                        "healthy": wid in self.ring,
                        "consecutive_failures": s.consecutive_failures,
                        "last_error": s.last_error,
                    }
                    for wid, s in self.workers.items()
                },
                "protocol_version": protocol.PROTOCOL_VERSION,
            },
        )
        return status == 200

    # -- planned resize + membership admin -------------------------------

    async def _handle_membership(self, request: Request, writer) -> bool:
        records = self._membership.records() if self._membership else []
        await send_json(
            writer,
            200,
            {
                "ok": True,
                "durable": self._membership is not None,
                "ring": {
                    "generation": self.ring.generation,
                    "vnodes": self.ring.vnodes,
                    "workers": list(self.ring.workers),
                },
                "members": self._membership_entries(),
                "log": [
                    {
                        "generation": r.generation,
                        "workers": list(r.workers),
                        "action": r.action,
                        "detail": r.detail,
                        "ts": r.ts,
                    }
                    for r in records[-32:]
                ],
                "lease": self._lease.read() if self._lease else None,
            },
        )
        return True

    async def _worker_cache_keys(
        self, state: WorkerState
    ) -> List[Tuple[str, int, Optional[str]]]:
        """One worker's resident ``(key, bytes, placement)`` listing."""
        status, _headers, doc = await self._worker_json(
            state, "GET", "/v1/cache/keys"
        )
        if status != 200:
            raise _WorkerDown(
                f"{state.worker_id}: cache listing returned HTTP {status}"
            )
        try:
            return transport.parse_key_listing(doc)
        except ValueError as exc:
            raise _WorkerDown(f"{state.worker_id} sent {exc}") from exc

    async def _pull_to(
        self,
        dest: WorkerState,
        src: WorkerState,
        keys: List[str],
        rate: Optional[float],
    ) -> Dict[str, Any]:
        """Instruct *dest* to pull *keys* from *src* (digest-verified).

        Returns the pull summary plus ``keys``.  A failure comes back
        as ``{"error": ...}``: partial migration is sound, because an
        unmoved entry misses once on its new owner and recomputes.
        """
        body = json.dumps(
            {
                "peer": f"{src.host}:{src.port}",
                "keys": keys,
                "rate_bytes_per_s": rate,
            }
        ).encode("utf-8")
        try:
            status, _headers, doc = await self._worker_json(
                dest, "POST", "/v1/cache/pull", body
            )
            if status != 200:
                raise _WorkerDown(
                    f"{dest.worker_id}: cache pull returned HTTP {status}"
                )
        except _WorkerDown as exc:
            return {"error": str(exc)}
        pull = doc.get("pull") if isinstance(doc, dict) else None
        summary = dict(pull) if isinstance(pull, dict) else {}
        summary["keys"] = len(keys)
        self.metrics.record(
            "migrated_entries", int(summary.get("pulled") or 0)
        )
        return summary

    async def _migrate_for_add(
        self, new_state: WorkerState, rate: Optional[float]
    ) -> Dict[str, Any]:
        """Move the joiner's future entries onto it before it joins.

        The prospective ring (current members + joiner) names exactly
        the consistent-hash movement delta: entries whose placement key
        (the routing key recorded at write time, falling back to the
        entry key) the new ring assigns to the joiner.  Each source
        keeps its copy — the joiner owns the arc from the flip onward,
        and stale source copies age out of their LRU.
        """
        prospective = HashRing(
            list(self.ring.workers) + [new_state.worker_id],
            vnodes=self.config.vnodes,
        )
        migration: Dict[str, Any] = {}
        for state in list(self.workers.values()):
            if state.worker_id not in self.ring:
                continue
            try:
                listing = await self._worker_cache_keys(state)
            except _WorkerDown as exc:
                # Partial migration is sound: unmoved entries miss once
                # on the joiner and recompute.
                migration[state.worker_id] = {"error": str(exc)}
                continue
            moving = [
                key
                for key, _size, tag in listing
                if prospective.owner(tag or key) == new_state.worker_id
            ]
            migration[state.worker_id] = (
                await self._pull_to(new_state, state, moving, rate)
                if moving
                else {"keys": 0, "pulled": 0}
            )
        return migration

    async def _migrate_for_remove(
        self, leaving: WorkerState, rate: Optional[float]
    ) -> Dict[str, Any]:
        """Re-home the leaver's entries onto their next owners."""
        survivors = [
            wid for wid in self.ring.workers if wid != leaving.worker_id
        ]
        if not survivors:
            return {}
        prospective = HashRing(survivors, vnodes=self.config.vnodes)
        try:
            listing = await self._worker_cache_keys(leaving)
        except _WorkerDown as exc:
            # A dead leaver has nothing to hand over; its entries
            # recompute on the survivors.
            return {"error": str(exc)}
        groups: Dict[str, List[str]] = {}
        for key, _size, tag in listing:
            groups.setdefault(prospective.owner(tag or key), []).append(key)
        migration: Dict[str, Any] = {}
        for wid, keys in groups.items():
            if wid in self.workers:
                migration[wid] = await self._pull_to(
                    self.workers[wid], leaving, keys, rate
                )
        return migration

    def _member(self, target: str) -> Optional[WorkerState]:
        """The member named by worker id or by ``host:port``."""
        return self.workers.get(target) or next(
            (
                s for s in self.workers.values()
                if f"{s.host}:{s.port}" == target
            ),
            None,
        )

    def _resize_options(
        self, data: Any
    ) -> Tuple[bool, Optional[float]]:
        migrate = True
        rate = self.config.migrate_rate_bytes_per_s
        if isinstance(data, dict):
            migrate = bool(data.get("migrate", True))
            raw = data.get("rate_bytes_per_s", rate)
            rate = float(raw) if isinstance(raw, (int, float)) and raw > 0 else None
        return migrate, rate

    async def _handle_add_worker(self, request: Request, writer) -> bool:
        """``POST /admin/add-worker``: migrate, then flip the generation.

        Order matters: the joiner pulls its owned entries while the old
        ring still routes every request to the old owners, and only
        then joins the ring — requests observe either the fully-warm
        new placement or the old one, never a cold in-between.
        """
        self.refuse_if_draining()
        data = request.json()
        target = data.get("worker") if isinstance(data, dict) else None
        host, _, port_s = str(target or "").rpartition(":")
        if not host or not port_s.isdigit():
            raise http_error(
                400, "bad_request", "'worker' must be \"host:port\""
            )
        port = int(port_s)
        if self._member(f"{host}:{port}") is not None:
            raise http_error(
                409, "conflict", f"{host}:{port} is already a member"
            )
        wid = self._next_worker_id()
        state = WorkerState(wid, host, port)
        try:
            status, _h, _doc = await self._worker_json(
                state, "GET", "/healthz", timeout=self.config.probe_timeout_s
            )
        except _WorkerDown as exc:
            raise http_error(
                502, "worker_unreachable", f"joiner health check: {exc}"
            ) from exc
        if status != 200:
            raise http_error(
                502,
                "worker_unreachable",
                f"joiner /healthz returned HTTP {status}",
            )
        migrate, rate = self._resize_options(data)
        migration: Dict[str, Any] = {}
        if migrate:
            migration = await self._migrate_for_add(state, rate)
        self.workers[wid] = state
        self.ring.add(wid)
        return await self._resized("add", state, migration, writer)

    async def _handle_remove_worker(self, request: Request, writer) -> bool:
        """``POST /admin/remove-worker``: drain entries out, then leave."""
        self.refuse_if_draining()
        data = request.json()
        target = str(data.get("worker") or "") if isinstance(data, dict) else ""
        state = self._member(target)
        if state is None:
            raise http_error(
                404, "bad_request", f"no such worker {target!r}"
            )
        if len(self.workers) == 1:
            raise http_error(
                409, "conflict", "cannot remove the last worker"
            )
        migrate, rate = self._resize_options(data)
        migration: Dict[str, Any] = {}
        if migrate and state.worker_id in self.ring:
            migration = await self._migrate_for_remove(state, rate)
        if not self.ring.remove(state.worker_id):
            # Health probes already ejected it; the planned removal must
            # still be observable as a generation change.
            self.ring.generation += 1
        del self.workers[state.worker_id]
        return await self._resized("remove", state, migration, writer)

    async def _resized(
        self,
        action: str,
        state: WorkerState,
        migration: Dict[str, Any],
        writer,
    ) -> bool:
        """Log and answer one planned membership change."""
        self.metrics.record("ring_resizes")
        perf.record("cluster.ring_resizes")
        endpoint = f"{state.host}:{state.port}"
        membership_generation = self._append_membership(
            action, f"{state.worker_id}={endpoint}"
        )
        await self._capture_generation_baseline()
        await send_json(
            writer,
            200,
            {
                "ok": True,
                "action": action,
                "worker": state.worker_id,
                "endpoint": endpoint,
                "ring_generation": self.ring.generation,
                "membership_generation": membership_generation,
                "migration": migration,
            },
        )
        return True

    async def _fetch_worker_metrics(
        self, state: WorkerState
    ) -> Optional[Dict[str, Any]]:
        try:
            status, _headers, doc = await self._worker_json(
                state, "GET", "/metrics", timeout=self.config.probe_timeout_s
            )
        except _WorkerDown:
            return None
        return doc if status == 200 and isinstance(doc, dict) else None

    async def _capture_generation_baseline(self) -> None:
        """Snapshot per-worker cache counters at a generation flip.

        ``/metrics`` reports hit-rate deltas relative to this snapshot,
        so operators can see whether the fleet stayed warm *across* the
        resize instead of eyeballing absolute counters that mix the
        before and after.
        """
        snap: Dict[str, Dict[str, int]] = {}
        for state in list(self.workers.values()):
            doc = await self._fetch_worker_metrics(state)
            hits, misses = _cache_counts(doc)
            snap[state.worker_id] = {"hits": hits, "misses": misses}
        self._gen_baseline = {
            "generation": self.ring.generation,
            "workers": snap,
        }

    async def _handle_metrics(self, request: Request, writer) -> bool:
        await send_json(writer, 200, await self._metrics_rollup())
        return True

    async def _handle_analyze(self, request: Request, writer) -> bool:
        self.refuse_if_draining()
        return await self._forward(
            request.json(), request.trace_id or protocol.new_trace_id(), writer
        )

    async def _forward(self, data: Any, trace: str, writer) -> bool:
        """Proxy one spec whole to its owner; answer with its envelope."""
        shed = self._admit([data] if isinstance(data, dict) else [{}])
        self._inflight += 1
        try:
            envelope, worker, status = await self._proxy_spec(
                "/v1/analyze", data, trace
            )
        finally:
            self._inflight -= 1
        if shed:
            envelope = {**envelope, "shed": True}
        self._observe(envelope)
        # A spec the worker could not decode is malformed on every
        # worker: relay its 400.  Anything else is an envelope (typed
        # analysis errors included) and answers 200.
        await send_json(
            writer, 400 if status == 400 else 200, envelope,
            self._route_headers(worker, envelope.get("trace_id") or trace),
        )
        return bool(envelope.get("ok", False))

    def _route_headers(
        self, worker: Optional[str], trace: str
    ) -> Dict[str, str]:
        headers = {
            "X-Repro-Ring-Generation": str(self.ring.generation),
            "X-Trace-Id": trace,
        }
        if worker:
            headers["X-Repro-Worker"] = worker
        return headers

    # -- whatif split ----------------------------------------------------

    async def _handle_whatif(self, request: Request, writer) -> bool:
        self.refuse_if_draining()
        data = request.json()
        trace = request.trace_id or protocol.new_trace_id()
        if not isinstance(data, dict):
            raise http_error(
                400, "bad_request", "request body must be a JSON object"
            )
        data = {**data, "kind": "whatif_sweep"}
        edits = data.get("edits")
        if (
            not isinstance(edits, list)
            or len(edits) < 2
            or len(self.ring) < 2
        ):
            # Nothing to split: route the sweep whole.
            return await self._forward(data, trace, writer)
        shed = self._admit([data])
        base = routing_digest(data)
        merged: List[Optional[Dict[str, Any]]] = [None] * len(edits)
        answers: List[Tuple[Dict[str, Any], Optional[str]]] = []

        async def _run_group(_owner, indices: List[int]) -> None:
            sub = {**data, "edits": [edits[i] for i in indices]}
            envelope, worker, _status = await self._proxy_spec(
                "/v1/whatif", sub, trace
            )
            answers.append((envelope, worker))
            if envelope.get("ok", False):
                results = envelope.get("result", {}).get("results", [])
                for original, result in zip(indices, results):
                    merged[original] = result
                return
            error = envelope.get("error", {}) or {}
            code = error.get("code", "internal")
            for original in indices:
                merged[original] = _edit_error(
                    edits[original],
                    error.get("message", "worker unreachable"),
                    code if code != "internal" else "worker_unreachable",
                )

        await self._by_owner(
            [whatif_edit_digest(base, edit) for edit in edits], _run_group, 1
        )
        for envelope, worker in answers:
            code = (envelope.get("error") or {}).get("code")
            if not envelope.get("ok", False) and code in (
                "bad_request", "validation", "unbounded"
            ):
                # A whole-request typed error is edit-independent:
                # every sub-request would fail identically, so the
                # first verdict answers for the sweep.
                envelope = {**envelope, "trace_id": trace}
                self._observe(envelope)
                await send_json(
                    writer, 200, envelope, self._route_headers(worker, trace)
                )
                return False
        elapsed = [
            float(e["elapsed_s"])
            for e, _ in answers
            if isinstance(e.get("elapsed_s"), (int, float))
        ]
        envelope = {
            "ok": True,
            "trace_id": trace,
            "kind": "whatif_sweep",
            "degraded": any(e.get("degraded") for e, _ in answers),
            "shed": bool(shed),
            "elapsed_s": max(elapsed, default=0.0),
            "result": {
                "results": [
                    entry or _edit_error(
                        edit,
                        "sub-sweep returned no result for this edit",
                        "worker_unreachable",
                    )
                    for edit, entry in zip(edits, merged)
                ]
            },
        }
        self._observe(envelope)
        workers = sorted({w for _, w in answers if w is not None})
        await send_json(
            writer, 200, envelope,
            self._route_headers(",".join(workers), trace),
        )
        return True

    # -- batch split -----------------------------------------------------

    async def _handle_batch(self, request: Request, writer) -> bool:
        self.refuse_if_draining()
        data = request.json()
        specs = data.get("requests") if isinstance(data, dict) else None
        if not isinstance(specs, list) or not specs:
            raise http_error(
                400, "bad_request", "'requests' must be a non-empty list"
            )
        stream = bool(data.get("stream", False))
        trace = request.trace_id or protocol.new_trace_id()
        shed = self._admit([s if isinstance(s, dict) else {} for s in specs])
        settled: Dict[int, Dict[str, Any]] = {}
        lines: "asyncio.Queue[Optional[Tuple[int, Dict[str, Any]]]]" = (
            asyncio.Queue()
        )

        def _settle(index: int, envelope: Dict[str, Any]) -> None:
            self._observe(envelope)
            if stream:
                lines.put_nowait((index, envelope))
            else:
                settled[index] = envelope

        fan_out = self._by_owner(
            [routing_digest(spec) for spec in specs],
            lambda owner, indices: self._run_batch_group(
                specs, owner, indices, trace, stream, _settle
            ),
            len(specs),
        )
        if not stream:
            await fan_out
            await send_json(
                writer,
                200,
                {
                    "ok": True,
                    "trace_id": trace,
                    "count": len(specs),
                    "shed": bool(shed),
                    "responses": [settled[i] for i in range(len(specs))],
                },
                self._route_headers(None, trace),
            )
            return True

        # Streaming: NDJSON re-multiplexed from the per-owner worker
        # streams in fleet-wide completion order, indices rewritten to
        # the caller's positions.
        task = asyncio.ensure_future(fan_out)
        task.add_done_callback(lambda _: lines.put_nowait(None))
        try:
            await start_ndjson(writer, self._route_headers(None, trace))
            while True:
                item = await lines.get()
                if item is None:
                    break
                await self.send_line(writer, *item)
            await task
            await end_ndjson(writer, len(specs))
        finally:
            task.cancel()
        return True

    async def _run_batch_group(
        self,
        specs: List[Any],
        owner: Optional[str],
        indices: List[int],
        trace: str,
        stream: bool,
        settle,
    ) -> None:
        """Proxy one owner's sub-batch; re-route leftovers on failure.

        ``settle(original_index, envelope)`` is called exactly once per
        index.  The worker's reply yields ``(local_index, envelope)``
        pairs — from its ``responses`` list, or live from its NDJSON
        stream.  Sub-batches keep the worker-side micro-batch
        coalescing; after a worker loss, a timeout or a persistent
        ``429`` the unsettled remainder re-routes item-by-item through
        :meth:`_proxy_spec` (which walks the ring with its own ejection
        + bounded retry), so a crash yields re-computed bit-identical
        results or typed errors — never silence.
        """
        pending = dict.fromkeys(indices)

        def _take(local: Any, envelope: Dict[str, Any]) -> None:
            if not isinstance(local, int) or not 0 <= local < len(indices):
                return
            if indices[local] in pending:
                del pending[indices[local]]
                settle(indices[local], envelope)

        state = self.workers.get(owner) if owner is not None else None
        if state is not None:
            body = {"requests": [specs[i] for i in indices], "stream": stream}
            try:
                reply = await self._ask(
                    state,
                    "/v1/batch",
                    json.dumps(body).encode("utf-8"),
                    trace,
                    on_line=(
                        (lambda doc: _take(doc.pop("index", None), doc))
                        if stream
                        else None
                    ),
                )
            except _WorkerDown as exc:
                self._fail_over(state, exc)
                reply = None
            if reply is not None and reply[0] == 200 and not stream:
                doc = reply[1] if isinstance(reply[1], dict) else {}
                responses = doc.get("responses")
                if isinstance(responses, list):
                    for local, envelope in enumerate(responses):
                        _take(local, envelope)
        for original in list(pending):
            envelope, _worker, _status = await self._proxy_spec(
                "/v1/analyze", specs[original], trace
            )
            settle(original, envelope)

    # -- metrics rollup --------------------------------------------------

    async def _metrics_rollup(self) -> Dict[str, Any]:
        async def _fetch(state: WorkerState):
            return state.worker_id, await self._fetch_worker_metrics(state)

        fetched = await asyncio.gather(
            *(_fetch(state) for state in self.workers.values())
        )
        per_worker = {wid: doc for wid, doc in fetched}

        rollup_requests: Dict[str, float] = {}
        rollup_endpoints: Dict[str, Dict[str, Any]] = {}
        # Hit-rate deltas since the last ring-generation flip
        # (resize/restore), per worker and fleet-wide, so operators can
        # confirm the fleet stayed warm across a membership change.
        base_workers = self._gen_baseline.get("workers") or {}
        gen_per_worker: Dict[str, Any] = {}
        cache_hits = cache_misses = fleet_dh = fleet_dm = 0
        for wid, doc in per_worker.items():
            hits, misses = _cache_counts(doc)
            cache_hits += hits
            cache_misses += misses
            base = base_workers.get(wid) or {}
            dh = max(0, hits - int(base.get("hits") or 0))
            dm = max(0, misses - int(base.get("misses") or 0))
            gen_per_worker[wid] = {
                "hits_delta": dh,
                "misses_delta": dm,
                "hit_rate": dh / (dh + dm) if dh + dm else None,
            }
            fleet_dh += dh
            fleet_dm += dm
            if not isinstance(doc, dict):
                continue
            for name, value in (doc.get("requests") or {}).items():
                if isinstance(value, (int, float)):
                    rollup_requests[name] = (
                        rollup_requests.get(name, 0) + value
                    )
            for endpoint, stats in (doc.get("endpoints") or {}).items():
                snap = (stats or {}).get("latency_s")
                if not isinstance(snap, dict):
                    continue
                agg = rollup_endpoints.setdefault(
                    endpoint,
                    {"count": 0, "histogram": perf.Histogram()},
                )
                agg["count"] += int((stats or {}).get("count", 0))
                # The merge algebra of repro.perf: bucket-by-bucket
                # addition over identical log-spaced bounds.
                agg["histogram"].merge(snap)
        endpoints_out = {}
        for endpoint, agg in rollup_endpoints.items():
            hist: perf.Histogram = agg["histogram"]
            endpoints_out[endpoint] = {
                "count": agg["count"],
                "p50_s": hist.quantile(0.5),
                "p95_s": hist.quantile(0.95),
                "latency_s": hist.snapshot(),
            }
        lookups = cache_hits + cache_misses
        return {
            "cluster": {
                "ring": {
                    "generation": self.ring.generation,
                    "vnodes": self.ring.vnodes,
                    "workers": list(self.ring.workers),
                },
                "workers": {
                    wid: {
                        "healthy": wid in self.ring,
                        "consecutive_failures": s.consecutive_failures,
                        "last_error": s.last_error,
                    }
                    for wid, s in self.workers.items()
                },
                "in_flight": self._inflight,
                "max_queue": self.admission.max_queue,
            },
            "coordinator": self.metrics.snapshot(
                queue_depth=self._inflight,
                queue_max=self.admission.max_queue,
                queue_high_water=self.admission.high_water,
                draining=self.draining,
            ),
            "workers": per_worker,
            "rollup": {
                "requests": rollup_requests,
                "endpoints": endpoints_out,
                "cache": {
                    "hits": cache_hits,
                    "misses": cache_misses,
                    "hit_rate": (
                        cache_hits / lookups if lookups else None
                    ),
                },
                "cache_by_generation": {
                    "since_generation": self._gen_baseline.get(
                        "generation", 0
                    ),
                    "per_worker": gen_per_worker,
                    "fleet": {
                        "hits_delta": fleet_dh,
                        "misses_delta": fleet_dm,
                        "hit_rate": (
                            fleet_dh / (fleet_dh + fleet_dm)
                            if fleet_dh + fleet_dm
                            else None
                        ),
                    },
                },
            },
        }
