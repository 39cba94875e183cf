"""Micro-batch coalescing onto the parallel execution plane.

Every analysis request the server accepts — whether it arrived alone on
``/v1/analyze`` or as one element of a ``/v1/batch`` — is enqueued
individually on one shared :class:`Batcher`.  A dispatcher task drains
the queue into **micro-batches** of at most ``max_batch`` and ships
each through :func:`repro.parallel.map_settled` in a dispatch thread.
When nothing is in flight the queue goes out at once: a lone request
pays no linger, and a ``/v1/batch`` is still one micro-batch because
it enqueues all its items before the dispatcher wakes.  While a batch
runs, the dispatcher lingers ``batch_window`` seconds (or not at all
once ``max_batch`` are waiting), so requests that arrive meanwhile
coalesce.  Concurrent clients therefore share one pool fan-out and one
warm result cache per micro-batch instead of paying per-request
dispatch overhead — and a request that fails (validation, unbounded
workload, exhausted budget) settles alone without poisoning its batch
neighbours.

Execution semantics per kind (:func:`execute_request`, dispatched
through the :data:`_EXECUTORS` registry — one
:func:`register_executor` call per kind, the execution-side companion
of :data:`repro.service.protocol.KIND_REGISTRY`):

* ``delay`` / ``bounded_delay`` run
  :func:`repro.resilience.bounded_delay`: a budget (from the request's
  ``deadline_ms`` or the admission shedder) degrades to a *sound*
  anytime bound, tagged ``degraded`` — never an error;
* ``dag_rta`` runs :func:`repro.mp.bounds.dag_rta` the same way — its
  degraded rung is the Graham bound;
* ``sp_schedulable`` / ``edf_structural_delays`` / ``analyze_many`` /
  ``global_fp_schedulable`` / ``global_rm_schedulable`` run under
  :func:`~repro.resilience.budget.budget_scope`; these verdicts have no
  sound partial form, so budget exhaustion surfaces as a typed
  ``budget_exhausted`` error envelope;
* ``whatif_sweep`` runs :func:`repro.whatif.engine.whatif_sweep` under
  the same scope — one warm incremental session per request, per-edit
  failures reported inside the result list.

Each envelope carries the request's trace ID; with ``"perf": true`` it
also carries the perf-counter delta of exactly that request's work —
measured inside whichever worker process ran it, and threaded back
alongside the worker snapshot the plane merges into the parent.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Deque, Dict, List, Optional, Sequence

from repro import perf
from repro.core.facade import analyze_many
from repro.mp.bounds import dag_rta
from repro.mp.global_sched import global_fp_schedulable, global_rm_schedulable
from repro.parallel import cache as result_cache
from repro.parallel.plane import JobsLike, map_settled
from repro.resilience.bounded import bounded_delay
from repro.resilience.budget import budget_scope
from repro.sched.edf_delay import edf_structural_delays
from repro.sched.sp import sp_schedulable
from repro.service import protocol
from repro.service.protocol import DecodedRequest
from repro.whatif.engine import whatif_sweep

__all__ = ["execute_request", "register_executor", "run_batch", "Batcher"]


def _counter_delta(before: Dict[str, int], after: Dict[str, int]):
    delta = {
        name: n - before.get(name, 0)
        for name, n in after.items()
        if n != before.get(name, 0)
    }
    return delta


# ----------------------------------------------------------------------
# Per-kind executors
# ----------------------------------------------------------------------

_EXECUTORS: Dict[str, object] = {}


def register_executor(kind: str, fn) -> None:
    """Register the engine entry point of one protocol kind.

    *fn* takes the :class:`DecodedRequest` and returns the engine
    result; budget semantics (explicit budget vs. ambient scope) are
    the executor's own business.
    """
    if kind not in protocol.KIND_REGISTRY:
        raise ValueError(f"kind {kind!r} is not in the protocol registry")
    _EXECUTORS[kind] = fn


def _exec_bounded(req: DecodedRequest):
    return bounded_delay(req.tasks[0], req.beta, budget=req.budget)


def _exec_sp(req: DecodedRequest):
    with budget_scope(req.budget):
        return sp_schedulable(list(req.tasks), req.beta, **req.params)


def _exec_edf(req: DecodedRequest):
    with budget_scope(req.budget):
        return edf_structural_delays(list(req.tasks), req.beta, **req.params)


def _exec_many(req: DecodedRequest):
    with budget_scope(req.budget):
        return analyze_many(list(req.tasks), req.beta, **req.params)


def _exec_whatif(req: DecodedRequest):
    # One warm session per request; per-edit failures come back inside
    # the result list, not as an envelope error.
    with budget_scope(req.budget):
        return whatif_sweep(req.tasks[0], req.beta, req.params["edits"])


def _exec_dag_rta(req: DecodedRequest):
    return dag_rta(
        req.tasks[0],
        m=req.params["m"],
        budget=req.budget,
        max_paths=req.params.get("max_paths"),
    )


def _exec_global_fp(req: DecodedRequest):
    kwargs = {k: v for k, v in req.params.items() if k != "m"}
    with budget_scope(req.budget):
        return global_fp_schedulable(
            list(req.tasks), m=req.params["m"], **kwargs
        )


def _exec_global_rm(req: DecodedRequest):
    kwargs = {k: v for k, v in req.params.items() if k != "m"}
    with budget_scope(req.budget):
        return global_rm_schedulable(
            list(req.tasks), m=req.params["m"], **kwargs
        )


register_executor("delay", _exec_bounded)
register_executor("bounded_delay", _exec_bounded)
register_executor("sp_schedulable", _exec_sp)
register_executor("edf_structural_delays", _exec_edf)
register_executor("analyze_many", _exec_many)
register_executor("whatif_sweep", _exec_whatif)
register_executor("dag_rta", _exec_dag_rta)
register_executor("global_fp_schedulable", _exec_global_fp)
register_executor("global_rm_schedulable", _exec_global_rm)


def execute_request(req: DecodedRequest) -> Dict[str, object]:
    """Run one decoded request; return its JSON-ready response envelope.

    Module-level and envelope-returning by design: micro-batches ship
    this function to :mod:`repro.parallel.plane` workers, and every
    outcome — including analysis failures — must travel back as a
    value.
    """
    before = perf.counters() if req.want_perf else None
    t0 = time.perf_counter()
    degraded = False
    try:
        executor = _EXECUTORS.get(req.kind)
        if executor is None:  # pragma: no cover - decode rejects unknowns
            raise ValueError(f"unknown kind {req.kind!r}")
        # Tag every cache entry this request writes with its routing
        # key, so a cluster resize can re-home the entries along with
        # the requests that produced them (repro.parallel.cache).
        with result_cache.placement_scope(protocol.request_placement(req)):
            result = executor(req)
        degraded = bool(getattr(result, "degraded", False))
    except Exception as exc:  # noqa: BLE001 - outcomes travel as values
        envelope = protocol.error_envelope(exc, req.trace_id, req.kind)
        envelope["shed"] = req.shed
        perf.record("service.exec_errors")
        return envelope
    finally:
        elapsed = time.perf_counter() - t0
        perf.record("service.exec_requests")
        perf.observe("service.exec_s", elapsed)

    envelope: Dict[str, object] = {
        "ok": True,
        "trace_id": req.trace_id,
        "kind": req.kind,
        "degraded": degraded,
        "shed": req.shed,
        "elapsed_s": elapsed,
        "result": protocol.encode_result(req.kind, result),
    }
    if before is not None:
        envelope["perf"] = {
            "counters": _counter_delta(before, perf.counters())
        }
    return envelope


def run_batch(
    requests: Sequence[DecodedRequest],
    jobs: JobsLike = None,
    timeout: Optional[float] = None,
) -> List[Dict[str, object]]:
    """Execute one micro-batch on the plane; one envelope per request.

    Request-level failures are already envelopes (``execute_request``
    never raises); a settled ``("err", exc)`` outcome here is therefore
    an infrastructure failure (worker crash survived retries, result
    unpicklable) and maps to a ``worker`` error envelope.

    *timeout* is the plane's per-item watchdog allowance: a worker that
    hangs past it is killed and its item retried, so one stuck request
    cannot occupy a pool slot indefinitely (the last-resort serial
    re-execution runs under a matching deadline budget, which the
    degradation ladder turns into a sound bound for delay kinds).
    """
    outcomes = map_settled(
        execute_request, list(requests), jobs=jobs, timeout=timeout
    )
    envelopes = []
    for req, (status, out) in zip(requests, outcomes):
        if status == "ok":
            envelopes.append(out)
        else:
            envelope = protocol.error_envelope(out, req.trace_id, req.kind)
            envelope["error"]["code"] = "worker"
            envelope["shed"] = req.shed
            envelopes.append(envelope)
    return envelopes


class _Pending:
    __slots__ = ("request", "future", "enqueued_at")

    def __init__(self, request: DecodedRequest, future: asyncio.Future):
        self.request = request
        self.future = future
        self.enqueued_at = time.monotonic()


class Batcher:
    """Shared asyncio micro-batching queue in front of the plane.

    Args:
        jobs: Worker-count specification each micro-batch fans out with
            (see :func:`repro.parallel.plane.resolve_jobs`).
        max_batch: Largest micro-batch; once this many requests wait,
            dispatch is immediate.
        batch_window: Seconds the dispatcher lingers, while a batch is
            in flight, to let arrivals coalesce; with nothing in flight
            the queue is dispatched at once.
        dispatch_threads: Parallel micro-batches in flight (each runs
            ``map_settled`` in its own executor thread).
        item_timeout: Per-item plane watchdog in seconds (see
            :func:`run_batch`); None disables it.
    """

    def __init__(
        self,
        jobs: JobsLike = None,
        max_batch: int = 64,
        batch_window: float = 0.002,
        dispatch_threads: int = 2,
        metrics=None,
        item_timeout: Optional[float] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        self.jobs = jobs
        self.max_batch = max_batch
        self.batch_window = batch_window
        self.item_timeout = item_timeout
        self._metrics = metrics
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, dispatch_threads),
            thread_name_prefix="repro-dispatch",
        )
        self._queue: Deque[_Pending] = deque()
        self._inflight = 0
        self._wakeup: Optional[asyncio.Event] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._batch_tasks: set = set()
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Start the dispatcher task on the running event loop."""
        self._wakeup = asyncio.Event()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def close(self) -> None:
        """Stop dispatching and release the executor (after drain)."""
        self._closed = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        for pending in self._queue:
            if not pending.future.done():
                pending.future.cancel()
        self._queue.clear()
        self._executor.shutdown(wait=False)

    # -- submission ------------------------------------------------------

    @property
    def depth(self) -> int:
        """Queued plus in-flight request count (the admission input)."""
        return len(self._queue) + self._inflight

    def submit_nowait(self, request: DecodedRequest) -> asyncio.Future:
        """Enqueue one request; the future resolves to its envelope.

        Admission control runs *before* this — the batcher itself never
        rejects (a bounded queue with silent drops would lie to admitted
        clients).
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        future = asyncio.get_running_loop().create_future()
        self._queue.append(_Pending(request, future))
        assert self._wakeup is not None, "Batcher.start() was not called"
        self._wakeup.set()
        return future

    async def submit(self, request: DecodedRequest) -> Dict[str, object]:
        """Enqueue one request and await its response envelope."""
        return await self.submit_nowait(request)

    async def join(self, timeout: Optional[float] = None) -> bool:
        """Wait until every queued and in-flight request settled.

        Returns True on a clean drain, False when *timeout* elapsed
        first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.depth > 0:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    # -- dispatch --------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None
        while True:
            while not self._queue:
                self._wakeup.clear()
                await self._wakeup.wait()
            if (
                self._inflight
                and len(self._queue) < self.max_batch
                and self.batch_window > 0
            ):
                await asyncio.sleep(self.batch_window)
            batch = [
                self._queue.popleft()
                for _ in range(min(self.max_batch, len(self._queue)))
            ]
            if not batch:
                continue
            self._inflight += len(batch)
            if self._metrics is not None:
                self._metrics.observe_batch(len(batch))
            task = asyncio.get_running_loop().create_task(
                self._run_and_settle(batch)
            )
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _run_and_settle(self, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        requests = [p.request for p in batch]
        try:
            envelopes = await loop.run_in_executor(
                self._executor, run_batch, requests, self.jobs,
                self.item_timeout,
            )
        except Exception as exc:  # noqa: BLE001 - settle, never leak
            for pending in batch:
                if not pending.future.done():
                    envelope = protocol.error_envelope(
                        exc, pending.request.trace_id, pending.request.kind
                    )
                    envelope["error"]["code"] = "worker"
                    pending.future.set_result(envelope)
        else:
            for pending, envelope in zip(batch, envelopes):
                if not pending.future.done():
                    pending.future.set_result(envelope)
        finally:
            self._inflight -= len(batch)
