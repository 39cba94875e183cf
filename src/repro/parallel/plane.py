"""Process-level execution plane for fan-out analyses.

The analyses the experiments run in bulk — per-task verdicts inside an
SP/EDF set, per-instance points of an acceptance or sensitivity sweep,
independent flows through component chains — are embarrassingly parallel
and operate on pickle-safe values (tasks, curves, result dataclasses).
This module owns the one process pool everything in :mod:`repro` fans
out through:

* **Worker count resolution** (:func:`resolve_jobs`): an explicit
  ``jobs=`` keyword beats the process default installed by
  :func:`set_default_jobs` (the CLI's ``--jobs``), which beats the
  ``REPRO_JOBS`` environment variable, which beats the serial default of
  1.  ``"auto"`` means one worker per CPU.  Inside a worker process the
  resolution is pinned to 1, so library code can pass ``jobs=None``
  everywhere without ever nesting pools.

* **Deterministic fan-out** (:func:`parallel_map`): results keep item
  order; when any job raises, the exception of the *earliest item in
  submission order* is re-raised in the parent — exactly the exception a
  sequential run would have surfaced first.  Combined with the engine's
  exact arithmetic this makes ``jobs=N`` runs bit-identical to
  ``jobs=1`` runs: same Fractions, same witnesses, same exceptions.

* **Configuration mirroring**: each job carries the parent's resolved
  persistent-cache and chaos configuration, applied in the worker before
  the job body runs — a long-lived pool never acts on stale settings.

* **Perf truthfulness**: workers snapshot their
  :class:`~repro.perf.PerfRegistry` per job; the parent merges every
  snapshot (:func:`repro.perf.merge`), so ``perf.report()`` accounts for
  work wherever it ran.

* **Cache isolation** (``fresh_caches=True``): process-local derived
  state — every registered process memo and the in-memory result
  cache (:func:`reset_process_caches`) — is reset before each job, so
  sweep instances cannot leak exploration state into one another even
  when a worker process serves many instances.  The persistent on-disk
  result cache is *not* cleared: it is content-addressed and exact, so
  sharing it is sound by construction.

* **Watchdog**: with ``timeout=`` each item gets a wall-clock allowance
  in the pool; hung workers are killed (a stuck process never returns to
  ``shutdown``), crashed workers are detected through the broken pool,
  and the affected items are retried on a fresh pool with exponential
  backoff (``parallel.worker_retries``).  Items that keep failing are
  re-executed serially in the parent under a budget —
  the caller's ``budget=`` or, for timed maps, a deadline budget derived
  from ``timeout`` — so a cooperative job body degrades or raises a
  typed error instead of hanging the parent.  Because job-body
  exceptions travel as *values* (``("err", exc)``), any exception a
  future *raises* is infrastructure by construction; the two failure
  planes cannot be confused.

The pool is created lazily, kept for the life of the process (pool
startup would otherwise dominate small fan-outs) and torn down atexit;
a worker whose parent dies without that teardown exits on its own
within :data:`PARENT_POLL_S`.
Environments that cannot fork (restricted sandboxes) degrade to the
serial path transparently — with a :class:`RuntimeWarning` and a
``parallel.pool_degraded`` perf counter, so a silent loss of parallelism
cannot masquerade as a slow machine.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro import perf
from repro._memo import clear_process_memos
from repro.errors import BudgetExhaustedError, WorkerError
from repro.parallel import cache as result_cache
from repro.resilience import chaos
from repro.resilience.budget import Budget, budget_scope

__all__ = [
    "resolve_jobs",
    "set_default_jobs",
    "parallel_map",
    "map_settled",
    "reset_process_caches",
]

#: Pool attempts per item before the serial in-parent fallback.
MAX_ATTEMPTS = 3

#: Base of the exponential backoff between retry rounds (seconds).
BACKOFF_BASE = 0.05

#: Allowance for draining the remaining futures of a round once one
#: item timed out (the pool is wedged and about to be killed anyway).
POISONED_GRACE = 0.1

#: Seconds between a pool worker's checks that its parent is alive.
PARENT_POLL_S = 0.5

JobsLike = Union[None, int, str]

#: True in pool worker processes (set by the pool initializer); forces
#: every nested resolve_jobs() to 1 so pools never nest.
_in_worker = False

#: Process default installed by set_default_jobs() (the CLI's --jobs).
_default_jobs: Optional[int] = None

#: Lazily created executors, one per worker count.
_pools: Dict[int, ProcessPoolExecutor] = {}


def _parse_jobs(value: Union[int, str]) -> int:
    """Normalize a jobs specification to a concrete worker count."""
    if isinstance(value, str):
        if value.strip().lower() == "auto":
            return os.cpu_count() or 1
        try:
            value = int(value)
        except ValueError:
            raise ValueError(
                f"invalid jobs value {value!r}; expected a positive "
                "integer or 'auto'"
            ) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"invalid jobs value {value!r}")
    if value < 1:
        raise ValueError(f"jobs must be >= 1, got {value}")
    return value


def set_default_jobs(jobs: JobsLike) -> None:
    """Install a process-wide default worker count (``None`` clears it)."""
    global _default_jobs
    _default_jobs = None if jobs is None else _parse_jobs(jobs)


def resolve_jobs(jobs: JobsLike = None, n_items: Optional[int] = None) -> int:
    """The effective worker count for one fan-out.

    Resolution order: explicit *jobs* argument, :func:`set_default_jobs`
    default, ``REPRO_JOBS`` environment variable, serial (1).  The
    result is capped by *n_items* when given (no idle workers) and is
    always 1 inside a pool worker.
    """
    if _in_worker:
        return 1
    if jobs is not None:
        n = _parse_jobs(jobs)
    elif _default_jobs is not None:
        n = _default_jobs
    else:
        env = os.environ.get("REPRO_JOBS")
        n = _parse_jobs(env) if env else 1
    if n_items is not None:
        n = max(1, min(n, n_items))
    return n


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------


def _mark_worker(parent: int) -> None:
    """Pool initializer: pin nested fan-outs in this process to serial,
    and exit once *parent*, the process that built the pool, is gone."""
    global _in_worker
    _in_worker = True
    threading.Thread(
        target=_exit_with_parent, args=(parent,), daemon=True
    ).start()


def _exit_with_parent(parent: int) -> None:
    """Exit this worker once it is orphaned (its parent pid changes).

    A parent that dies without shutting the pool down (SIGKILL, a crash)
    would otherwise leave its idle workers blocked for ever on the call
    queue.  Polling ``getppid`` needs no machine setting, and unlike
    ``PR_SET_PDEATHSIG`` it does not fire when the thread that forked
    the worker exits while the parent lives on.
    """
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(0)


def reset_process_caches() -> None:
    """Clear process-local derived-state caches (job isolation).

    Empties every registered process memo
    (:func:`repro._memo.clear_process_memos`) and the in-memory
    result-cache fallback.  Analyses afterwards behave exactly as in a
    fresh process: same results (the caches are semantically
    transparent), cold costs.
    """
    clear_process_memos()
    result_cache.clear_memory()


class _Unpicklable:
    """Chaos payload: a result the worker cannot pickle back."""

    def __reduce__(self):
        raise RuntimeError("chaos: injected unpicklable job result")


def _run_job(payload):
    """Execute one job in a worker: apply config, run, snapshot perf.

    Returns ``(status, result_or_exception, perf_snapshot)`` so the
    parent can merge instrumentation and re-raise deterministically.
    Exceptions raised by the job body are *returned*, never raised —
    anything this future raises in the parent is infrastructure
    (crashed worker, hung worker, unpicklable result).
    """
    (
        fn,
        item,
        cache_config,
        fresh,
        chaos_config,
        chaos_key,
    ) = payload
    result_cache.apply_config(cache_config)
    chaos.apply_config(chaos_config)
    # Injected worker faults, keyed by (item index, attempt) so a retry
    # draws a fresh decision — injected faults are transient, like the
    # real ones they model.
    if chaos.should_fire("worker.crash", key=chaos_key):
        os._exit(17)
    if chaos.should_fire("worker.hang", key=chaos_key):
        time.sleep(chaos.HANG_SECONDS)
    if fresh:
        reset_process_caches()
    perf.reset()
    try:
        result = fn(item)
    except Exception as exc:
        return ("err", exc, perf.snapshot())
    if chaos.should_fire("worker.pickle", key=chaos_key):
        return ("ok", _Unpicklable(), perf.snapshot())
    return ("ok", result, perf.snapshot())


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _serial_map(fn: Callable, items: Sequence, fresh_caches: bool) -> List:
    out = []
    for item in items:
        if fresh_caches:
            reset_process_caches()
        out.append(fn(item))
    return out


def _get_pool(n: int) -> ProcessPoolExecutor:
    pool = _pools.get(n)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=n, initializer=_mark_worker, initargs=(os.getpid(),)
        )
        _pools[n] = pool
    return pool


def _drop_pool(n: int) -> None:
    pool = _pools.pop(n, None)
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def _kill_pool(n: int) -> None:
    """Forcefully tear down a pool that may hold hung workers.

    ``shutdown`` alone never returns a stuck worker process, so the
    watchdog terminates the processes first and only then shuts the
    executor machinery down.
    """
    pool = _pools.pop(n, None)
    if pool is None:
        return
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


@atexit.register
def _shutdown_pools() -> None:
    for n in list(_pools):
        _drop_pool(n)


def _degrade_to_serial(fn, items, fresh_caches, cause: Exception) -> List:
    """Pool-level serial fallback: loud, counted, then transparent.

    The warning names the originating exception (type and message) and
    carries it as the warning's ``__cause__``, so an operator can tell a
    genuinely restricted sandbox (``PermissionError`` from fork) from a
    misconfigured or crashed pool (``BrokenProcessPool``) straight from
    the log line — or programmatically from
    ``warning.message.__cause__``.
    """
    perf.record("parallel.pool_degraded")
    warning = RuntimeWarning(
        f"process pool unavailable ({type(cause).__name__}: {cause}); "
        "falling back to serial execution — parallel speedup is lost "
        "for this call"
    )
    warning.__cause__ = cause
    warnings.warn(warning, stacklevel=3)
    return _serial_map(fn, items, fresh_caches)


def parallel_map(
    fn: Callable,
    items: Sequence,
    jobs: JobsLike = None,
    fresh_caches: bool = False,
    timeout: Optional[float] = None,
    budget: Optional[Budget] = None,
) -> List:
    """``[fn(item) for item in items]`` across worker processes.

    Args:
        fn: A module-level (pickle-safe) function of one item.
        items: Pickle-safe work items; results keep their order.
        jobs: Worker count (see :func:`resolve_jobs`); 1 runs the plain
            serial loop in-process.
        fresh_caches: Reset process-local caches before every job —
            the per-instance isolation guarantee benchmark sweeps rely
            on (see :func:`reset_process_caches`).
        timeout: Per-item wall-clock allowance in seconds.  An item
            whose future does not complete in time has its pool killed
            (hung workers never exit on their own) and is retried —
            :data:`MAX_ATTEMPTS` pool attempts with exponential backoff,
            then one serial in-parent re-execution.
        budget: Budget for the serial re-execution of items whose pool
            attempts all failed (the watchdog's last resort).  Defaults
            to a deadline budget derived from *timeout*, so a
            cooperative job body is cut off by its checkpoints instead
            of hanging the parent.  The normal pool/serial paths are
            *not* metered by this — per-item budgets belong inside *fn*
            (see :func:`repro.resilience.bounded_delay_many`).

    Raises:
        The exception of the earliest failing item in submission order —
        the same exception a sequential run raises first.  Perf
        snapshots of *all* jobs (including failed ones) are merged into
        the parent registry before raising.  :class:`WorkerError` only
        when an item could not be completed by the pool *and* its serial
        re-execution was cut off by the watchdog deadline.
    """
    items = list(items)
    n = resolve_jobs(jobs, n_items=len(items))
    if n <= 1 or len(items) <= 1:
        return _serial_map(fn, items, fresh_caches)
    cache_config = result_cache.current_config()
    chaos_config = chaos.current_config()

    def payload(i: int, attempt: int):
        return (
            fn,
            items[i],
            cache_config,
            fresh_caches,
            chaos_config,
            (i, attempt),
        )

    outcomes: List = [None] * len(items)
    pending = list(range(len(items)))
    for attempt in range(MAX_ATTEMPTS):
        if attempt:
            perf.record("parallel.worker_retries", len(pending))
            time.sleep(BACKOFF_BASE * (2 ** (attempt - 1)))
        try:
            pool = _get_pool(n)
            futures = {
                i: pool.submit(_run_job, payload(i, attempt))
                for i in pending
            }
        except (OSError, PermissionError, BrokenProcessPool) as exc:
            # Pool could not start (restricted sandbox, fork failure):
            # nothing to retry against — degrade the whole call.
            _drop_pool(n)
            return _degrade_to_serial(fn, items, fresh_caches, exc)
        failed: List[int] = []
        poisoned = False
        for i in pending:
            # Once one item has timed out the pool is presumed wedged
            # and will be killed after this round: draining the rest
            # with the full per-item allowance each would serialize to
            # O(n * timeout).  They get a short grace (enough to
            # collect already-finished results) and a fresh allowance
            # on retry.
            allowance = timeout
            if poisoned and timeout is not None:
                allowance = min(timeout, POISONED_GRACE)
            try:
                status, out, snap = futures[i].result(timeout=allowance)
            except (_FuturesTimeout, TimeoutError):
                perf.record("parallel.item_timeouts")
                failed.append(i)
                poisoned = True  # a hung worker still occupies the pool
            except BrokenProcessPool:
                failed.append(i)
                poisoned = True
            except Exception:
                # The job body cannot raise here (its exceptions travel
                # as values): this is a result that failed to unpickle.
                failed.append(i)
            else:
                perf.merge(snap)
                outcomes[i] = (status, out)
        if poisoned:
            _kill_pool(n)
        pending = failed
        if not pending:
            break
    if pending:
        # Last resort: serial in-parent re-execution under a budget, so
        # even a persistently hanging cooperative body terminates.
        effective = budget
        if effective is None and timeout is not None:
            effective = Budget(deadline=timeout)
        for i in pending:
            if fresh_caches:
                reset_process_caches()
            try:
                with budget_scope(effective):
                    outcomes[i] = ("ok", fn(items[i]))
            except BudgetExhaustedError as exc:
                if budget is None:
                    raise WorkerError(
                        f"item {i} failed {MAX_ATTEMPTS} pool attempts "
                        f"and exceeded the {timeout}s watchdog deadline "
                        "when re-executed serially"
                    ) from exc
                outcomes[i] = ("err", exc)
            except Exception as exc:
                outcomes[i] = ("err", exc)
    perf.record("plane.jobs", len(outcomes))
    for status, out in outcomes:
        if status == "err":
            raise out
    return [out for _, out in outcomes]


# ----------------------------------------------------------------------
# Settled fan-out (batch servers)
# ----------------------------------------------------------------------


def _settled_job(pair):
    """Run one wrapped job, returning its outcome as a value.

    Module-level so the pair ``(fn, item)`` ships to pool workers like
    any other payload; *fn* itself must still be pickle-safe.
    """
    fn, item = pair
    try:
        return ("ok", fn(item))
    except Exception as exc:  # noqa: BLE001 - outcomes travel as values
        return ("err", exc)


def map_settled(
    fn: Callable,
    items: Sequence,
    jobs: JobsLike = None,
    fresh_caches: bool = False,
    timeout: Optional[float] = None,
    budget: Optional[Budget] = None,
) -> List:
    """:func:`parallel_map` that settles every item instead of raising.

    Returns one ``("ok", result)`` or ``("err", exception)`` pair per
    item, in item order.  This is the batch-server entry point: one
    malformed or unbounded request must fail *alone*, not poison the
    whole micro-batch it was coalesced into — whereas
    :func:`parallel_map` deliberately reproduces serial semantics by
    re-raising the earliest failure.

    Infrastructure failures keep their :func:`parallel_map` semantics:
    a pool that cannot complete an item even after retries and the
    serial fallback still raises :class:`~repro.errors.WorkerError` —
    an operator problem, not a per-request one.
    """
    pairs = [(fn, item) for item in items]
    return parallel_map(
        _settled_job,
        pairs,
        jobs=jobs,
        fresh_caches=fresh_caches,
        timeout=timeout,
        budget=budget,
    )
