"""Benchmark of the analysis service: batched vs per-request dispatch.

Boots a real :class:`repro.service.ServerHandle` (asyncio HTTP server in
a daemon thread) over an on-disk result cache and measures the same
mixed ``delay`` workload through its two dispatch shapes:

* **naive per-request**: one ``POST /v1/analyze`` round-trip per
  request, sequentially, on one kept-alive connection — every request
  pays its own HTTP exchange and its own micro-batch dispatch onto the
  parallel plane (a lone request is dispatched at once, with no
  coalescing window);
* **batched**: one ``POST /v1/batch`` carrying the whole workload —
  one HTTP exchange, one micro-batch, one plane fan-out sharing the
  warm cache.

Both modes run against a **warm** cache (a cold priming pass populates
it first), so the measured gap is dispatch overhead.  Both modes must
return bit-identical decoded bounds.

Gates (smoke and full), on what batching must deliver:

* each warm ``/v1/batch`` pass of N items dispatches at most
  ceil(N / ``max_batch``) micro-batches (the ``batches.dispatched``
  delta of ``/metrics``);
* warm batched throughput is at least warm per-request throughput.

The ratio of the two throughputs is recorded, not gated: it used to
measure mostly the window and the connect each lone request paid.

Smoke mode (``REPRO_BENCH_SMOKE=1``, the CI job) runs a reduced request
count and does not rewrite the committed JSON.
"""

import os
import shutil
import tempfile
import time
from fractions import Fraction as F

from repro.curves.service import rate_latency_service
from repro.drt.model import DRTTask
from repro.parallel import cache as result_cache
from repro.service import ServerHandle, ServiceClient, ServiceConfig, decode_result

from _harness import report, write_json

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
N_REQUESTS = 48 if SMOKE else 96
N_TASKS = 8
REPEATS = 2
MAX_BATCH = 128
JOBS = 2


def _tasks():
    """Distinct small DRT tasks (distinct cache keys per request mix)."""
    tasks = []
    for k in range(N_TASKS):
        tasks.append(
            DRTTask.build(
                f"bench{k}",
                jobs={"a": (1, 5 + k), "b": (2 + k % 3, 9 + k), "c": (2, 12)},
                edges=[
                    ("a", "b", 10 + k),
                    ("b", "c", 8 + k),
                    ("c", "a", 14),
                    ("a", "a", 6 + k),
                ],
            )
        )
    return tasks


def _specs(tasks, beta):
    return [
        ServiceClient.build_request("delay", tasks[i % len(tasks)], beta)
        for i in range(N_REQUESTS)
    ]


def _decoded(envelopes):
    for env in envelopes:
        assert env["ok"], env
    return [decode_result("delay", env["result"]) for env in envelopes]


def _naive(client, specs):
    t0 = time.perf_counter()
    envelopes = [client.analyze_raw(spec) for spec in specs]
    return time.perf_counter() - t0, _decoded(envelopes)


def _batched(client, specs):
    """One timed batch pass; also returns the micro-batches it made."""
    before = client.metrics()["batches"]["dispatched"]
    t0 = time.perf_counter()
    envelopes = client.batch(specs)
    elapsed = time.perf_counter() - t0
    dispatched = client.metrics()["batches"]["dispatched"] - before
    return elapsed, _decoded(envelopes), dispatched


def test_bench_service_batching():
    """A warm batch coalesces into ceil(N / max_batch) micro-batches and
    is at least as fast per request as N single requests."""
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-service-")
    saved = result_cache.current_config()
    assert result_cache.configure(cache_dir), "bench cache dir must be usable"
    # A max_batch that takes the whole workload in one micro-batch.
    handle = ServerHandle.start(
        ServiceConfig(
            port=0,
            jobs=JOBS,
            batch_window_ms=5.0,
            max_batch=MAX_BATCH,
            item_timeout_s=30.0,
        )
    )
    try:
        client = ServiceClient(port=handle.port, timeout=300.0)
        beta = rate_latency_service(F(1, 2), F(2))
        specs = _specs(_tasks(), beta)

        # Cold priming pass: populate the on-disk cache once so both
        # timed modes below measure dispatch overhead, not analysis.
        t0 = time.perf_counter()
        baseline = _decoded(client.batch(specs))
        t_cold = time.perf_counter() - t0

        t_naive, t_batch = None, None
        dispatched = []
        for _ in range(REPEATS):
            dt, results = _naive(client, specs)
            assert results == baseline, "naive mode changed a bound"
            t_naive = dt if t_naive is None else min(t_naive, dt)
            dt, results, made = _batched(client, specs)
            assert results == baseline, "batched mode changed a bound"
            t_batch = dt if t_batch is None else min(t_batch, dt)
            dispatched.append(made)

        doc = client.metrics()
    finally:
        handle.shutdown()
        result_cache.apply_config(saved)
        shutil.rmtree(cache_dir, ignore_errors=True)

    speedup = t_naive / t_batch
    max_batches = -(-N_REQUESTS // MAX_BATCH)
    stats = {
        "requests": N_REQUESTS,
        "distinct_tasks": N_TASKS,
        "jobs": JOBS,
        "cold_batch_s": t_cold,
        "warm_naive_s": t_naive,
        "warm_batched_s": t_batch,
        "naive_rps": N_REQUESTS / t_naive,
        "batched_rps": N_REQUESTS / t_batch,
        "batched_speedup": speedup,
        "cache_hits": doc["cache"]["hits"],
        "batches_dispatched": doc["batches"]["dispatched"],
        "warm_batch_pass_dispatched": dispatched,
        "mean_batch_size": doc["batches"]["mean_size"],
        "bit_identical": True,
    }

    report(
        "service",
        "analysis service: warm-cache dispatch shapes (identical bounds)",
        ["mode", "requests", "wall s", "req/s"],
        [
            ["cold batch", N_REQUESTS, t_cold, N_REQUESTS / t_cold],
            ["warm per-request", N_REQUESTS, t_naive, stats["naive_rps"]],
            ["warm batched", N_REQUESTS, t_batch, stats["batched_rps"]],
        ],
    )

    assert doc["cache"]["hits"] > 0, "warm modes must hit the result cache"
    assert max(dispatched) <= max_batches, (
        f"a warm batch of {N_REQUESTS} made {dispatched} micro-batches "
        f"(at most {max_batches} allowed with max_batch={MAX_BATCH})"
    )
    assert stats["batched_rps"] >= stats["naive_rps"], (
        f"warm batched {stats['batched_rps']:.0f} req/s < warm "
        f"per-request {stats['naive_rps']:.0f} req/s"
    )
    if SMOKE:
        return
    write_json(
        "service",
        {
            "experiment": "service_batching",
            "cpu_count": os.cpu_count(),
            "gates": {
                "max_micro_batches_per_warm_batch": max_batches,
                "batched_rps_at_least_naive_rps": True,
            },
            "results": stats,
        },
    )
