"""Client -> server requests under fault injection stay sound.

Satellite of the service PR: the full HTTP path (client, admission,
batcher, plane fan-out, persistent cache) runs with
:mod:`repro.resilience.chaos` injecting worker crashes and cache
corruption, and every envelope that comes back must be one of

* a *bit-identical* result (transparent recovery: crash retried,
  corrupt entry evicted and recomputed),
* a *sound degraded* bound (``ok`` with ``degraded: true`` and a delay
  >= the exact one), or
* a *typed error* envelope (``worker`` after exhausted retries) —

never an unsound bound, a hang, or a raw traceback over the wire.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from repro.curves.service import rate_latency_service
from repro.drt.model import DRTTask
from repro.parallel import cache as result_cache
from repro.resilience import bounded_delay, chaos
from repro.service import (
    ServerHandle,
    ServiceClient,
    ServiceConfig,
    decode_result,
)

pytestmark = pytest.mark.usefixtures("no_orphaned_servers")

KNOWN_ERROR_CODES = {
    "worker",
    "validation",
    "unbounded",
    "budget_exhausted",
    "bad_request",
    "analysis_error",
    "internal",
}


def _beta():
    return rate_latency_service(F(1, 2), F(2))


def _tasks():
    return [
        DRTTask.build(
            "demo",
            jobs={"a": (1, 5), "b": (3, 8), "c": (2, 10)},
            edges=[
                ("a", "b", 10),
                ("b", "c", 8),
                ("c", "a", 12),
                ("a", "a", 5),
            ],
        ),
        DRTTask.build("loop", jobs={"x": (2, 10)}, edges=[("x", "x", 10)]),
    ]


def _assert_envelopes_sound(envelopes, exact_by_task, tasks):
    """Every envelope: bit-identical, sound-degraded, or typed error."""
    assert envelopes, "no envelopes returned"
    ok_count = 0
    for i, env in enumerate(envelopes):
        exact = exact_by_task[tasks[i % len(tasks)].name]
        if env["ok"]:
            ok_count += 1
            result = decode_result("delay", env["result"])
            assert result.delay >= exact.delay, (
                f"unsound served bound {result.delay} < exact {exact.delay}"
            )
            if not env["degraded"]:
                # An undegraded answer must be the exact one.
                assert result.delay == exact.delay
                assert result.busy_window == exact.busy_window
            else:
                assert result.degraded
        else:
            assert env["error"]["code"] in KNOWN_ERROR_CODES, env
            assert env["trace_id"]
    return ok_count


@pytest.mark.parametrize(
    "sites",
    [
        {"worker.crash": 0.4},
        {"cache.corrupt": 0.6},
        {"worker.crash": 0.3, "cache.corrupt": 0.5},
    ],
    ids=["worker-crash", "cache-corrupt", "mixed"],
)
def test_served_bounds_sound_under_chaos(tmp_path, sites):
    tasks = _tasks()
    beta = _beta()
    exact = {t.name: bounded_delay(t, beta) for t in tasks}

    saved = result_cache.current_config()
    result_cache.configure(str(tmp_path / "rcache"))
    try:
        # chaos.scoped installs a process-global config; the server
        # thread and its dispatchers ship it to plane workers exactly
        # like production REPRO_CHAOS would.
        with chaos.scoped(seed=1234, sites=sites):
            handle = ServerHandle.start(
                ServiceConfig(port=0, jobs=2, batch_window_ms=2.0)
            )
            try:
                client = ServiceClient(port=handle.port, timeout=300.0)
                specs = [
                    ServiceClient.build_request(
                        "delay", tasks[i % len(tasks)], beta
                    )
                    for i in range(16)
                ]
                envelopes = client.batch(specs)
                assert len(envelopes) == 16
                ok_count = _assert_envelopes_sound(envelopes, exact, tasks)
                # Injection is transient per (item, attempt): retries
                # and corrupt-entry eviction recover most requests.
                assert ok_count >= 8
            finally:
                handle.shutdown()
    finally:
        result_cache.apply_config(saved)


def test_degraded_request_stays_sound_under_chaos(tmp_path):
    """A budget-carrying request under chaos degrades soundly, tagged."""
    tasks = _tasks()
    beta = _beta()
    exact = {t.name: bounded_delay(t, beta) for t in tasks}

    saved = result_cache.current_config()
    result_cache.configure(str(tmp_path / "rcache"))
    try:
        with chaos.scoped(seed=7, sites={"cache.corrupt": 0.5}):
            handle = ServerHandle.start(
                ServiceConfig(port=0, jobs=2, batch_window_ms=2.0)
            )
            try:
                client = ServiceClient(port=handle.port, timeout=300.0)
                specs = [
                    ServiceClient.build_request(
                        "delay",
                        tasks[i % len(tasks)],
                        beta,
                        # Zero expansion allowance forces the degraded
                        # ladder even when chaos spares the request.
                        max_expansions=0,
                    )
                    for i in range(8)
                ]
                envelopes = client.batch(specs)
                for i, env in enumerate(envelopes):
                    assert env["ok"], env
                    assert env["degraded"] is True
                    result = decode_result("delay", env["result"])
                    task_exact = exact[tasks[i % len(tasks)].name]
                    assert result.degraded
                    assert result.delay >= task_exact.delay
            finally:
                handle.shutdown()
    finally:
        result_cache.apply_config(saved)


def test_chaos_restores_cleanly_after_service_run(demo_task):
    """The scoped chaos config never leaks past a server lifecycle."""
    beta = _beta()
    ambient_before = chaos.is_active()
    with chaos.scoped(seed=3, sites={"worker.crash": 0.3}):
        handle = ServerHandle.start(
            ServiceConfig(port=0, jobs=2, batch_window_ms=1.0)
        )
        try:
            client = ServiceClient(port=handle.port, timeout=300.0)
            client.batch(
                [
                    ServiceClient.build_request("delay", demo_task, beta)
                    for _ in range(4)
                ]
            )
        finally:
            handle.shutdown()
    # scoped() must restore whatever was ambient before (off in a
    # plain run; the REPRO_CHAOS config in the chaos CI job).
    assert chaos.is_active() == ambient_before
    # And an injection-free server afterwards serves exact results
    # (ambient chaos is masked here: exactness is not a chaos
    # invariant — a retry-exhausted request may settle as an error).
    saved = chaos.current_config()
    chaos.apply_config(None)
    handle = ServerHandle.start(
        ServiceConfig(port=0, jobs=2, item_timeout_s=10.0)
    )
    try:
        client = ServiceClient(port=handle.port, timeout=300.0)
        served = client.delay(demo_task, beta)
        assert served.delay == bounded_delay(demo_task, beta).delay
    finally:
        handle.shutdown()
        chaos.apply_config(saved)
