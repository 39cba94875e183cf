#!/usr/bin/env python
"""CI smoke test for the analysis service.

Boots the real ``repro serve`` CLI as a subprocess (ephemeral port,
on-disk cache), drives a mixed workload through
:class:`repro.service.ServiceClient` — typed single requests, a mixed
batch, a forced-degraded request, a malformed request — asserts the
``/healthz`` and ``/metrics`` schemas and that requests shared kept-alive
connections, then sends SIGTERM with a pooled client connection still
open and verifies the graceful drain.

Run from the repository root::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.curves.service import rate_latency_service  # noqa: E402
from repro.drt.model import DRTTask  # noqa: E402
from repro.resilience import bounded_delay  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

BOOT_TIMEOUT_S = 30
DRAIN_TIMEOUT_S = 60


def _tasks():
    demo = DRTTask.build(
        "demo",
        jobs={"a": (1, 5), "b": (3, 8), "c": (2, 10)},
        edges=[("a", "b", 10), ("b", "c", 8), ("c", "a", 12), ("a", "a", 5)],
    )
    loop = DRTTask.build("loop", jobs={"x": (2, 10)}, edges=[("x", "x", 10)])
    # Heavy enough (tens of milliseconds exact) that a 1 ms wall-clock
    # deadline is infeasible and must force sound degradation.
    heavy = DRTTask.build(
        "heavy",
        jobs={f"v{i}": (2, 60 + i) for i in range(6)},
        edges=[(f"v{i}", f"v{(i + 1) % 6}", 5) for i in range(6)]
        + [(f"v{i}", f"v{i}", 7) for i in range(6)],
    )
    return demo, loop, heavy


def _boot(cache_dir: str) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.setdefault("PYTHONUNBUFFERED", "1")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--jobs",
            "2",
            "--item-timeout-s",
            "30",
            "--cache-dir",
            cache_dir,
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    line = proc.stdout.readline()
    if time.monotonic() > deadline or not line:
        proc.kill()
        raise SystemExit(f"service did not boot: {line!r}")
    match = re.search(r"listening on [\d.]+:(\d+)", line)
    if not match:
        proc.kill()
        raise SystemExit(f"unexpected boot line: {line!r}")
    print(f"booted: {line.strip()}")
    return proc, int(match.group(1))


def _check_metrics(doc: dict) -> None:
    for section in ("service", "requests", "endpoints", "queue", "batches",
                    "cache", "perf"):
        assert section in doc, f"/metrics missing section {section!r}"
    assert doc["batches"]["dispatched"] >= 1, doc["batches"]
    assert doc["batches"]["items"] >= 1, doc["batches"]
    assert doc["requests"]["requests_total"] >= 1, doc["requests"]
    # Persistent connections: the workload's requests shared fewer
    # connections than there were requests.
    assert (
        doc["requests"]["requests_total"]
        > doc["requests"]["connections_accepted"]
    ), doc["requests"]
    assert doc["requests"]["degraded"] >= 1, doc["requests"]
    assert doc["queue"]["max"] >= 1, doc["queue"]
    assert any(
        endpoint.startswith("POST /v1/")
        for endpoint in doc["endpoints"]
    ), doc["endpoints"]


def main() -> int:
    demo, loop, heavy = _tasks()
    beta = rate_latency_service(F(1, 2), F(2))
    beta_heavy = rate_latency_service(F(1, 2), F(20))
    exact = bounded_delay(demo, beta)

    with tempfile.TemporaryDirectory(prefix="repro-smoke-cache-") as cache:
        proc, port = _boot(cache)
        try:
            client = ServiceClient(port=port, timeout=120.0)

            health = client.healthz()
            assert health["status"] == "ok", health

            # Typed single requests, bit-identical to the direct call.
            served = client.delay(demo, beta)
            assert served.delay == exact.delay, (served, exact)
            verdict = client.sp_schedulable([demo, loop], beta)
            assert verdict.schedulable in (True, False)
            print("single requests: ok")

            # A mixed batch: delay, analyze_many, two forced-degraded
            # requests (zero expansion allowance; an infeasible 1 ms
            # wall-clock deadline on a heavy task), and one malformed
            # request that must fail alone with a typed error.
            specs = [
                ServiceClient.build_request("delay", demo, beta),
                ServiceClient.build_request("analyze_many", [demo, loop], beta),
                ServiceClient.build_request(
                    "delay", loop, beta, max_expansions=0
                ),
                ServiceClient.build_request(
                    "delay", heavy, beta_heavy, deadline_ms=1
                ),
                {"kind": "delay", "tasks": [], "beta": {"rate": "1"}},
            ]
            envelopes = client.batch(specs)
            assert len(envelopes) == 5, envelopes
            assert envelopes[0]["ok"] and not envelopes[0]["degraded"]
            assert envelopes[1]["ok"], envelopes[1]
            assert envelopes[2]["ok"] and envelopes[2]["degraded"], (
                "max_expansions=0 must yield a sound degraded bound"
            )
            assert envelopes[3]["ok"] and envelopes[3]["degraded"], (
                "an infeasible deadline_ms must yield a sound degraded "
                "bound, not an error"
            )
            assert not envelopes[4]["ok"], envelopes[4]
            assert envelopes[4]["error"]["code"] in (
                "bad_request", "validation"
            ), envelopes[4]
            for env in envelopes:
                assert env.get("trace_id"), env
            print("mixed batch: ok (degraded request tagged, "
                  "malformed failed alone)")

            status, headers, payload = client.request("GET", "/metrics")
            assert status == 200, status
            _check_metrics(json.loads(payload))
            # The connection that carried /metrics stays in the client's
            # pool, open across the drain below.
            assert headers.get("connection") == "keep-alive", headers
            print("metrics schema: ok (connections reused)")

            # Graceful drain on SIGTERM, with a pooled connection open.
            # Wait on the process, not the pipe: plane worker processes
            # inherit stdout, so pipe EOF can lag their teardown.
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=DRAIN_TIMEOUT_S)
            out = proc.stdout.read()
            assert proc.returncode == 0, (proc.returncode, out)
            assert "drained and stopped" in out, out
            print("SIGTERM drain: ok")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()

    print("service smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
