#!/usr/bin/env python
"""CI smoke test for the sharded analysis cluster.

Boots the real ``repro cluster`` CLI as a subprocess (coordinator plus
two spawned ``repro serve`` workers, ephemeral ports, partitioned
on-disk caches), drives a mixed workload through
:class:`repro.service.ServiceClient` — typed singles across kinds, a
sharded batch, a what-if sweep split across owners, a malformed
request — asserts digest-affinity (repeat requests land on the same
worker), the ``/healthz`` fleet view, the ``/metrics`` rollup schema
and connection reuse on both hops, then sends SIGTERM with a pooled
client connection still open and verifies the whole fleet drains.

Run from the repository root::

    PYTHONPATH=src python tools/cluster_smoke.py

``--soak`` switches to the gray-failure chaos soak: the fleet boots
with ambient ``REPRO_CHAOS`` over the cluster fault sites
(``cluster.partition``, ``cluster.slow_worker``,
``cluster.coordinator_crash``, ``cluster.migration_torn_write``), a
mixed workload runs for several rounds with a planned resize
(add-worker, then remove-worker) in the middle, and **every** response
is classified as bit-identical to the fault-free run, a soundly
degraded result (``degraded: true`` with a bound at or above the exact
answer), or a typed error — never a hang, a wrong answer, or a silent
partial.  Stall injection is time-boxed through ``REPRO_CHAOS_HANG_S``
so a CI lane cannot wedge::

    PYTHONPATH=src REPRO_CHAOS_HANG_S=2 python tools/cluster_smoke.py \
        --soak --seed 7
"""

from __future__ import annotations

import argparse
import http.client
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

from repro.core.facade import analyze_many  # noqa: E402
from repro.curves.service import rate_latency_service  # noqa: E402
from repro.drt.model import DRTTask  # noqa: E402
from repro.resilience import bounded_delay  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service import protocol  # noqa: E402
from repro.whatif import whatif_sweep  # noqa: E402
from repro.whatif.edits import SetWcet  # noqa: E402

BOOT_TIMEOUT_S = 60
DRAIN_TIMEOUT_S = 90


def _task(seed: int) -> DRTTask:
    jobs = {f"v{i}": (1 + (seed + i) % 3, 8 + (seed * 3 + i) % 9)
            for i in range(3)}
    names = list(jobs)
    edges = [(a, b, 6 + (seed + i) % 7)
             for i, (a, b) in enumerate(zip(names, names[1:] + names[:1]))]
    return DRTTask.build(f"t{seed}", jobs=jobs, edges=edges)


def _boot(cache_dir: str, extra_env: dict = None) -> tuple:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.setdefault("PYTHONUNBUFFERED", "1")
    if extra_env:
        env.update(extra_env)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "cluster",
            "--port",
            "0",
            "--workers",
            "2",
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
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if "repro cluster: listening" in line:
            break
    match = re.search(r"listening on [\w.\-]+:(\d+)", line or "")
    if not match:
        proc.kill()
        raise SystemExit(f"cluster did not boot: {line!r}")
    print(f"booted: {line.strip()}")
    return proc, int(match.group(1))


def _check_rollup(doc: dict) -> None:
    for section in ("cluster", "coordinator", "workers", "rollup"):
        assert section in doc, f"/metrics missing section {section!r}"
    ring = doc["cluster"]["ring"]
    assert ring["workers"] == ["w0", "w1"], ring
    assert len(doc["workers"]) == 2, list(doc["workers"])
    rollup = doc["rollup"]
    assert rollup["requests"]["requests_total"] >= 1, rollup
    analyze = rollup["endpoints"].get("POST /v1/analyze")
    assert analyze and analyze["count"] >= 1, rollup["endpoints"]
    for key in ("count", "sum", "buckets"):
        assert key in analyze["latency_s"], analyze
    assert "hit_rate" in rollup["cache"], rollup["cache"]
    # Persistent connections on both hops: the coordinator's requests to
    # the workers and the client's to the coordinator shared fewer
    # connections than there were requests.
    for where, requests in (
        ("workers", rollup["requests"]),
        ("coordinator", doc["coordinator"]["requests"]),
    ):
        assert (
            requests["requests_total"] > requests["connections_accepted"]
        ), (where, requests)


# ---------------------------------------------------------------------------
# Chaos soak: every response bit-identical, soundly degraded, or typed
# ---------------------------------------------------------------------------

SOAK_SITES = (
    "cluster.partition",
    "cluster.slow_worker",
    "cluster.coordinator_crash",
    "cluster.migration_torn_write",
)
#: Error codes a gray failure is *allowed* to surface as.
TYPED_CODES = frozenset(
    {"worker_unreachable", "transport", "queue_full", "timeout"}
)


def _admin_post(port: int, path: str, body: dict, timeout: float) -> tuple:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            "POST",
            path,
            body=json.dumps(body),
            headers={
                "Content-Type": "application/json",
                "Connection": "close",
            },
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _spawn_soak_worker(cache_dir: str, env: dict):
    """One extra ``repro serve`` for the mid-soak resize."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0", "--cache-dir", cache_dir,
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        match = re.search(r"listening on [\w.\-]+:(\d+)", line)
        if match:
            return proc, int(match.group(1))
    proc.kill()
    raise SystemExit("soak resize worker did not boot")


class _Tally:
    """Classification counters plus the violations that fail the soak."""

    def __init__(self) -> None:
        self.bit_identical = 0
        self.degraded_sound = 0
        self.typed_error = 0
        self.violations = []

    def classify_envelope(self, label, envelope, exact) -> None:
        if envelope.get("ok"):
            served = protocol.decode_result("delay", envelope["result"])
            if envelope.get("degraded"):
                if served.delay >= exact.delay:
                    self.degraded_sound += 1
                else:
                    self.violations.append(
                        f"{label}: degraded bound {served.delay} below "
                        f"exact {exact.delay}"
                    )
            elif (
                served.delay == exact.delay
                and served.busy_window == exact.busy_window
            ):
                self.bit_identical += 1
            else:
                self.violations.append(
                    f"{label}: wrong answer {served.delay} != {exact.delay}"
                )
        else:
            code = envelope.get("error", {}).get("code")
            if code in TYPED_CODES:
                self.typed_error += 1
            else:
                self.violations.append(
                    f"{label}: untyped failure {envelope.get('error')}"
                )

    def classify_exception(self, label, exc) -> None:
        code = getattr(exc, "code", None)
        if code in TYPED_CODES:
            self.typed_error += 1
        else:
            self.violations.append(f"{label}: untyped exception {exc!r}")

    @property
    def total(self) -> int:
        return self.bit_identical + self.degraded_sound + self.typed_error


def soak_main(args) -> int:
    beta = rate_latency_service(F(1, 2), F(2))
    hang_s = float(os.environ.get("REPRO_CHAOS_HANG_S", "2.0"))
    chaos_spec = (
        f"seed={args.seed},p={args.p},sites={'|'.join(SOAK_SITES)}"
    )
    extra_env = {
        "REPRO_CHAOS": chaos_spec,
        "REPRO_CHAOS_HANG_S": str(hang_s),
    }
    print(f"soak: REPRO_CHAOS={chaos_spec} hang_s={hang_s}")

    # The fault-free oracle, computed locally with chaos off.
    specs = {}
    for seed in range(12):
        specs[seed] = (
            ServiceClient.build_request("delay", _task(seed), beta),
            bounded_delay(_task(seed), beta),
        )

    tally = _Tally()
    with tempfile.TemporaryDirectory(prefix="repro-soak-cache-") as cache:
        proc, port = _boot(cache, extra_env=extra_env)
        resize_worker = None
        try:
            client = ServiceClient(
                port=port,
                timeout=max(30.0, hang_s * 4),
                max_retries=3,
                backoff_s=0.05,
                backoff_cap_s=0.5,
                jitter_seed=args.seed,
            )
            admin_timeout = max(60.0, hang_s * 8)
            for round_index in range(args.rounds):
                for seed, (spec, exact) in specs.items():
                    label = f"round{round_index}/delay{seed}"
                    try:
                        envelope = client.analyze_raw(dict(spec))
                    except Exception as exc:  # noqa: BLE001 - classified
                        tally.classify_exception(label, exc)
                        continue
                    tally.classify_envelope(label, envelope, exact)
                # A couple of budgeted requests: degradation, when it
                # happens, must stay sound (bound >= exact).
                for seed in (0, 1):
                    spec, exact = specs[seed]
                    tight = dict(spec)
                    tight["deadline_ms"] = 0.2
                    label = f"round{round_index}/deadline{seed}"
                    try:
                        envelope = client.analyze_raw(tight)
                    except Exception as exc:  # noqa: BLE001
                        tally.classify_exception(label, exc)
                        continue
                    tally.classify_envelope(label, envelope, exact)

                if round_index == 0:
                    # Planned resize under fire: join, then leave.
                    env = dict(os.environ)
                    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
                    env.update(extra_env)
                    resize_worker, worker_port = _spawn_soak_worker(
                        os.path.join(cache, "w2"), env
                    )
                    try:
                        status, doc = _admin_post(
                            port,
                            "/admin/add-worker",
                            {"worker": f"127.0.0.1:{worker_port}"},
                            admin_timeout,
                        )
                    except Exception as exc:  # noqa: BLE001
                        tally.classify_exception("resize/add", exc)
                        status, doc = None, {}
                    if status == 200:
                        tally.bit_identical += 1
                        migration = doc.get("migration", {})
                        print(f"soak resize: joined w2, {migration}")
                        try:
                            status, doc = _admin_post(
                                port,
                                "/admin/remove-worker",
                                {"worker": doc.get("worker", "w2")},
                                admin_timeout,
                            )
                        except Exception as exc:  # noqa: BLE001
                            tally.classify_exception("resize/remove", exc)
                            status = None
                        if status == 200:
                            tally.bit_identical += 1
                            print("soak resize: drained w2 back out")
                        elif status is not None:
                            code = doc.get("error", {}).get("code")
                            if code in TYPED_CODES:
                                tally.typed_error += 1
                            else:
                                tally.violations.append(
                                    f"resize/remove: untyped {doc}"
                                )
                    elif status is not None:
                        code = doc.get("error", {}).get("code")
                        if code in TYPED_CODES:
                            tally.typed_error += 1
                        else:
                            tally.violations.append(
                                f"resize/add: untyped {doc}"
                            )
                print(
                    f"round {round_index}: "
                    f"{tally.bit_identical} identical, "
                    f"{tally.degraded_sound} degraded-sound, "
                    f"{tally.typed_error} typed errors"
                )

            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=DRAIN_TIMEOUT_S)
            out = proc.stdout.read()
            assert proc.returncode == 0, (proc.returncode, out)
            print("soak drain: ok")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()
            if resize_worker is not None and resize_worker.poll() is None:
                resize_worker.kill()
                resize_worker.wait(timeout=10)

    expected = args.rounds * (len(specs) + 2)
    print(
        f"soak classification: {tally.bit_identical} identical, "
        f"{tally.degraded_sound} degraded-sound, "
        f"{tally.typed_error} typed errors "
        f"({tally.total} classified, >= {expected} expected)"
    )
    if tally.violations:
        for violation in tally.violations:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 1
    if tally.total < expected:
        print(
            f"soak lost responses: {tally.total} < {expected}",
            file=sys.stderr,
        )
        return 1
    print(f"cluster chaos soak (seed {args.seed}): PASS")
    return 0


def main() -> int:
    beta = rate_latency_service(F(1, 2), F(2))

    with tempfile.TemporaryDirectory(prefix="repro-cluster-cache-") as cache:
        proc, port = _boot(cache)
        try:
            client = ServiceClient(port=port, timeout=120.0)

            health = client.healthz()
            assert health["role"] == "coordinator", health
            assert health["healthy_workers"] == 2, health

            # Typed singles across kinds, bit-identical to direct calls.
            served = client.delay(_task(1), beta)
            direct = bounded_delay(_task(1), beta)
            assert served.delay == direct.delay, (served, direct)
            assert served.busy_window == direct.busy_window
            assert served.route is not None and served.route.worker
            tasks = [_task(s) for s in range(3)]
            assert client.analyze_many(tasks, beta) == analyze_many(
                tasks, beta
            )
            print("single requests: ok (bit-identical, route visible)")

            # Digest affinity: the same content keeps landing on the
            # same worker.
            owners = set()
            for _ in range(3):
                client.delay(_task(2), beta)
                owners.add(client.last_route.worker)
            assert len(owners) == 1, owners
            print(f"affinity: ok (pinned to {owners.pop()})")

            # A sharded batch plus one malformed item that fails alone.
            specs = [
                ServiceClient.build_request("delay", _task(s), beta)
                for s in range(6)
            ]
            specs.append({"kind": "delay", "tasks": [], "beta": {"rate": "1"}})
            envelopes = client.batch(specs)
            assert len(envelopes) == 7, len(envelopes)
            for seed, envelope in enumerate(envelopes[:6]):
                assert envelope["ok"], envelope
                got = protocol.decode_result("delay", envelope["result"])
                want = bounded_delay(_task(seed), beta)
                assert got.delay == want.delay, (seed, got, want)
            assert not envelopes[6]["ok"], envelopes[6]
            assert envelopes[6]["error"]["code"] in (
                "bad_request", "validation"
            ), envelopes[6]
            print("sharded batch: ok (order kept, malformed failed alone)")

            # A what-if sweep split across owners and re-merged.
            edits = [SetWcet(f"v{i % 3}", F(1 + i)) for i in range(4)]
            sweep = client.whatif_sweep(_task(1), beta, edits)
            assert sweep == whatif_sweep(_task(1), beta, edits)
            print("what-if sweep: ok (split/merge bit-identical)")

            status, headers, payload = client.request("GET", "/metrics")
            assert status == 200, status
            _check_rollup(json.loads(payload))
            # The connection that carried /metrics stays in the client's
            # pool, open across the drain below.
            assert headers.get("connection") == "keep-alive", headers
            print("metrics rollup: ok (connections reused on both hops)")

            # SIGTERM drains the coordinator, then the spawned fleet,
            # with a pooled client connection open.
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=DRAIN_TIMEOUT_S)
            out = proc.stdout.read()
            assert proc.returncode == 0, (proc.returncode, out)
            assert "fleet drained and stopped" in out, out
            print("SIGTERM fleet drain: ok")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()

    print("cluster smoke: PASS")
    return 0


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--soak",
        action="store_true",
        help="run the gray-failure chaos soak instead of the plain smoke",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="chaos seed (soak mode)"
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="workload rounds (soak mode)"
    )
    parser.add_argument(
        "--p",
        type=float,
        default=0.08,
        help="per-site injection probability (soak mode)",
    )
    return parser.parse_args(argv)


if __name__ == "__main__":
    _args = _parse_args()
    sys.exit(soak_main(_args) if _args.soak else main())
