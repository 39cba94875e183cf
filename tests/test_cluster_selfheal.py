"""Self-healing cluster: durable membership, resize migration, warm
standby failover, and the gray-failure chaos sites."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from fractions import Fraction as F

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterHandle,
    CoordinatorLease,
    MembershipLog,
    StandbyHandle,
    WorkerProcess,
)
from repro.cluster.routing import routing_digest
from repro.drt.model import DRTTask
from repro.io.json_io import task_to_dict
from repro.parallel import cache as result_cache
from repro.parallel import transport
from repro.resilience import bounded_delay, chaos
from repro.service import ServiceClient, ServiceError, protocol
from repro.service.server import ServerHandle, ServiceConfig
from repro.whatif.edits import SetWcet, edit_to_dict

pytestmark = pytest.mark.usefixtures("no_orphaned_servers")


@pytest.fixture(autouse=True, scope="module")
def _no_ambient_chaos():
    """Scoped injection only — ambient chaos breaks exact assertions."""
    saved = chaos.current_config()
    chaos.apply_config(None)
    yield
    chaos.apply_config(saved)


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Every test starts and ends with the result cache disabled."""
    result_cache.configure(None)
    yield
    result_cache.configure(None)


def _beta():
    from repro.curves.service import rate_latency_service

    return rate_latency_service(F(1, 2), F(2))


def _task(seed: int, n: int = 3) -> DRTTask:
    jobs = {
        f"v{i}": (1 + (seed + i) % 3, 8 + (seed * 3 + i) % 9)
        for i in range(n)
    }
    names = list(jobs)
    edges = [
        (a, b, 6 + (seed + i) % 7)
        for i, (a, b) in enumerate(zip(names, names[1:] + names[:1]))
    ]
    return DRTTask.build(f"t{seed}", jobs=jobs, edges=edges)


def _delay_spec(seed: int) -> dict:
    return {
        "kind": "delay",
        "task": task_to_dict(_task(seed)),
        "beta": {"rate": "1/2", "latency": "2"},
    }


def _post(host, port, path, body, headers=None, timeout=60):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        all_headers = {
            "Content-Type": "application/json",
            "Connection": "close",
        }
        if headers:
            all_headers.update(headers)
        conn.request(
            "POST", path, body=json.dumps(body), headers=all_headers
        )
        response = conn.getresponse()
        payload = response.read()
        return response.status, payload
    finally:
        conn.close()


def _reserve_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


# ---------------------------------------------------------------------------
# Durable membership: log + lease units
# ---------------------------------------------------------------------------


class TestMembershipLog:
    def test_append_and_roundtrip(self, tmp_path):
        log = MembershipLog(str(tmp_path))
        assert log.latest() is None
        first = log.append(["w0=h:1", "w1=h:2"], "bootstrap", "initial")
        assert first.generation == 0
        second = log.append(["w0=h:1", "w1=h:2", "w2=h:3"], "add", "w2")
        assert second.generation == 1
        records = log.records()
        assert [r.action for r in records] == ["bootstrap", "add"]
        assert records[-1].workers == ("w0=h:1", "w1=h:2", "w2=h:3")

    def test_explicit_generation_wins(self, tmp_path):
        log = MembershipLog(str(tmp_path))
        log.append(["w0=h:1"], "bootstrap")
        record = log.append(["w0=h:1"], "add", generation=7)
        assert record.generation == 7
        assert log.latest().generation == 7

    def test_torn_tail_line_is_skipped(self, tmp_path):
        log = MembershipLog(str(tmp_path))
        log.append(["w0=h:1"], "bootstrap")
        with open(log.path, "a", encoding="utf-8") as fh:
            fh.write('{"generation": 1, "workers": ["w0')  # torn write
        assert len(log.records()) == 1
        assert log.latest().action == "bootstrap"

    def test_unknown_action_rejected(self, tmp_path):
        log = MembershipLog(str(tmp_path))
        with pytest.raises(ValueError):
            log.append(["w0=h:1"], "explode")


class TestCoordinatorLease:
    def test_renew_read_release(self, tmp_path):
        lease = CoordinatorLease(str(tmp_path), owner="a:1", lease_s=5.0)
        assert lease.is_expired()
        lease.renew(port=1234)
        assert not lease.is_expired()
        doc = lease.read()
        assert doc["owner"] == "a:1" and doc["port"] == 1234
        lease.release()
        assert lease.is_expired()

    def test_expiry_by_staleness(self, tmp_path):
        lease = CoordinatorLease(str(tmp_path), owner="a:1", lease_s=0.1)
        lease.renew()
        assert not lease.is_expired()
        assert lease.is_expired(now=time.time() + 1.0)

    def test_release_respects_other_owner(self, tmp_path):
        active = CoordinatorLease(str(tmp_path), owner="a:1", lease_s=5.0)
        other = CoordinatorLease(str(tmp_path), owner="b:2", lease_s=5.0)
        active.renew()
        other.release()  # must not clobber the active's claim
        assert active.holder() == "a:1"


# ---------------------------------------------------------------------------
# Config validation (satellite: tunables fail fast at startup)
# ---------------------------------------------------------------------------


class TestClusterConfigValidation:
    def test_valid_config_accepted(self):
        ClusterConfig(workers=(("h", 1),), probe_interval_s=0.5)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("vnodes", 0),
            ("max_queue", 0),
            ("shed_fraction", 1.5),
            ("shed_deadline_ms", 0),
            ("probe_interval_s", 0.0),
            ("probe_timeout_s", -1.0),
            ("probe_failures", 0),
            ("retry_next_owner", -1),
            ("request_timeout_s", 0.0),
            ("drain_grace_s", -0.1),
            ("lease_s", 0.0),
            ("migrate_rate_bytes_per_s", 0.0),
        ],
    )
    def test_each_bad_tunable_is_named(self, field, value):
        with pytest.raises(ValueError) as excinfo:
            ClusterConfig(workers=(("h", 1),), **{field: value})
        assert field in str(excinfo.value)

    def test_multiple_problems_reported_together(self):
        with pytest.raises(ValueError) as excinfo:
            ClusterConfig(
                workers=(("h", 1),), vnodes=0, probe_failures=0
            )
        message = str(excinfo.value)
        assert "vnodes" in message and "probe_failures" in message

    def test_cluster_cli_rejects_bad_flags(self):
        from repro.cluster.fleet import cluster_main

        with pytest.raises(SystemExit) as excinfo:
            cluster_main(
                ["--worker", "127.0.0.1:1", "--probe-interval-s", "0"]
            )
        assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# Placement tagging: cache entries carry their routing key
# ---------------------------------------------------------------------------


class TestPlacementTagging:
    def test_scope_tags_memory_and_disk(self, tmp_path):
        result_cache.configure(str(tmp_path))
        with result_cache.placement_scope("route-1"):
            result_cache.put("a" * 64, {"v": 1})
        result_cache.put("b" * 64, {"v": 2})  # outside any scope
        tags = result_cache.placements()
        assert tags.get("a" * 64) == "route-1"
        assert "b" * 64 not in tags
        assert result_cache.placement_of("a" * 64) == "route-1"
        # The journal is durable: a fresh configure still sees it.
        result_cache.configure(None)
        result_cache.configure(str(tmp_path))
        assert result_cache.placements().get("a" * 64) == "route-1"

    def test_write_entry_carries_placement(self, tmp_path):
        result_cache.configure(str(tmp_path))
        result_cache.put("c" * 64, {"v": 3})
        blob = result_cache.read_entry("c" * 64)
        assert blob is not None
        assert result_cache.write_entry("d" * 64, blob, "route-2")
        assert result_cache.placement_of("d" * 64) == "route-2"

    def test_request_placement_matches_routing_digest(self):
        """The tag written at execution time must equal the digest the
        coordinator routes by — otherwise resize deltas re-home the
        wrong entries."""
        for spec in (
            _delay_spec(1),
            {
                "kind": "sp_schedulable",
                "tasks": [task_to_dict(_task(s)) for s in range(3)],
                "beta": {"rate": "1/2", "latency": "2"},
            },
        ):
            req = protocol.decode_request(dict(spec))
            assert protocol.request_placement(req) == routing_digest(spec)


# ---------------------------------------------------------------------------
# Idempotent request keys
# ---------------------------------------------------------------------------


class TestIdempotencyReplay:
    def test_same_key_replays_recorded_response(self):
        handle = ClusterHandle.start(n_workers=2, worker_mode="thread")
        try:
            spec = _delay_spec(1)
            headers = {"X-Idempotency-Key": "k-" + "0" * 30}
            status1, body1 = _post(
                "127.0.0.1", handle.port, "/v1/analyze", spec, headers
            )
            status2, body2 = _post(
                "127.0.0.1", handle.port, "/v1/analyze", spec, headers
            )
            assert status1 == status2 == 200
            assert body1 == body2  # byte-for-byte replay
            doc = ServiceClient(port=handle.port).metrics()
            replays = doc["coordinator"]["requests"].get(
                "idempotent_replays", 0
            )
            assert replays >= 1
        finally:
            handle.shutdown(timeout=30)

    def test_different_keys_execute_independently(self):
        handle = ClusterHandle.start(n_workers=1, worker_mode="thread")
        try:
            spec = _delay_spec(2)
            _status, body1 = _post(
                "127.0.0.1", handle.port, "/v1/analyze", spec,
                {"X-Idempotency-Key": "k1" + "0" * 30},
            )
            _status, body2 = _post(
                "127.0.0.1", handle.port, "/v1/analyze", spec,
                {"X-Idempotency-Key": "k2" + "0" * 30},
            )
            doc1, doc2 = json.loads(body1), json.loads(body2)
            assert doc1["ok"] and doc2["ok"]
            # Distinct executions (fresh trace ids), identical results.
            assert doc1["trace_id"] != doc2["trace_id"]
            assert doc1["result"] == doc2["result"]
        finally:
            handle.shutdown(timeout=30)

    def test_reused_key_with_another_request_executes_it(self):
        # A key reused for a different request must not replay the
        # first request's response: that would answer B with A's bound.
        handle = ClusterHandle.start(n_workers=1, worker_mode="thread")
        try:
            headers = {"X-Idempotency-Key": "k3" + "0" * 30}
            spec_a, spec_b = _delay_spec(3), _delay_spec(4)
            _status, body_a = _post(
                "127.0.0.1", handle.port, "/v1/analyze", spec_a, headers
            )
            status_b, body_b = _post(
                "127.0.0.1", handle.port, "/v1/analyze", spec_b, headers
            )
            _status, want_b = _post(
                "127.0.0.1", handle.port, "/v1/analyze", spec_b
            )
            doc_a, doc_b = json.loads(body_a), json.loads(body_b)
            assert status_b == 200 and doc_a["ok"] and doc_b["ok"]
            assert doc_a["result"] != doc_b["result"]
            assert doc_b["result"] == json.loads(want_b)["result"]
        finally:
            handle.shutdown(timeout=30)


# ---------------------------------------------------------------------------
# Client: jittered backoff, Retry-After cap, failover rotation
# ---------------------------------------------------------------------------


class TestClientBackoff:
    def test_decorrelated_jitter_is_seeded_and_bounded(self):
        a = ServiceClient(jitter_seed=11, backoff_s=0.02, backoff_cap_s=0.5)
        b = ServiceClient(jitter_seed=11, backoff_s=0.02, backoff_cap_s=0.5)
        waits_a = [a._wait_s(i, None) for i in range(1, 8)]
        waits_b = [b._wait_s(i, None) for i in range(1, 8)]
        assert waits_a == waits_b
        assert all(0.02 <= w <= 0.5 for w in waits_a)
        # Different seeds decorrelate.
        c = ServiceClient(jitter_seed=12, backoff_s=0.02, backoff_cap_s=0.5)
        assert [c._wait_s(i, None) for i in range(1, 8)] != waits_a

    def test_retry_after_honoured_up_to_cap(self):
        client = ServiceClient(
            backoff_cap_s=10.0, retry_after_cap_s=0.25, jitter_seed=1
        )
        client._note_retry_after("60")
        assert client._wait_s(1, "429 queue full") == 0.25
        client._note_retry_after("0.1")
        assert client._wait_s(2, "429 queue full") == pytest.approx(0.1)

    def test_connection_failure_rotates_to_live_endpoint(self):
        dead = _reserve_port()
        live = ServerHandle.start(ServiceConfig(port=0))
        try:
            client = ServiceClient(
                coordinators=[("127.0.0.1", dead), ("127.0.0.1", live.port)],
                timeout=10,
                max_retries=3,
                backoff_s=0.01,
                backoff_cap_s=0.05,
                jitter_seed=5,
            )
            result = client.delay(_task(1), _beta())
            direct = bounded_delay(_task(1), _beta())
            assert result.delay == direct.delay
            assert (client.host, client.port) == ("127.0.0.1", live.port)
        finally:
            live.shutdown(timeout=30)


# ---------------------------------------------------------------------------
# Gray-failure chaos sites
# ---------------------------------------------------------------------------


class TestChaosSites:
    def test_partition_is_bit_identical_or_typed(self):
        handle = ClusterHandle.start(
            n_workers=2, worker_mode="thread", probe_interval_s=0.2
        )
        try:
            client = ServiceClient(port=handle.port, timeout=60)
            beta = _beta()
            with chaos.scoped(seed=29, sites={"cluster.partition": 0.5}):
                specs = [
                    client.build_request("delay", _task(s), beta)
                    for s in range(6)
                ]
                envelopes = client.batch(specs)
            for seed, envelope in enumerate(envelopes):
                if envelope.get("ok"):
                    served = protocol.decode_result(
                        "delay", envelope["result"]
                    )
                    direct = bounded_delay(_task(seed), beta)
                    assert served.delay == direct.delay
                else:
                    assert (
                        envelope["error"]["code"] == "worker_unreachable"
                    )
        finally:
            handle.shutdown(timeout=30)

    def test_slow_worker_is_slow_but_correct(self, monkeypatch):
        monkeypatch.setattr(chaos, "HANG_SECONDS", 0.05)
        handle = ClusterHandle.start(n_workers=2, worker_mode="thread")
        try:
            client = ServiceClient(port=handle.port, timeout=60)
            with chaos.scoped(seed=7, sites={"cluster.slow_worker": 1.0}):
                served = client.delay(_task(5), _beta())
            direct = bounded_delay(_task(5), _beta())
            assert served.delay == direct.delay
            assert served.busy_window == direct.busy_window
        finally:
            handle.shutdown(timeout=30)

    def test_coordinator_crash_surfaces_as_typed_transport_error(self):
        handle = ClusterHandle.start(n_workers=1, worker_mode="thread")
        try:
            client = ServiceClient(
                port=handle.port,
                timeout=10,
                max_retries=2,
                backoff_s=0.01,
                backoff_cap_s=0.05,
                jitter_seed=3,
            )
            # The chaos key includes the idempotency key, which is held
            # constant across one logical request's retries — so a
            # request chosen for the crash fails every retry and must
            # surface as a *typed* transport error, never a hang or a
            # silent half-response.
            with chaos.scoped(
                seed=1, sites={"cluster.coordinator_crash": 1.0}
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client.analyze_raw(_delay_spec(1))
            assert excinfo.value.code == "transport"
            # With the site off the coordinator serves again.
            envelope = client.analyze_raw(_delay_spec(1))
            assert envelope["ok"]
        finally:
            handle.shutdown(timeout=30)

    def test_migration_torn_write_retries_and_never_installs_garbage(
        self, tmp_path
    ):
        result_cache.configure(str(tmp_path))
        originals = {}
        for i in range(6):
            key = f"{i:02d}" + "e" * 62
            value = {"payload": i, "blob": "x" * 200}
            with result_cache.placement_scope(f"route-{i}"):
                result_cache.put(key, value)
            originals[key] = value
        peer = ServerHandle.start(ServiceConfig(port=0))
        try:
            keys = list(originals)
            with chaos.scoped(
                seed=17, sites={"cluster.migration_torn_write": 0.6}
            ):
                summary = transport.pull_entries(
                    "127.0.0.1", peer.port, keys
                )
            assert summary["torn_retries"] >= 1
            assert summary["pulled"] + summary["failed"] == len(keys)
            assert summary["missing"] == 0
            # Everything that landed verified its digest; nothing torn
            # was installed.
            for key, value in originals.items():
                assert result_cache.get(key) == value
        finally:
            peer.shutdown(timeout=30)


# ---------------------------------------------------------------------------
# Durable membership across coordinator restarts
# ---------------------------------------------------------------------------


class TestDurableMembership:
    def test_restart_recovers_ring_generation(self, tmp_path):
        state = str(tmp_path / "state")
        first = ClusterHandle.start(
            n_workers=2, worker_mode="thread", state_dir=state
        )
        try:
            membership = first.membership()
            assert membership["durable"]
            assert membership["log"][0]["action"] == "bootstrap"
            generation = membership["ring"]["generation"]
            workers_before = membership["ring"]["workers"]
        finally:
            first.shutdown(timeout=30)

        second = ClusterHandle.start(
            n_workers=2, worker_mode="thread", state_dir=state
        )
        try:
            membership = second.membership()
            assert membership["ring"]["generation"] == generation
            assert membership["ring"]["workers"] == workers_before
            # The recovered ring serves (endpoints refreshed from the
            # new config positionally).
            client = ServiceClient(port=second.port, timeout=60)
            served = client.delay(_task(1), _beta())
            assert served.delay == bounded_delay(_task(1), _beta()).delay
        finally:
            second.shutdown(timeout=30)

    def test_add_worker_validations(self, tmp_path):
        handle = ClusterHandle.start(n_workers=1, worker_mode="thread")
        try:
            for body, status in (
                ({"worker": "not-an-endpoint"}, 400),
                ({"worker": f"127.0.0.1:{_reserve_port()}"}, 502),
            ):
                got, payload = _post(
                    "127.0.0.1", handle.port, "/admin/add-worker", body
                )
                assert got == status, payload
            # Removing the only worker is refused.
            got, payload = _post(
                "127.0.0.1", handle.port, "/admin/remove-worker",
                {"worker": "w0"},
            )
            assert got == 409, payload
        finally:
            handle.shutdown(timeout=30)


# ---------------------------------------------------------------------------
# Planned resize: cache migration keeps the fleet warm (acceptance)
# ---------------------------------------------------------------------------


class TestPlannedResize:
    def test_add_fifth_worker_migrates_and_stays_warm(self, tmp_path):
        cache_base = str(tmp_path / "cache")
        handle = ClusterHandle.start(
            n_workers=4,
            worker_mode="process",
            worker_kwargs={"cache_dir": cache_base},
            state_dir=str(tmp_path / "state"),
        )
        joiner = None
        try:
            client = ServiceClient(port=handle.port, timeout=120)
            beta = _beta()
            seeds = list(range(12))
            # Warm the fleet: first pass computes, second pass hits.
            direct = {}
            for seed in seeds:
                served = client.delay(_task(seed), beta)
                direct[seed] = (served.delay, served.busy_window)
            for seed in seeds:
                client.delay(_task(seed), beta)

            joiner = handle.spawn_worker(
                cache_dir=os.path.join(cache_base, "w4")
            )
            resize = handle.add_worker("127.0.0.1", joiner.port)
            assert resize["ok"] and resize["worker"] == "w4"
            migration = resize["migration"]
            moved = sum(
                int(summary.get("pulled", 0))
                for summary in migration.values()
                if isinstance(summary, dict)
            )
            assert moved >= 1, migration

            # Post-resize: bit-identical answers, and the fleet-wide
            # hit rate since the generation flip stays warm.
            for seed in seeds:
                served = client.delay(_task(seed), beta)
                assert (served.delay, served.busy_window) == direct[seed]
            rollup = client.metrics()["rollup"]["cache_by_generation"]
            fleet = rollup["fleet"]
            lookups = fleet["hits_delta"] + fleet["misses_delta"]
            assert lookups >= len(seeds)
            assert fleet["hit_rate"] is not None
            assert fleet["hit_rate"] >= 0.8, rollup
        finally:
            handle.shutdown(timeout=60)
            if joiner is not None:
                joiner.kill()


# ---------------------------------------------------------------------------
# Coordinator failover: warm standby, zero lost / duplicated items
# ---------------------------------------------------------------------------


class TestStandbyFailover:
    def test_crash_mid_batch_loses_and_duplicates_nothing(self, tmp_path):
        state = str(tmp_path / "state")
        handle = ClusterHandle.start(
            n_workers=2,
            worker_mode="thread",
            state_dir=state,
            lease_s=0.5,
        )
        standby_port = _reserve_port()
        standby = StandbyHandle.start(
            state, port=standby_port, lease_s=0.5
        )
        try:
            assert not standby.took_over
            client = ServiceClient(
                coordinators=[
                    ("127.0.0.1", handle.port),
                    ("127.0.0.1", standby_port),
                ],
                timeout=60,
                max_retries=8,
                backoff_s=0.05,
                backoff_cap_s=0.4,
                jitter_seed=23,
            )
            beta = _beta()
            specs = [
                client.build_request("delay", _task(s), beta)
                for s in range(16)
            ]
            outcome = {}

            def run_batch():
                try:
                    outcome["envelopes"] = client.batch(specs)
                except ServiceError as exc:  # pragma: no cover - failure
                    outcome["error"] = exc

            worker_thread = threading.Thread(target=run_batch)
            worker_thread.start()
            time.sleep(0.01)
            handle.kill_coordinator()
            worker_thread.join(timeout=90)
            assert not worker_thread.is_alive()
            assert "error" not in outcome, outcome.get("error")
            envelopes = outcome["envelopes"]
            # Zero lost, zero duplicated: exactly one envelope per item,
            # in request order, every one bit-identical.
            assert len(envelopes) == len(specs)
            for seed, envelope in enumerate(envelopes):
                assert envelope.get("ok"), envelope
                served = protocol.decode_result("delay", envelope["result"])
                direct = bounded_delay(_task(seed), beta)
                assert served.delay == direct.delay
                assert served.busy_window == direct.busy_window
            # The standby notices the stale lease and promotes at the
            # logged generation; the same client fails over to it.
            assert standby.wait_promoted(timeout_s=30)
            doc = ServiceClient(port=standby.port).healthz()
            assert doc["role"] == "coordinator"
            assert doc["healthy_workers"] == 2
            after = client.batch(specs)
            assert len(after) == len(specs)
            for seed, envelope in enumerate(after):
                assert envelope.get("ok"), envelope
                served = protocol.decode_result("delay", envelope["result"])
                direct = bounded_delay(_task(seed), beta)
                assert served.delay == direct.delay
            assert client.port == standby_port
        finally:
            standby.shutdown(timeout=30)
            handle.shutdown(timeout=30)

    def test_standby_does_not_promote_under_live_lease(self, tmp_path):
        state = str(tmp_path / "state")
        handle = ClusterHandle.start(
            n_workers=1, worker_mode="thread", state_dir=state, lease_s=1.0
        )
        standby = StandbyHandle.start(state, lease_s=1.0)
        try:
            time.sleep(1.2)  # several renew intervals
            assert not standby.took_over
        finally:
            standby.shutdown(timeout=30)
            handle.shutdown(timeout=30)


# ---------------------------------------------------------------------------
# Graceful drain with in-flight what-if micro-batches under SIGTERM
# ---------------------------------------------------------------------------


def _whatif_spec(seed: int) -> dict:
    task = _task(seed, n=4)
    edits = [
        edit_to_dict(SetWcet(f"v{i % 4}", F(1 + (seed + i) % 3)))
        for i in range(6)
    ]
    return {
        "kind": "whatif_sweep",
        "task": task_to_dict(task),
        "beta": {"rate": "1/2", "latency": "2"},
        "edits": edits,
    }


def _drain_under_sigterm(process, host, port):
    """POST an in-flight what-if batch, SIGTERM, assert nothing drops."""
    outcome = {}

    def run():
        try:
            status, payload = _post(
                host, port, "/v1/batch",
                {"requests": [_whatif_spec(s) for s in range(4)]},
                timeout=60,
            )
            outcome["status"] = status
            outcome["doc"] = json.loads(payload)
        except Exception as exc:  # noqa: BLE001 - surfaces in asserts
            outcome["exception"] = exc

    poster = threading.Thread(target=run)
    poster.start()
    time.sleep(0.2)
    process.send_signal(signal.SIGTERM)
    poster.join(timeout=60)
    rc = process.wait(timeout=60)
    assert "exception" not in outcome, outcome.get("exception")
    assert outcome["status"] == 200
    responses = outcome["doc"]["responses"]
    assert len(responses) == 4
    assert all(env.get("ok") for env in responses), responses
    assert rc == 0


class TestGracefulDrainSigterm:
    def test_single_node_drains_inflight_whatif(self):
        worker = WorkerProcess.spawn()
        try:
            _drain_under_sigterm(worker.process, worker.host, worker.port)
        finally:
            worker.kill()

    def test_cluster_drains_inflight_whatif(self):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "cluster",
                "--workers", "1", "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            boot = None
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on [\w.\-]+:(\d+)", line)
                if match:
                    boot = int(match.group(1))
                    break
            assert boot is not None, "cluster CLI never printed boot line"
            _drain_under_sigterm(process, "127.0.0.1", boot)
            rest = process.stdout.read()
            assert "fleet drained and stopped" in rest
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
