"""Tests for the sharded cluster: ring, routing, coordinator, failover."""

from __future__ import annotations

import http.client
import json
import socket
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterHandle, HashRing
from repro.cluster import routing as cluster_routing
from repro.cluster.routing import routing_digest, whatif_edit_digest
from repro.core.facade import analyze_many
from repro.curves.service import rate_latency_service
from repro.drt.model import DRTTask
from repro.io.json_io import task_to_dict
from repro.resilience import bounded_delay, chaos
from repro.sched.sp import sp_schedulable
from repro.service import ServiceClient, ServiceError, protocol
from repro.service.client import RouteInfo
from repro.service.server import ServerHandle, ServiceConfig
from repro.whatif import whatif_sweep
from repro.whatif.edits import SetWcet

from .conftest import healthz_during_slow_metrics_s

pytestmark = pytest.mark.usefixtures("no_orphaned_servers")


@pytest.fixture(autouse=True, scope="module")
def _no_ambient_chaos():
    """Strict request/response semantics — mask ambient fault injection.

    The dedicated chaos test below uses *scoped* deterministic
    injection; everything else in this module asserts exact routing and
    bit-identity, which an ambient ``REPRO_CHAOS`` sweep legitimately
    breaks (typed errors after injected coordinator-level crashes).
    """
    saved = chaos.current_config()
    chaos.apply_config(None)
    yield
    chaos.apply_config(saved)


def _beta():
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


# ---------------------------------------------------------------------------
# Consistent-hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_placement_is_deterministic_and_set_dependent(self):
        a = HashRing(["w0", "w1", "w2"], vnodes=32)
        b = HashRing(["w2", "w0", "w1"], vnodes=32)
        digests = [f"digest-{i}" for i in range(200)]
        assert [a.owner(d) for d in digests] == [b.owner(d) for d in digests]

    def test_balance_is_reasonable(self):
        ring = HashRing(["w0", "w1", "w2", "w3"], vnodes=64)
        digests = [f"sha-{i}" for i in range(2000)]
        spread = ring.spread(digests)
        assert sum(spread.values()) == 2000
        # vnodes keep the max/min spread within a small factor.
        assert max(spread.values()) < 3 * max(1, min(spread.values()))

    def test_owners_walks_distinct_workers(self):
        ring = HashRing(["w0", "w1", "w2"], vnodes=16)
        chain = ring.owners("some-digest", 3)
        assert len(chain) == 3
        assert len(set(chain)) == 3
        assert chain[0] == ring.owner("some-digest")

    def test_generation_counts_churn(self):
        ring = HashRing(["w0", "w1"], vnodes=8)
        assert ring.generation == 0
        ring.add("w2")
        ring.remove("w0")
        ring.add("w2")  # no-op: already present
        assert ring.generation == 2

    @settings(max_examples=40, deadline=None)
    @given(
        n_workers=st.integers(min_value=2, max_value=6),
        vnodes=st.integers(min_value=8, max_value=64),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_join_moves_only_keys_to_the_joiner(
        self, n_workers, vnodes, seed
    ):
        """Adding a worker re-homes keys only *onto* the new worker."""
        workers = [f"w{i}" for i in range(n_workers)]
        ring = HashRing(workers, vnodes=vnodes)
        digests = [f"k-{seed}-{i}" for i in range(300)]
        before = {d: ring.owner(d) for d in digests}
        ring.add("joiner")
        moved = 0
        for d in digests:
            after = ring.owner(d)
            if after != before[d]:
                assert after == "joiner"
                moved += 1
        # ~K/(N+1) in expectation; assert a generous upper bound.
        assert moved <= len(digests) * 3 / (n_workers + 1)

    @settings(max_examples=40, deadline=None)
    @given(
        n_workers=st.integers(min_value=2, max_value=6),
        vnodes=st.integers(min_value=8, max_value=64),
        seed=st.integers(min_value=0, max_value=10_000),
        victim=st.integers(min_value=0, max_value=5),
    )
    def test_leave_moves_only_the_leavers_keys(
        self, n_workers, vnodes, seed, victim
    ):
        """Removing a worker re-homes only the keys it owned."""
        workers = [f"w{i}" for i in range(n_workers)]
        ring = HashRing(workers, vnodes=vnodes)
        digests = [f"k-{seed}-{i}" for i in range(300)]
        before = {d: ring.owner(d) for d in digests}
        leaver = workers[victim % n_workers]
        ring.remove(leaver)
        for d in digests:
            after = ring.owner(d)
            if before[d] == leaver:
                assert after != leaver
            else:
                assert after == before[d]


# ---------------------------------------------------------------------------
# Routing digests
# ---------------------------------------------------------------------------


def _spec_per_kind() -> dict:
    """One wire request per registered kind, as the client builds it."""
    from repro.mp import DAGTask

    dags = [
        DAGTask.build(
            f"d{i}",
            vertices={"s": 1 + i, "a": F(7, 2), "t": 1},
            edges=[("s", "a"), ("a", "t")],
            period=60 + 10 * i,
        )
        for i in range(2)
    ]
    task, tasks, beta = _task(1), [_task(s) for s in range(2)], _beta()
    build = ServiceClient.build_request
    return {
        "delay": build("delay", task, beta),
        "bounded_delay": build("bounded_delay", task, beta),
        "sp_schedulable": build("sp_schedulable", tasks, beta),
        "edf_structural_delays": build("edf_structural_delays", tasks, beta),
        "analyze_many": build("analyze_many", tasks, beta),
        "whatif_sweep": build(
            "whatif_sweep", task, beta, edits=[SetWcet("v0", F(2))]
        ),
        "dag_rta": build("dag_rta", dags[0], m=2),
        "global_fp_schedulable": build("global_fp_schedulable", dags, m=2),
        "global_rm_schedulable": build("global_rm_schedulable", dags, m=2),
    }


class TestRoutingDigest:
    def setup_method(self):
        cluster_routing.memo_clear()

    def test_content_identity_ignores_formatting(self):
        task = _task(1)
        spec_a = {
            "kind": "delay",
            "task": task_to_dict(task),
            "beta": {"rate": "1/2", "latency": "2"},
        }
        # Same content, different key order + irrelevant extras.
        spec_b = {
            "beta": {"latency": "2", "rate": "1/2"},
            "task": json.loads(json.dumps(task_to_dict(task))),
            "kind": "delay",
            "deadline_ms": 250,
            "perf": True,
        }
        assert routing_digest(spec_a) == routing_digest(spec_b)

    def test_different_content_routes_differently(self):
        beta = {"rate": "1/2", "latency": "2"}
        d1 = routing_digest(
            {"kind": "delay", "task": task_to_dict(_task(1)), "beta": beta}
        )
        d2 = routing_digest(
            {"kind": "delay", "task": task_to_dict(_task(2)), "beta": beta}
        )
        d3 = routing_digest(
            {"kind": "delay", "task": task_to_dict(_task(1)),
             "beta": {"rate": "1", "latency": "2"}}
        )
        assert len({d1, d2, d3}) == 3

    def test_undecodable_spec_is_deterministic(self):
        broken = {"kind": "delay", "task": {"nope": 1}, "beta": {}}
        assert routing_digest(broken) == routing_digest(dict(broken))

    def test_worker_tag_equals_routing_key_for_every_kind(self):
        """The tag a worker writes cache entries under is the key the
        coordinator routed by, whichever kind the request is."""
        specs = _spec_per_kind()
        assert set(specs) == set(protocol.KIND_REGISTRY)
        for kind, spec in specs.items():
            wire = json.loads(json.dumps(spec))
            req = protocol.decode_request(wire)
            assert protocol.request_placement(req) == routing_digest(spec), kind

    def test_key_ignores_layout_and_non_content_fields(self):
        for kind, spec in _spec_per_kind().items():
            text = json.dumps(dict(reversed(list(spec.items()))), indent=3)
            extras = {"deadline_ms": 50, "perf": True, "validate": False}
            if protocol.KIND_REGISTRY[kind].params:
                extras["params"] = {}
            same = {**json.loads(text), **extras}
            assert routing_digest(same) == routing_digest(spec), kind
            assert (
                protocol.request_placement(protocol.decode_request(same))
                == routing_digest(spec)
            ), kind

    def test_key_changes_with_m(self):
        for kind, spec in _spec_per_kind().items():
            if "m" in spec:
                assert routing_digest({**spec, "m": spec["m"] + 1}) != (
                    routing_digest(spec)
                ), kind

    def test_in_process_request_is_untagged(self):
        req = protocol.DecodedRequest(
            kind="delay", tasks=(_task(1),), beta=_beta(), budget=None
        )
        assert protocol.request_placement(req) is None

    def test_encoders_emit_canonical_numbers(self):
        """Routing is canonical-JSON identity, so the project's encoders
        must write each number one way: ``str(Fraction)``."""
        from repro.io.json_io import curve_to_dict, task_from_dict
        from repro.mp.io import dag_from_dict, dag_to_dict

        def numbers(doc):
            # Everything but names: job/vertex names, edge endpoints
            # and the DAG's [src, dst] pairs.
            if isinstance(doc, dict):
                for key, value in doc.items():
                    if key not in ("name", "src", "dst") and not (
                        key == "edges" and isinstance(value[0], list)
                    ):
                        yield from numbers(value)
            elif isinstance(doc, list):
                for value in doc:
                    yield from numbers(value)
            else:
                yield doc

        task = {
            "name": "hand",
            "jobs": {
                "a": {"wcet": "2/4", "deadline": "010"},
                "b": {"wcet": 3, "deadline": "9/3"},
            },
            "edges": [
                {"src": "a", "dst": "b", "separation": "1.5"},
                {"src": "b", "dst": "a", "separation": "12/8"},
            ],
        }
        dag = {
            "name": "d",
            "period": "060",
            "deadline": "120/2",
            "vertices": [{"name": "s", "wcet": "4/6"}, {"name": "t", "wcet": 1}],
            "edges": [["s", "t"]],
        }
        docs = [
            task_to_dict(task_from_dict(task)),
            curve_to_dict(rate_latency_service(F(2, 4), F(6, 3))),
            dag_to_dict(dag_from_dict(dag)),
        ]
        for doc in docs:
            for value in numbers(doc):
                assert isinstance(value, str) and value == str(F(value)), value

    def test_per_edit_digests_differ(self):
        base = routing_digest(
            {
                "kind": "whatif_sweep",
                "task": task_to_dict(_task(1)),
                "beta": {"rate": "1/2", "latency": "2"},
            }
        )
        e1 = whatif_edit_digest(base, {"op": "set_wcet", "job": "v0"})
        e2 = whatif_edit_digest(base, {"op": "set_wcet", "job": "v1"})
        assert e1 != e2
        assert e1 == whatif_edit_digest(base, {"job": "v0", "op": "set_wcet"})


# ---------------------------------------------------------------------------
# Coordinator end-to-end (in-process fleet)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def cluster():
    handle = ClusterHandle.start(
        n_workers=3,
        worker_mode="thread",
        probe_interval_s=0.2,
        probe_failures=2,
        worker_config=ServiceConfig(batch_window_ms=1.0),
    )
    yield handle
    handle.shutdown(timeout=30)


class TestClusterEndToEnd:
    def _client(self, cluster) -> ServiceClient:
        return ServiceClient(port=cluster.port, timeout=60, max_retries=2)

    def test_served_results_match_direct(self, cluster):
        client = self._client(cluster)
        beta = _beta()
        task = _task(1)
        served = client.delay(task, beta)
        direct = bounded_delay(task, beta)
        assert served.delay == direct.delay
        assert served.busy_window == direct.busy_window
        tasks = [_task(s) for s in range(3)]
        assert client.sp_schedulable(tasks, beta) == sp_schedulable(
            tasks, beta
        )
        assert client.analyze_many(tasks, beta) == analyze_many(tasks, beta)

    def test_route_headers_surface_on_client(self, cluster):
        client = self._client(cluster)
        result = client.delay(_task(2), _beta())
        route = client.last_route
        assert isinstance(route, RouteInfo)
        assert route.worker in ("w0", "w1", "w2")
        assert isinstance(route.ring_generation, int)
        assert route.trace_id
        assert getattr(result, "route", None) == route

    def test_placement_is_sticky(self, cluster):
        """The same request content always lands on the same worker."""
        client = self._client(cluster)
        owners = set()
        for _ in range(3):
            client.delay(_task(3), _beta())
            owners.add(client.last_route.worker)
        assert len(owners) == 1

    def test_batch_merges_in_request_order(self, cluster):
        client = self._client(cluster)
        beta = _beta()
        specs = [
            client.build_request("delay", _task(s), beta) for s in range(8)
        ]
        envelopes = client.batch(specs)
        assert len(envelopes) == 8
        from repro.service import protocol

        for seed, envelope in enumerate(envelopes):
            assert envelope["ok"], envelope
            served = protocol.decode_result("delay", envelope["result"])
            direct = bounded_delay(_task(seed), beta)
            assert served.delay == direct.delay
            assert served.busy_window == direct.busy_window

    def test_batch_stream_through_coordinator(self, cluster):
        client = self._client(cluster)
        beta = _beta()
        specs = [
            client.build_request("delay", _task(s), beta) for s in range(5)
        ]
        settled = dict(client.batch_stream(specs))
        assert sorted(settled) == list(range(5))
        assert all(env.get("ok") for env in settled.values())

    def test_whatif_sweep_splits_and_merges(self, cluster):
        client = self._client(cluster)
        beta = _beta()
        task = _task(1)
        edits = [
            SetWcet("v0", F(2)),
            SetWcet("v1", F(1)),
            SetWcet("v2", F(3)),
            SetWcet("v0", F(1)),
        ]
        served = client.whatif_sweep(task, beta, edits)
        direct = whatif_sweep(task, beta, edits)
        assert served == direct

    def test_trace_id_propagates(self, cluster):
        conn = http.client.HTTPConnection("127.0.0.1", cluster.port)
        try:
            body = json.dumps(
                {
                    "kind": "delay",
                    "task": task_to_dict(_task(4)),
                    "beta": {"rate": "1/2", "latency": "2"},
                }
            )
            conn.request(
                "POST",
                "/v1/analyze",
                body=body,
                headers={
                    "Content-Type": "application/json",
                    "Connection": "close",
                    "X-Trace-Id": "cafebabe00000001",
                },
            )
            response = conn.getresponse()
            headers = {k.lower(): v for k, v in response.getheaders()}
            doc = json.loads(response.read())
        finally:
            conn.close()
        assert doc["trace_id"] == "cafebabe00000001"
        assert headers.get("x-trace-id") == "cafebabe00000001"

    def test_healthz_schema(self, cluster):
        client = self._client(cluster)
        doc = client.healthz()
        assert doc["role"] == "coordinator"
        assert doc["healthy_workers"] == 3
        assert set(doc["workers"]) == {"w0", "w1", "w2"}
        for state in doc["workers"].values():
            assert {"host", "port", "healthy"} <= set(state)

    def test_slow_worker_metrics_do_not_block_healthz(
        self, cluster, monkeypatch
    ):
        """The rollup waits for the workers' documents (each built off
        its worker's loop) and builds the coordinator's own off its
        loop: the in-process workers share its result cache."""
        assert healthz_during_slow_metrics_s(cluster.port, monkeypatch) < 0.1

    def test_metrics_rollup_schema(self, cluster):
        client = self._client(cluster)
        client.delay(_task(5), _beta())  # ensure at least one request
        doc = client.metrics()
        assert {"cluster", "coordinator", "workers", "rollup"} <= set(doc)
        ring = doc["cluster"]["ring"]
        assert ring["workers"] == ["w0", "w1", "w2"]
        assert ring["vnodes"] == 64
        rollup = doc["rollup"]
        assert {"requests", "endpoints", "cache"} <= set(rollup)
        analyze = rollup["endpoints"].get("POST /v1/analyze")
        assert analyze is not None and analyze["count"] >= 1
        snap = analyze["latency_s"]
        assert {"count", "sum", "buckets"} <= set(snap)
        # The merged histogram count sums the per-worker observations.
        per_worker = sum(
            (w or {})
            .get("endpoints", {})
            .get("POST /v1/analyze", {})
            .get("count", 0)
            for w in doc["workers"].values()
        )
        assert analyze["count"] == per_worker
        # Failed result-cache writes add up across workers like hits.
        assert rollup["cache"]["put_failures"] == sum(
            ((w or {}).get("cache") or {}).get("put_failures", 0)
            for w in doc["workers"].values()
        )


class TestClusterAdmission:
    def test_cluster_429_carries_retry_after(self):
        handle = ClusterHandle.start(
            n_workers=1, worker_mode="thread", max_queue=1
        )
        try:
            client = ServiceClient(
                port=handle.port, timeout=30, max_retries=1, backoff_cap_s=0.2
            )
            specs = [
                client.build_request("delay", _task(s), _beta())
                for s in range(3)
            ]
            with pytest.raises(ServiceError) as excinfo:
                client.batch(specs)
            assert excinfo.value.code == "queue_full"
            # The client honoured the hint: a Retry-After was noted.
            assert getattr(client, "_suggested_wait", None) is not None
        finally:
            handle.shutdown(timeout=30)


# ---------------------------------------------------------------------------
# Failover + chaos
# ---------------------------------------------------------------------------


class TestClusterFailover:
    @pytest.mark.parametrize("stream", [False, True])
    def test_mid_batch_worker_kill_is_bit_identical_or_typed(self, stream):
        """The headline robustness contract of the sharded tier, on the
        plain and the streamed batch path alike."""
        handle = ClusterHandle.start(
            n_workers=3,
            worker_mode="thread",
            probe_interval_s=0.2,
            probe_failures=1,
        )
        try:
            client = ServiceClient(port=handle.port, timeout=60)
            beta = _beta()
            handle.kill_worker(1)
            specs = [
                client.build_request("delay", _task(s), beta)
                for s in range(8)
            ]
            if stream:
                settled = dict(client.batch_stream(specs))
                assert sorted(settled) == list(range(len(specs)))
                envelopes = [settled[i] for i in range(len(specs))]
            else:
                envelopes = client.batch(specs)
            from repro.service import protocol

            for seed, envelope in enumerate(envelopes):
                if envelope.get("ok"):
                    served = protocol.decode_result(
                        "delay", envelope["result"]
                    )
                    direct = bounded_delay(_task(seed), beta)
                    assert served.delay == direct.delay
                    assert served.busy_window == direct.busy_window
                else:
                    assert envelope["error"]["code"] == "worker_unreachable"
            # The dead worker left the ring.
            doc = client.healthz()
            assert doc["healthy_workers"] == 2
            assert doc["ring_generation"] >= 1
            # New singles keep landing on survivors, bit-identically.
            served = client.delay(_task(100), beta)
            direct = bounded_delay(_task(100), beta)
            assert served.delay == direct.delay
        finally:
            handle.shutdown(timeout=30)

    def test_chaos_worker_crash_site(self):
        """Injected coordinator-level crashes: correct or typed, never
        silently wrong."""
        handle = ClusterHandle.start(
            n_workers=2,
            worker_mode="thread",
            probe_interval_s=0.2,  # fast re-admission after ejections
        )
        try:
            client = ServiceClient(port=handle.port, timeout=60)
            beta = _beta()
            with chaos.scoped(seed=13, sites={"cluster.worker_crash": 0.5}):
                specs = [
                    client.build_request("delay", _task(s), beta)
                    for s in range(6)
                ]
                envelopes = client.batch(specs)
            from repro.service import protocol

            for seed, envelope in enumerate(envelopes):
                if envelope.get("ok"):
                    served = protocol.decode_result(
                        "delay", envelope["result"]
                    )
                    direct = bounded_delay(_task(seed), beta)
                    assert served.delay == direct.delay
                    assert served.busy_window == direct.busy_window
                else:
                    assert envelope["error"]["code"] == "worker_unreachable"
            # The workers never actually died, so probes re-admit any
            # crash-ejected ones; with chaos off the fleet recovers.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    if client.healthz()["healthy_workers"] == 2:
                        break
                except ServiceError:  # 503 while the ring is empty
                    pass
                time.sleep(0.05)
            assert client.healthz()["healthy_workers"] == 2
            served = client.delay(_task(50), beta)
            direct = bounded_delay(_task(50), beta)
            assert served.delay == direct.delay
            assert served.busy_window == direct.busy_window
        finally:
            handle.shutdown(timeout=30)

    def test_ejected_worker_is_readmitted(self):
        """A worker that comes back passes probes and rejoins the ring."""
        # Reserve a port for the not-yet-started second worker.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        reserved_port = probe.getsockname()[1]
        probe.close()

        live = ServerHandle.start(ServiceConfig(port=0))
        late = None
        handle = ClusterHandle.start(
            workers=[
                ("127.0.0.1", live.port),
                ("127.0.0.1", reserved_port),
            ],
            probe_interval_s=0.1,
            probe_failures=1,
        )
        try:
            client = ServiceClient(port=handle.port, timeout=30)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if len(handle.coordinator.ring) == 1:
                    break
                time.sleep(0.05)
            assert len(handle.coordinator.ring) == 1
            generation_after_eject = handle.coordinator.ring.generation
            # Requests still served by the survivor.
            assert client.delay(_task(1), _beta()).delay is not None
            # Boot the late worker on the reserved port; probes readmit.
            late = ServerHandle.start(ServiceConfig(port=reserved_port))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if len(handle.coordinator.ring) == 2:
                    break
                time.sleep(0.05)
            assert len(handle.coordinator.ring) == 2
            assert (
                handle.coordinator.ring.generation > generation_after_eject
            )
        finally:
            handle.shutdown(timeout=30)
            live.shutdown(timeout=30)
            if late is not None:
                late.shutdown(timeout=30)
