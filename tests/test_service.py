"""Tests for the analysis service: protocol, admission, batching, HTTP."""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

from repro import perf
from repro.core.facade import analyze_many
from repro.curves.service import rate_latency_service
from repro.drt.model import DRTTask
from repro.errors import SerializationError, ValidationError
from repro.io.json_io import curve_to_dict, task_to_dict
from repro.mp import DAGTask, dag_to_dict
from repro.resilience import Budget, bounded_delay, chaos
from repro.resilience.bounded import LEVELS
from repro.sched.edf_delay import edf_structural_delays
from repro.sched.sp import sp_schedulable
from repro.service import (
    AdmissionController,
    ServerHandle,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    decode_request,
    decode_result,
    encode_result,
)
from repro.service.protocol import decode_beta

from .conftest import healthz_during_slow_metrics_s

pytestmark = pytest.mark.usefixtures("no_orphaned_servers")


@pytest.fixture(autouse=True, scope="module")
def _no_ambient_chaos():
    """Run this module's strict tests without ambient fault injection.

    These tests assert *exact* request/response semantics (bit-identical
    results, specific status codes, clean drains).  Under an ambient
    ``REPRO_CHAOS`` configuration (the CI chaos job) a request can
    legitimately settle as a typed ``worker`` error after exhausted
    retries, so strict equality is not a chaos-invariant.  The service's
    fault-injection coverage lives in ``test_service_chaos.py``, which
    uses deterministic *scoped* injection and asserts the actual chaos
    contract (bit-identical | sound degraded | typed error).
    """
    saved = chaos.current_config()
    chaos.apply_config(None)
    yield
    chaos.apply_config(saved)


def _beta():
    return rate_latency_service(F(1, 2), F(2))


def _task_set():
    demo = DRTTask.build(
        "demo",
        jobs={"a": (1, 5), "b": (3, 8), "c": (2, 10)},
        edges=[("a", "b", 10), ("b", "c", 8), ("c", "a", 12), ("a", "a", 5)],
    )
    loop = DRTTask.build(
        "loop", jobs={"x": (2, 10)}, edges=[("x", "x", 10)]
    )
    return [demo, loop]


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_beta_shorthand_equals_curve_dict(self):
        beta = _beta()
        short = decode_beta({"rate": "1/2", "latency": "2"})
        full = decode_beta(curve_to_dict(beta))
        assert short == beta
        assert full == beta

    def test_decode_request_single(self, demo_task):
        req = decode_request(
            {
                "kind": "delay",
                "task": task_to_dict(demo_task),
                "beta": {"rate": "1/2", "latency": "2"},
                "deadline_ms": 250,
            }
        )
        assert req.kind == "delay"
        assert len(req.tasks) == 1
        assert req.tasks[0].jobs == demo_task.jobs
        assert req.budget == Budget(deadline=0.25)
        assert req.trace_id

    def test_decode_request_rejects_garbage(self, demo_task):
        base = {
            "kind": "delay",
            "task": task_to_dict(demo_task),
            "beta": {"rate": "1/2"},
        }
        for mutation in (
            {"kind": "nonsense"},
            {"beta": {"rate": "0"}},
            {"beta": {}},
            {"params": {"no_such_param": 1}},
            {"params": {"backend": "exact"}},
            {"deadline_ms": -5},
        ):
            with pytest.raises((SerializationError, ValidationError)):
                decode_request({**base, **mutation})
        with pytest.raises(SerializationError):
            decode_request("not an object")
        with pytest.raises(SerializationError):
            decode_request({**base, "kind": "analyze_many"})  # needs tasks
        task_set = {"tasks": [task_to_dict(demo_task)], "beta": base["beta"]}
        for kind, params in (
            ("sp_schedulable", {"max_iterations": "x"}),
            ("sp_schedulable", {"max_iterations": 0}),
            ("sp_schedulable", {"max_iterations": True}),
            ("edf_structural_delays", {"max_iterations": 2.5}),
            ("edf_structural_delays", {"reuse": "no"}),
        ):
            with pytest.raises(SerializationError):
                decode_request({**task_set, "kind": kind, "params": params})
        dag = DAGTask.build(
            "dag", vertices={"s": 1, "t": 1}, edges=[("s", "t")], period=10
        )
        for max_paths in (-1, "2", 1.0, False):
            with pytest.raises(SerializationError):
                decode_request(
                    {
                        "kind": "dag_rta",
                        "task": dag_to_dict(dag),
                        "m": 2,
                        "params": {"max_paths": max_paths},
                    }
                )

    @pytest.mark.parametrize(
        "kind",
        ["delay", "sp_schedulable", "edf_structural_delays", "analyze_many"],
    )
    def test_result_roundtrip_is_equal(self, kind):
        tasks = _task_set()
        beta = _beta()
        if kind == "delay":
            result = bounded_delay(tasks[0], beta)
        elif kind == "sp_schedulable":
            result = sp_schedulable(tasks, beta)
        elif kind == "edf_structural_delays":
            result = edf_structural_delays(tasks, beta)
        else:
            result = analyze_many(tasks, beta)
        wire = json.loads(json.dumps(encode_result(kind, result)))
        back = decode_result(kind, wire)
        if kind == "delay":
            # critical_tuple crosses the wire as a display string.
            assert back.delay == result.delay
            assert back.busy_window == result.busy_window
            assert back.level == result.level
        else:
            assert back == result


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_accept_below_high_water(self):
        ctl = AdmissionController(max_queue=10, shed_fraction=0.5)
        d = ctl.admit(1, depth=0, sheddable=False)
        assert d.action == "accept" and d.accepted

    def test_shed_above_high_water_when_sheddable(self):
        ctl = AdmissionController(max_queue=10, shed_fraction=0.5)
        assert ctl.high_water == 5
        assert ctl.admit(1, depth=5, sheddable=True).action == "shed"
        # Non-sheddable requests still queue between high water and cap.
        assert ctl.admit(1, depth=5, sheddable=False).action == "accept"

    def test_reject_when_full(self):
        ctl = AdmissionController(max_queue=4)
        d = ctl.admit(1, depth=4, sheddable=True)
        assert d.action == "reject" and not d.accepted
        assert d.retry_after >= 1

    def test_batch_admitted_atomically(self):
        ctl = AdmissionController(max_queue=4, shed_fraction=1.0)
        assert ctl.admit(4, depth=0, sheddable=False).accepted
        assert not ctl.admit(5, depth=0, sheddable=False).accepted
        assert not ctl.admit(3, depth=2, sheddable=False).accepted

    def test_retry_after_tracks_service_time(self):
        ctl = AdmissionController(max_queue=4, min_retry_after=1, max_retry_after=60)
        assert ctl.retry_after(4) == 1  # cold start: floor
        for _ in range(20):
            ctl.observe_service_time(2.0)
        assert ctl.retry_after(4) == 8  # 4 queued * ~2s each
        assert ctl.retry_after(1000) == 60  # ceiling

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionController(shed_fraction=0.0)
        with pytest.raises(ValueError):
            AdmissionController(shed_deadline_ms=0)
        with pytest.raises(ValueError):
            AdmissionController().admit(0, depth=0, sheddable=False)


# ---------------------------------------------------------------------------
# Budget plumbing (deadline_ms -> Budget; shed tightening)
# ---------------------------------------------------------------------------


class TestBudgetPlumbing:
    def test_from_request_all_absent_is_none(self):
        assert Budget.from_request() is None

    def test_from_request_converts_ms(self):
        b = Budget.from_request(deadline_ms=250, max_expansions=100)
        assert b == Budget(deadline=0.25, max_expansions=100)

    def test_from_request_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Budget.from_request(deadline_ms=0)
        with pytest.raises(ValueError):
            Budget.from_request(max_expansions=-1)

    def test_tightened_never_loosens(self):
        b = Budget(deadline=0.1, max_expansions=50, max_segments=8)
        t = b.tightened(deadline=5.0, max_expansions=1000)
        assert t == b  # both caps already tighter
        t2 = b.tightened(deadline=0.01, max_expansions=10)
        assert t2 == Budget(deadline=0.01, max_expansions=10, max_segments=8)

    def test_tightened_adopts_caps_on_unlimited(self):
        b = Budget()
        t = b.tightened(deadline=0.05)
        assert t.deadline == 0.05 and t.max_expansions is None


# ---------------------------------------------------------------------------
# Perf histograms (the metrics plane's latency primitive)
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_observe_count_sum_mean(self):
        h = perf.Histogram()
        for v in (0.001, 0.002, 0.004, 0.1):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(0.107)
        assert h.mean() == pytest.approx(0.107 / 4)

    def test_quantile_is_bucket_upper_bound(self):
        h = perf.Histogram(bounds=[1, 2, 4, 8])
        for v in (0.5, 0.5, 3, 7):
            h.observe(v)
        assert h.quantile(0.5) == 1
        assert h.quantile(1.0) == 8

    def test_overflow_bucket(self):
        h = perf.Histogram(bounds=[1])
        h.observe(100)
        snap = h.snapshot()
        assert snap["buckets"]["+inf"] == 1

    def test_merge_roundtrip(self):
        a = perf.Histogram(bounds=[1, 2])
        b = perf.Histogram(bounds=[1, 2])
        a.observe(0.5)
        b.observe(1.5)
        b.observe(5)
        a.merge(b.snapshot())
        assert a.count == 3
        assert a.snapshot()["buckets"]["+inf"] == 1

    def test_merge_rejects_mismatched_bounds(self):
        a = perf.Histogram(bounds=[1, 2])
        b = perf.Histogram(bounds=[1, 3])
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_registry_histograms_survive_snapshot_merge(self):
        reg = perf.PerfRegistry()
        reg.observe("x.latency", 0.01)
        reg.observe("x.latency", 0.02)
        other = perf.PerfRegistry()
        other.merge(reg.snapshot())
        assert other.histograms()["x.latency"].count == 2

    def test_counter_only_snapshot_has_no_histogram_key(self):
        reg = perf.PerfRegistry()
        reg.record("n")
        assert "histograms" not in reg.snapshot()


# ---------------------------------------------------------------------------
# End-to-end over HTTP
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    handle = ServerHandle.start(
        ServiceConfig(
            port=0,
            jobs=2,
            batch_window_ms=2.0,
            max_queue=512,
            # Watchdog keeps injected worker hangs (the ambient-chaos CI
            # job) from wedging the suite; recovery stays bit-identical.
            item_timeout_s=10.0,
        )
    )
    yield handle
    handle.shutdown()


@pytest.fixture()
def client(server):
    return ServiceClient(port=server.port, timeout=300.0)


class TestServiceEndToEnd:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["protocol_version"] == 1

    def test_single_delay_matches_direct(self, client, demo_task):
        beta = _beta()
        served = client.delay(demo_task, beta)
        direct = bounded_delay(demo_task, beta)
        assert served.delay == direct.delay
        assert served.busy_window == direct.busy_window
        assert not served.degraded

    def test_analyze_many_bit_identical(self, client):
        tasks, beta = _task_set(), _beta()
        assert client.analyze_many(tasks, beta) == analyze_many(tasks, beta)

    def test_sp_and_edf_match_direct(self, client):
        tasks, beta = _task_set(), rate_latency_service(F(2), F(0))
        assert client.sp_schedulable(tasks, beta) == sp_schedulable(tasks, beta)
        assert client.edf_structural_delays(tasks, beta) == (
            edf_structural_delays(tasks, beta)
        )

    def test_batch_of_100_bit_identical_warm_cache(self, client):
        """The acceptance bar: 100 mixed requests == direct calls."""
        tasks, beta = _task_set(), _beta()
        direct_delay = {t.name: bounded_delay(t, beta) for t in tasks}
        direct_many = analyze_many(tasks, beta)
        specs = []
        for i in range(100):
            task = tasks[i % len(tasks)]
            if i % 10 == 9:
                specs.append(
                    ServiceClient.build_request("analyze_many", tasks, beta)
                )
            else:
                specs.append(ServiceClient.build_request("delay", task, beta))
        envelopes = client.batch(specs)
        assert len(envelopes) == 100
        for i, env in enumerate(envelopes):
            assert env["ok"], env
            kind = env["kind"]
            result = decode_result(kind, env["result"])
            if kind == "delay":
                expected = direct_delay[tasks[i % len(tasks)].name]
                assert result.delay == expected.delay
                assert result.busy_window == expected.busy_window
            else:
                assert result == direct_many

    def test_batch_stream_yields_all_indices(self, client, demo_task):
        beta = _beta()
        specs = [
            ServiceClient.build_request("delay", demo_task, beta)
            for _ in range(7)
        ]
        got = dict(client.batch_stream(specs))
        assert sorted(got) == list(range(7))
        assert all(env["ok"] for env in got.values())

    def test_infeasible_deadline_degrades_not_5xx(self, client, demo_task):
        """A budget the analysis cannot meet yields a sound bound."""
        beta = _beta()
        exact = bounded_delay(demo_task, beta)
        served = client.delay(demo_task, beta, max_expansions=0)
        assert served.degraded
        assert served.delay >= exact.delay  # sound over-approximation
        assert served.level in LEVELS[1:]

    def test_infeasible_deadline_ms_degrades_not_5xx(self, client):
        """A millisecond wall-clock deadline forces sound degradation.

        The heavy task's exact analysis takes several milliseconds
        (about 6 ms on a 2-vCPU VM), so ``deadline_ms=1`` cannot be met;
        the worker computes under the task/beta pair cold (it
        deserializes a fresh task object), so the budget must bite and
        the envelope must come back ok:true with a degraded-but-sound
        bound — never a 5xx.
        """
        heavy = DRTTask.build(
            "heavy",
            jobs={f"v{i}": (F(9, 4), 60 + i) for i in range(12)},
            edges=[(f"v{i}", f"v{(i + 1) % 12}", 5) for i in range(12)]
            + [(f"v{i}", f"v{i}", 7) for i in range(12)],
        )
        beta = rate_latency_service(F(1, 2), F(20))
        exact = bounded_delay(heavy, beta)
        served = client.delay(heavy, beta, deadline_ms=1)
        assert served.degraded
        assert served.delay >= exact.delay  # sound over-approximation
        assert served.level in LEVELS[1:]

    def test_analysis_error_is_typed_envelope(self, client):
        """An unbounded workload is an ok:false answer, not a 5xx."""
        beta = rate_latency_service(F(1, 100), F(0))  # overloaded server
        task = DRTTask.build(
            "hot", jobs={"x": (5, 10)}, edges=[("x", "x", 5)]
        )
        env = client.analyze_raw(
            ServiceClient.build_request("analyze_many", [task], beta)
        )
        assert env["ok"] is False
        assert env["error"]["code"] == "unbounded"
        assert env["trace_id"]

    def test_malformed_request_is_400(self, client):
        with pytest.raises(ServiceError) as info:
            client.analyze_raw({"kind": "delay"})  # no task, no beta
        assert info.value.status == 400
        assert info.value.code == "bad_request"

    def test_unknown_backend_param_is_bad_request(self, client, demo_task):
        spec = ServiceClient.build_request(
            "delay", demo_task, _beta(), params={"backend": "exact"}
        )
        with pytest.raises(ServiceError) as info:
            client.analyze_raw(spec)
        assert info.value.status == 400
        assert info.value.code == "bad_request"
        (env,) = client.batch([spec])
        assert env["ok"] is False
        assert env["error"]["code"] == "bad_request"
        assert "unknown params ['backend']" in env["error"]["message"]

    def test_unknown_route_and_method(self, client):
        status, _, _ = client.request("GET", "/no/such/route")
        assert status == 404
        status, _, _ = client.request("POST", "/healthz", {})
        assert status == 405

    def test_per_request_perf_delta(self, client, demo_task):
        env = client.analyze_raw(
            ServiceClient.build_request("delay", demo_task, _beta(), perf=True)
        )
        assert env["ok"]
        assert env["perf"]["counters"]  # nonzero engine work recorded

    def test_metrics_schema_and_batching_evidence(self, client, demo_task):
        beta = _beta()
        specs = [
            ServiceClient.build_request("delay", demo_task, beta)
            for _ in range(16)
        ]
        client.batch(specs)
        doc = client.metrics()
        for section in (
            "service",
            "requests",
            "endpoints",
            "queue",
            "batches",
            "cache",
            "perf",
        ):
            assert section in doc, section
        assert doc["service"]["draining"] is False
        assert doc["requests"]["requests_total"] > 0
        assert doc["batches"]["dispatched"] >= 1
        assert doc["batches"]["items"] >= 16
        # Coalescing must actually happen: at least one multi-request
        # micro-batch behind the 16-item submission.
        assert doc["batches"]["mean_size"] > 1.0
        assert doc["queue"]["max"] == 512
        assert "POST /v1/batch" in doc["endpoints"]
        hist = doc["endpoints"]["POST /v1/batch"]
        assert hist["count"] >= 1 and hist["latency_s"]["count"] >= 1


class TestWarmCacheService:
    def test_batch_hits_shared_result_cache(self, tmp_path, demo_task):
        from repro.parallel import cache as result_cache

        beta = _beta()
        saved = result_cache.current_config()
        result_cache.configure(str(tmp_path / "rcache"))
        try:
            handle = ServerHandle.start(
                ServiceConfig(
                    port=0, jobs=2, batch_window_ms=2.0, item_timeout_s=10.0
                )
            )
            try:
                client = ServiceClient(port=handle.port, timeout=300.0)
                specs = [
                    ServiceClient.build_request("delay", demo_task, beta)
                    for _ in range(12)
                ]
                first = client.batch(specs)
                second = client.batch(specs)
                assert [e["result"] for e in first] == [
                    e["result"] for e in second
                ]
                doc = client.metrics()
                assert doc["cache"] is not None
                # mode is the directory path for a disk-backed cache
                assert doc["cache"]["mode"].endswith("rcache")
                assert doc["cache"]["hits"] > 0  # warm second round
                assert doc["cache"]["put_failures"] == 0
            finally:
                handle.shutdown()
        finally:
            result_cache.apply_config(saved)


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self, demo_task):
        beta = _beta()
        handle = ServerHandle.start(
            ServiceConfig(
                port=0,
                jobs=1,
                max_queue=2,
                batch_window_ms=100.0,
                item_timeout_s=10.0,
            )
        )
        try:
            client = ServiceClient(
                port=handle.port, timeout=300.0, max_retries=0
            )
            specs = [
                ServiceClient.build_request("delay", demo_task, beta)
                for _ in range(5)
            ]
            status, headers, payload = client.request(
                "POST", "/v1/batch", {"requests": specs}
            )
            assert status == 429
            assert int(headers["retry-after"]) >= 1
            doc = json.loads(payload)
            assert doc["error"]["code"] == "queue_full"
        finally:
            handle.shutdown()

    def test_client_retries_429_until_drained(self, demo_task):
        beta = _beta()
        handle = ServerHandle.start(
            ServiceConfig(
                port=0,
                jobs=1,
                max_queue=2,
                batch_window_ms=5.0,
                item_timeout_s=10.0,
            )
        )
        try:
            client = ServiceClient(
                port=handle.port,
                timeout=300.0,
                max_retries=8,
                backoff_s=0.05,
                backoff_cap_s=0.2,
            )
            # Sequential singles never exceed the queue; a retried batch
            # lands once earlier work drains.
            for _ in range(3):
                assert client.delay(demo_task, beta).delay is not None
        finally:
            handle.shutdown()

    def test_overload_sheds_to_degraded_sound_bound(self, demo_task):
        """Above high water, deadline-carrying requests degrade, not 429."""
        beta = _beta()
        exact = bounded_delay(demo_task, beta)
        handle = ServerHandle.start(
            ServiceConfig(
                port=0,
                jobs=1,
                max_queue=8,
                shed_fraction=0.25,  # high water = 2
                shed_deadline_ms=1e-6,  # degrade immediately
                batch_window_ms=2.0,
                item_timeout_s=10.0,
            )
        )
        try:
            client = ServiceClient(port=handle.port, timeout=300.0)
            specs = [
                ServiceClient.build_request(
                    "delay", demo_task, beta, deadline_ms=60_000
                )
                for _ in range(4)  # 4 > high water, <= max_queue
            ]
            envelopes = client.batch(specs)
            assert all(e["ok"] for e in envelopes)
            assert all(e["shed"] for e in envelopes)
            for env in envelopes:
                result = decode_result("delay", env["result"])
                assert result.delay >= exact.delay  # sound under shedding
            doc = client.metrics()
            assert doc["requests"]["shed"] >= 4
        finally:
            handle.shutdown()


class TestStreamColdPool:
    def test_stream_terminates_when_pool_forks_mid_connection(
        self, demo_task
    ):
        """batch_stream must terminate on a freshly booted server.

        Regression test: the first plane dispatch forks the worker pool
        while the streaming connection is open, so the children inherit
        a duplicate of its fd.  With close-delimited framing the client
        waits for an EOF that cannot arrive until the pool itself dies;
        the chunked framing ends the stream explicitly.
        """
        import time

        beta = _beta()
        handle = ServerHandle.start(
            ServiceConfig(port=0, jobs=2, item_timeout_s=10.0)
        )
        try:
            client = ServiceClient(port=handle.port, timeout=60.0)
            specs = [
                ServiceClient.build_request("delay", demo_task, beta)
                for _ in range(7)
            ]
            t0 = time.monotonic()
            got = dict(client.batch_stream(specs))
            elapsed = time.monotonic() - t0
            assert sorted(got) == list(range(7))
            assert all(env["ok"] for env in got.values())
            # Far below the only other EOF source (pool teardown at
            # process exit — i.e. never, within a test run).
            assert elapsed < 30.0
        finally:
            handle.shutdown()


class _Gate:
    """Holds every ``delay`` execution until :meth:`open` (jobs=1 runs
    the executor in the dispatch thread, so the batch stays in flight)."""

    def __init__(self, monkeypatch) -> None:
        import threading

        from repro.service import batching

        self.entered = threading.Event()
        self._released = threading.Event()
        inner = batching._EXECUTORS["delay"]

        def _held(req):
            self.entered.set()
            assert self._released.wait(60), "gate never opened"
            return inner(req)

        monkeypatch.setitem(batching._EXECUTORS, "delay", _held)

    def open(self) -> None:
        self._released.set()


class TestIdleDispatch:
    def test_lone_request_pays_no_window(self, demo_task):
        import time

        beta = _beta()
        handle = ServerHandle.start(
            ServiceConfig(port=0, jobs=1, batch_window_ms=200.0)
        )
        try:
            client = ServiceClient(port=handle.port, timeout=60.0)
            elapsed = []
            for _ in range(3):
                t0 = time.perf_counter()
                assert client.delay(demo_task, beta).delay is not None
                elapsed.append(time.perf_counter() - t0)
            assert min(elapsed) < 0.1, elapsed
            assert client.metrics()["batches"]["dispatched"] == 3
        finally:
            handle.shutdown()

    def test_arrivals_during_a_batch_coalesce(self, demo_task, monkeypatch):
        import threading
        import time

        beta = _beta()
        gate = _Gate(monkeypatch)
        handle = ServerHandle.start(
            ServiceConfig(
                port=0, jobs=1, batch_window_ms=500.0, item_timeout_s=10.0
            )
        )
        try:
            results = []

            def _one():
                client = ServiceClient(port=handle.port, timeout=60.0)
                results.append(client.delay(demo_task, beta))

            first = threading.Thread(target=_one)
            first.start()
            assert gate.entered.wait(30)  # the lone request is in flight
            rest = [threading.Thread(target=_one) for _ in range(4)]
            for t in rest:
                t.start()
            while handle.server.batcher.depth < 5:
                time.sleep(0.005)
            gate.open()
            for t in [first, *rest]:
                t.join(60)
            expected = bounded_delay(demo_task, beta).delay
            assert [r.delay for r in results] == [expected] * 5
            batches = ServiceClient(port=handle.port).metrics()["batches"]
            assert batches["dispatched"] < 5
            assert batches["mean_size"] > 1.0
        finally:
            gate.open()
            handle.shutdown()


class TestMetricsOffLoop:
    def test_slow_cache_stats_do_not_block_healthz(self, server, monkeypatch):
        """``/metrics`` builds its document off the event loop: the
        cache section walks the cache directory, which grows."""
        assert healthz_during_slow_metrics_s(server.port, monkeypatch) < 0.1


class TestDrain:
    def test_sigterm_style_drain_finishes_inflight(
        self, demo_task, monkeypatch
    ):
        import threading

        beta = _beta()
        gate = _Gate(monkeypatch)
        handle = ServerHandle.start(
            ServiceConfig(port=0, jobs=1, batch_window_ms=20.0, item_timeout_s=10.0)
        )
        client = ServiceClient(port=handle.port, timeout=300.0)
        results = []

        def _work():
            results.append(client.delay(demo_task, beta))

        t = threading.Thread(target=_work)
        t.start()
        # The request is dispatched at once and held in flight by the
        # gate; the drain starts while it runs and must wait for it.
        assert gate.entered.wait(30)
        threading.Timer(0.2, gate.open).start()
        clean = handle.shutdown(drain=True)
        t.join(timeout=60)
        assert clean
        assert len(results) == 1
        assert results[0].delay == bounded_delay(demo_task, beta).delay
        # New connections are refused after drain.
        with pytest.raises((ServiceError, OSError)):
            ServiceClient(
                port=handle.port, timeout=5.0, max_retries=0
            ).healthz()
