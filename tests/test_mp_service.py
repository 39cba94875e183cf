"""The three multiprocessor kinds through the service stack: protocol,
placement, single server, cluster coordinator, caching, shedding."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from repro.cluster import ClusterHandle
from repro.cluster.routing import routing_digest
from repro.mp import (
    DAGTask,
    dag_rta,
    dag_to_dict,
    global_fp_schedulable,
    global_rm_schedulable,
)
from repro.resilience import chaos
from repro.service import (
    ServerHandle,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    decode_request,
    decode_result,
    encode_result,
)
from repro.service.protocol import (
    KIND_REGISTRY,
    MP_KINDS,
    SINGLE_TASK_KINDS,
    is_sheddable,
    request_placement,
)

pytestmark = pytest.mark.usefixtures("no_orphaned_servers")


@pytest.fixture(autouse=True, scope="module")
def _no_ambient_chaos():
    """Strict bit-identity assertions — mask ambient fault injection."""
    saved = chaos.current_config()
    chaos.apply_config(None)
    yield
    chaos.apply_config(saved)


def _dag(i=0) -> DAGTask:
    return DAGTask.build(
        f"dag{i}",
        vertices={"s": 1 + i, "a": F(7, 2), "b": 2, "t": 1},
        edges=[("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
        period=60 + 10 * i,
    )


def _dag_set():
    return [_dag(i) for i in range(3)]


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestMpProtocol:
    def test_registry_rows(self):
        assert MP_KINDS == {
            "dag_rta",
            "global_fp_schedulable",
            "global_rm_schedulable",
        }
        for kind in MP_KINDS:
            spec = KIND_REGISTRY[kind]
            assert spec.model == "dag"
            assert spec.needs_m and not spec.needs_beta
        assert is_sheddable("dag_rta")
        assert not is_sheddable("global_fp_schedulable")
        assert "dag_rta" not in SINGLE_TASK_KINDS  # DRT-only set

    def test_decode_dag_rta_request(self):
        req = decode_request(
            {
                "kind": "dag_rta",
                "task": dag_to_dict(_dag()),
                "m": 3,
                "params": {"max_paths": 2},
            }
        )
        assert req.kind == "dag_rta"
        assert req.beta is None
        assert req.tasks[0] == _dag()
        assert req.params["m"] == 3
        assert req.params["max_paths"] == 2

    @pytest.mark.parametrize(
        "mutation",
        [
            {"m": None},
            {"m": 0},
            {"m": True},
            {"m": "2"},
            {"beta": {"rate": "1", "latency": "0"}},
            {"params": {"max_iterations": 5}},
        ],
    )
    def test_bad_dag_rta_requests_rejected(self, mutation):
        base = {"kind": "dag_rta", "task": dag_to_dict(_dag()), "m": 2}
        spec = {**base, **mutation}
        if spec["m"] is None:
            del spec["m"]
        with pytest.raises(Exception):
            decode_request(spec)

    def test_m_rejected_on_single_resource_kind(self):
        from repro.drt.model import DRTTask
        from repro.io.json_io import task_to_dict

        task = DRTTask.build("t", jobs={"a": (1, 5)}, edges=[("a", "a", 5)])
        with pytest.raises(Exception, match="takes no 'm'"):
            decode_request(
                {
                    "kind": "delay",
                    "task": task_to_dict(task),
                    "beta": {"rate": "1", "latency": "0"},
                    "m": 2,
                }
            )

    @pytest.mark.parametrize(
        "kind, result",
        [
            ("dag_rta", lambda: dag_rta(_dag(), 3)),
            ("global_fp_schedulable", lambda: global_fp_schedulable(_dag_set(), 2)),
            ("global_rm_schedulable", lambda: global_rm_schedulable(_dag_set(), 2)),
        ],
    )
    def test_result_codec_round_trip(self, kind, result):
        direct = result()
        assert decode_result(kind, encode_result(kind, direct)) == direct

    def test_placement_depends_on_m_and_structure(self):
        def place(dag, m):
            return request_placement(
                decode_request(
                    {"kind": "dag_rta", "task": dag_to_dict(dag), "m": m}
                )
            )

        assert place(_dag(), 2) == place(_dag(), 2)
        assert place(_dag(), 2) != place(_dag(), 3)
        assert place(_dag(0), 2) != place(_dag(1), 2)

    def test_routing_digest_matches_placement(self):
        spec = {"kind": "dag_rta", "task": dag_to_dict(_dag()), "m": 4}
        assert routing_digest(spec) == request_placement(decode_request(spec))
        set_spec = {
            "kind": "global_rm_schedulable",
            "tasks": [dag_to_dict(d) for d in _dag_set()],
            "m": 2,
        }
        assert routing_digest(set_spec) == request_placement(
            decode_request(set_spec)
        )


# ---------------------------------------------------------------------------
# Single server end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def server():
    handle = ServerHandle.start(
        ServiceConfig(
            port=0, jobs=2, batch_window_ms=2.0, item_timeout_s=10.0
        )
    )
    yield handle
    handle.shutdown()


@pytest.fixture()
def client(server):
    return ServiceClient(port=server.port, timeout=300.0)


class TestMpServiceEndToEnd:
    def test_dag_rta_matches_direct(self, client):
        dag = _dag()
        served = client.dag_rta(dag, 3)
        direct = dag_rta(dag, 3)
        assert served == direct
        assert not served.degraded

    def test_global_fp_and_rm_match_direct(self, client):
        dags = _dag_set()
        assert client.global_fp_schedulable(dags, 2) == global_fp_schedulable(
            dags, 2
        )
        assert client.global_rm_schedulable(dags, 2) == global_rm_schedulable(
            dags, 2
        )

    def test_cached_re_request_bit_identical(self, client):
        dag = _dag(7)
        first = client.dag_rta(dag, 4)
        again = client.dag_rta(dag, 4)
        assert again == first
        dags = _dag_set()
        assert client.global_rm_schedulable(dags, 3) == (
            client.global_rm_schedulable(dags, 3)
        )

    def test_max_paths_param_round_trips(self, client):
        dag = _dag()
        served = client.dag_rta(dag, 4, max_paths=1)
        assert served == dag_rta(dag, 4, max_paths=1)
        assert len(served.path_lengths) == 1

    def test_sheddable_dag_rta_degrades_not_errors(self, client):
        served = client.dag_rta(_dag(), 4, max_expansions=1)
        assert served.degraded
        assert served.level == "graham"
        assert served.response == served.graham

    def test_mixed_batch_with_drt_kinds(self, client):
        from repro.curves.service import rate_latency_service
        from repro.drt.model import DRTTask
        from repro.resilience import bounded_delay

        task = DRTTask.build(
            "drt", jobs={"a": (1, 5)}, edges=[("a", "a", 5)]
        )
        beta = rate_latency_service(F(1), F(0))
        specs = [
            ServiceClient.build_request("delay", task, beta),
            ServiceClient.build_request("dag_rta", _dag(), m=2),
            ServiceClient.build_request(
                "global_rm_schedulable", _dag_set(), m=2
            ),
        ]
        envelopes = client.batch(specs)
        assert all(env["ok"] for env in envelopes)
        delay = decode_result("delay", envelopes[0]["result"])
        assert delay.delay == bounded_delay(task, beta).delay
        assert decode_result("dag_rta", envelopes[1]["result"]) == dag_rta(
            _dag(), 2
        )
        assert decode_result(
            "global_rm_schedulable", envelopes[2]["result"]
        ) == global_rm_schedulable(_dag_set(), 2)

    def test_unschedulable_constrained_deadline_is_typed_error(self, client):
        bad = DAGTask.chain("loose", [1], period=5, deadline=9)
        with pytest.raises(ServiceError) as exc:
            client.global_fp_schedulable([bad], 2)
        assert exc.value.code in ("validation", "bad_request")


# ---------------------------------------------------------------------------
# Cluster coordinator end-to-end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="class")
def cluster():
    handle = ClusterHandle.start(
        n_workers=2,
        worker_mode="thread",
        probe_interval_s=0.2,
        probe_failures=2,
        worker_config=ServiceConfig(batch_window_ms=1.0),
    )
    yield handle
    handle.shutdown(timeout=30)


class TestMpClusterEndToEnd:
    def _client(self, cluster) -> ServiceClient:
        return ServiceClient(port=cluster.port, timeout=60, max_retries=2)

    def test_all_three_kinds_match_direct(self, cluster):
        client = self._client(cluster)
        dag, dags = _dag(), _dag_set()
        assert client.dag_rta(dag, 2) == dag_rta(dag, 2)
        assert client.global_fp_schedulable(dags, 2) == (
            global_fp_schedulable(dags, 2)
        )
        assert client.global_rm_schedulable(dags, 2) == (
            global_rm_schedulable(dags, 2)
        )

    def test_placement_is_sticky_and_cached_rerequest_identical(self, cluster):
        client = self._client(cluster)
        dag = _dag(5)
        owners = set()
        results = []
        for _ in range(3):
            results.append(client.dag_rta(dag, 3))
            owners.add(client.last_route.worker)
        assert len(owners) == 1
        assert results[0] == results[1] == results[2]
