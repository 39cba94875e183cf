"""Entry-path conformance: every kind gives the same exact result on
every way in.

One request per kind in :data:`repro.service.protocol.KIND_REGISTRY`
goes through the library, ``repro serve`` (``/v1/analyze``,
``/v1/batch``, streamed ``/v1/batch``, ``/v1/whatif``) and a 2-worker
cluster coordinator (the same four routes).  Each served envelope is
decoded with :func:`repro.service.protocol.decode_result` and compared
with the library result taken through the same encode/decode, so every
``Fraction`` must match exactly.  The case table must cover the whole
registry: a new kind cannot join the wire protocol without joining
this test.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest

from repro.cluster import ClusterHandle
from repro.core.facade import analyze_many
from repro.curves.service import rate_latency_service
from repro.drt.model import DRTTask
from repro.mp import (
    DAGTask,
    dag_rta,
    global_fp_schedulable,
    global_rm_schedulable,
)
from repro.resilience import bounded_delay, chaos
from repro.sched.edf_delay import edf_structural_delays
from repro.sched.sp import sp_schedulable
from repro.service import ServerHandle, ServiceClient, ServiceConfig
from repro.service.protocol import KIND_REGISTRY, decode_result, encode_result
from repro.whatif import whatif_sweep
from repro.whatif.edits import ScaleWcet, SetWcet, TightenBeta

pytestmark = pytest.mark.usefixtures("no_orphaned_servers")


@pytest.fixture(autouse=True, scope="module")
def _no_ambient_chaos():
    """Exact equality is the assertion — mask ambient fault injection."""
    saved = chaos.current_config()
    chaos.apply_config(None)
    yield
    chaos.apply_config(saved)


BETA = rate_latency_service(F(1, 2), F(2))
M = 2


def _task(seed: int) -> DRTTask:
    jobs = {
        f"v{i}": (1 + (seed + i) % 2, 5 + (seed + 2 * i) % 5)
        for i in range(3)
    }
    names = list(jobs)
    edges = [
        (a, b, 10 + (seed + i) % 5)
        for i, (a, b) in enumerate(zip(names, names[1:] + names[:1]))
    ]
    return DRTTask.build(f"c{seed}", jobs=jobs, edges=edges)


def _dag(i: int) -> DAGTask:
    return DAGTask.build(
        f"d{i}",
        vertices={"s": 1 + i, "a": F(7, 2), "b": 2, "t": 1},
        edges=[("s", "a"), ("s", "b"), ("a", "t"), ("b", "t")],
        period=60 + 10 * i,
    )


TASK = _task(1)
TASKS = [_task(s) for s in range(2)]
DAGS = [_dag(i) for i in range(3)]
EDITS = [
    SetWcet("v0", F(2)),
    SetWcet("v1", F(1)),
    ScaleWcet(F(3, 2)),
    TightenBeta(F(3, 4), F(1)),
]

#: kind -> (library call, ServiceClient.build_request args, kwargs)
CASES = {
    "delay": (lambda: bounded_delay(TASK, BETA), ("delay", TASK, BETA), {}),
    "bounded_delay": (
        lambda: bounded_delay(TASK, BETA), ("bounded_delay", TASK, BETA), {}
    ),
    "sp_schedulable": (
        lambda: sp_schedulable(TASKS, BETA),
        ("sp_schedulable", TASKS, BETA),
        {},
    ),
    "edf_structural_delays": (
        lambda: edf_structural_delays(TASKS, BETA),
        ("edf_structural_delays", TASKS, BETA),
        {},
    ),
    "analyze_many": (
        lambda: analyze_many(TASKS, BETA), ("analyze_many", TASKS, BETA), {}
    ),
    "whatif_sweep": (
        lambda: whatif_sweep(TASK, BETA, EDITS),
        ("whatif_sweep", TASK, BETA),
        {"edits": EDITS},
    ),
    "dag_rta": (lambda: dag_rta(DAGS[0], m=M), ("dag_rta", DAGS[0]), {"m": M}),
    "global_fp_schedulable": (
        lambda: global_fp_schedulable(DAGS, m=M),
        ("global_fp_schedulable", DAGS),
        {"m": M},
    ),
    "global_rm_schedulable": (
        lambda: global_rm_schedulable(DAGS, m=M),
        ("global_rm_schedulable", DAGS),
        {"m": M},
    ),
}
KINDS = sorted(CASES)


def _spec(kind: str):
    _library, args, kwargs = CASES[kind]
    return ServiceClient.build_request(*args, **kwargs)


def _canonical(kind: str, result):
    """The library result as a client decodes it off the wire."""
    wire = json.loads(json.dumps(encode_result(kind, result)))
    return decode_result(kind, wire)


@pytest.fixture(scope="module")
def expected():
    return {kind: _canonical(kind, CASES[kind][0]()) for kind in KINDS}


@pytest.fixture(scope="module")
def serve():
    handle = ServerHandle.start(ServiceConfig(port=0, batch_window_ms=1.0))
    yield handle
    handle.shutdown(timeout=30)


@pytest.fixture(scope="module")
def cluster():
    handle = ClusterHandle.start(
        n_workers=2,
        worker_mode="thread",
        probe_interval_s=0.5,
        worker_config=ServiceConfig(batch_window_ms=1.0),
    )
    yield handle
    handle.shutdown(timeout=30)


@pytest.fixture(params=["serve", "cluster"])
def client(request):
    handle = request.getfixturevalue(request.param)
    return ServiceClient(port=handle.port, timeout=120, max_retries=2)


def _check(kind: str, envelope, expected) -> None:
    assert envelope.get("ok"), envelope
    assert decode_result(kind, envelope["result"]) == expected[kind]


def test_cases_cover_every_registered_kind():
    assert set(CASES) == set(KIND_REGISTRY)


def test_library_matches_its_wire_form(expected):
    """The canonical form loses nothing the comparison relies on."""
    for kind in ("delay", "dag_rta"):
        direct = CASES[kind][0]()
        for field in ("delay", "busy_window", "response", "graham"):
            if hasattr(direct, field):
                assert getattr(expected[kind], field) == getattr(direct, field)


@pytest.mark.parametrize("kind", KINDS)
def test_analyze_route(client, expected, kind):
    _check(kind, client.analyze_raw(_spec(kind)), expected)


def test_batch_route(client, expected):
    envelopes = client.batch([_spec(kind) for kind in KINDS])
    assert len(envelopes) == len(KINDS)
    for kind, envelope in zip(KINDS, envelopes):
        _check(kind, envelope, expected)


def test_batch_stream_route(client, expected):
    settled = dict(client.batch_stream([_spec(kind) for kind in KINDS]))
    assert sorted(settled) == list(range(len(KINDS)))
    for index, kind in enumerate(KINDS):
        _check(kind, settled[index], expected)


def test_whatif_route(client, expected):
    served = client.whatif_sweep(TASK, BETA, EDITS)
    assert served == expected["whatif_sweep"]
    assert served == whatif_sweep(TASK, BETA, EDITS)
