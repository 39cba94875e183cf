"""Per-layer probes of the traced run.

After the traced end-to-end loop, each layer's public functions are
called from here on the workload's own inputs (a sample of its distinct
ops; what-if sweeps over those tasks and multiprocessor DAGs, which no
workload sends, come from the seed), each call inside a span, and the library's ``repro.perf`` counters
are read before and after.  Nothing inside the library is instrumented
by the benchmark.  The service layer is probed on a short-lived
``repro serve`` fed the workload's ops, and so is the cluster layer for
``analyze-cold``, so that every traced run reports every layer.

Which end-to-end metric each layer should move, and where it should
stay flat, is tabulated in ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Dict, List, Optional, Sequence, Tuple

import inputs
import measure
import workloads
from inputs import Op

#: Distinct DRT (task, beta) pairs timed through drt/core/minplus.
DRT_SAMPLE = 18
#: Distinct ops sent to a probe service instance (each twice).
SERVICE_SAMPLE = 16
SWEEP_SAMPLE = 4
HEALTHZ_SAMPLES = 40

Metrics = Dict[str, Tuple[float, str]]


def _timed(ctx, name: str, fn, *args):
    with ctx.span(name):
        t0 = time.perf_counter()
        result = fn(*args)
        return result, 1000.0 * (time.perf_counter() - t0)


def _delta(before: Dict[str, int], after: Dict[str, int], name: str) -> int:
    return after.get(name, 0) - before.get(name, 0)


def _distinct(ops: Sequence[Op]) -> List[Op]:
    seen, out = set(), []
    for op in ops:
        if id(op) not in seen:
            seen.add(id(op))
            out.append(op)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def hist_quantile(snap: Optional[dict], q: float) -> float:
    """Quantile of a ``repro.perf`` histogram snapshot, interpolated
    linearly inside the bucket that holds it (milliseconds)."""
    if not snap or not snap.get("count"):
        return 0.0
    target = q * snap["count"]
    lower, seen = 0.0, 0
    for bound, n in snap["buckets"].items():
        upper = float("inf") if bound == "+inf" else float(bound)
        if n and seen + n >= target:
            if upper == float("inf"):
                return 1000.0 * lower
            return 1000.0 * (lower + (upper - lower) * (target - seen) / n)
        seen += n
        lower = upper
    return 1000.0 * lower


# ----------------------------------------------------------------------
# library layers: repro.drt, repro.core, repro.minplus
# ----------------------------------------------------------------------


def _library(ctx, pairs) -> Tuple[Metrics, list]:
    from repro import StructuralAnalysis, perf
    from repro.core.busy_window import busy_window_bound
    from repro.drt.request import frontier_explorer
    from repro.drt.utilization import max_cycle_ratio
    from repro.minplus.deviation import horizontal_deviation, lower_pseudo_inverse_batch

    t = {k: [] for k in ("frontier", "cycle", "bw", "bw_len", "delay", "backlog", "pinv", "hdev", "segs")}
    expanded = pruned = fallbacks = screens = 0
    results = []
    for task, beta in pairs:
        bw, ms = _timed(ctx, "core.busy_window_bound", busy_window_bound, inputs.fresh_task(task), beta)
        t["bw"].append(ms)
        t["bw_len"].append(float(bw.length))
        before = perf.counters()
        explorer = frontier_explorer(inputs.fresh_task(task))
        _, ms = _timed(ctx, "drt.frontier.extend_to", explorer.extend_to, bw.length)
        after = perf.counters()
        t["frontier"].append(ms)
        expanded += _delta(before, after, "frontier.tuples_expanded")
        pruned += _delta(before, after, "frontier.tuples_pruned")
        t["cycle"].append(_timed(ctx, "drt.max_cycle_ratio", max_cycle_ratio, inputs.fresh_task(task))[1])

        analysis = StructuralAnalysis(inputs.fresh_task(task), beta)
        analysis.busy_window()
        t["delay"].append(_timed(ctx, "core.delay", analysis.delay)[1])
        t["backlog"].append(_timed(ctx, "core.backlog", analysis.backlog)[1])
        results.append(analysis.delay_result())

        works = sorted({seg.value for seg in bw.rbf.segments if seg.value > 0})
        before = perf.counters()
        t["pinv"].append(_timed(ctx, "minplus.lower_pseudo_inverse_batch", lower_pseudo_inverse_batch, beta, works)[1])
        t["hdev"].append(_timed(ctx, "minplus.horizontal_deviation", horizontal_deviation, bw.rbf, beta)[1])
        after = perf.counters()
        fallbacks += _delta(before, after, "kernel.exact_fallbacks")
        screens += _delta(before, after, "kernel.screen_hits")
        t["segs"] += [len(beta.segments), len(bw.rbf.segments), len(beta.segments)]
    med = measure.median
    return {
        "drt.frontier_ms": (med(t["frontier"]), "ms"),
        "drt.cycle_ratio_ms": (med(t["cycle"]), "ms"),
        "drt.tuples_expanded": (expanded, "count"),
        "drt.tuples_pruned": (pruned, "count"),
        "drt.prune_ratio": (_ratio(pruned, expanded), "ratio"),
        "core.busy_window_ms": (med(t["bw"]), "ms"),
        "core.busy_window_len": (med(t["bw_len"]), "time"),
        "core.delay_ms": (med(t["delay"]), "ms"),
        "core.backlog_ms": (med(t["backlog"]), "ms"),
        "minplus.pinv_ms": (med(t["pinv"]), "ms"),
        "minplus.hdev_ms": (med(t["hdev"]), "ms"),
        "minplus.segments_p50": (med(t["segs"]), "count"),
        "minplus.segments_max": (max(t["segs"]), "count"),
        "minplus.exact_fallbacks": (fallbacks, "count"),
        "minplus.screen_hits": (screens, "count"),
    }, results


# ----------------------------------------------------------------------
# repro.whatif and repro.mp
# ----------------------------------------------------------------------


def _whatif(ctx, sweeps: Sequence[Op]) -> Metrics:
    from repro import perf, whatif_sweep

    times, reused, expanded = [], 0, 0
    for op in sweeps:
        before = perf.counters()
        times.append(_timed(ctx, "whatif.whatif_sweep", whatif_sweep,
                            inputs.fresh_task(op.subject), op.beta, list(op.edits))[1])
        after = perf.counters()
        reused += _delta(before, after, "frontier.tuples_reused")
        expanded += _delta(before, after, "frontier.tuples_expanded")
    return {
        "whatif.sweep_ms": (measure.median(times), "ms"),
        "whatif.reuse_ratio": (_ratio(reused, reused + expanded), "ratio"),
    }


def _mp(ctx, ops: Sequence[Op]) -> Metrics:
    from repro.mp import dag_rta, global_fp_schedulable
    from repro.mp.io import dag_from_dict, dag_to_dict

    def fresh(dag):
        return dag_from_dict(dag_to_dict(dag))

    rta, fp = [], []
    for op in ops:
        if op.kind == "dag_rta":
            rta.append(_timed(ctx, "mp.dag_rta", dag_rta, fresh(op.subject), op.m)[1])
        elif op.kind == "global_fp_schedulable":
            fp.append(_timed(ctx, "mp.global_fp_schedulable", global_fp_schedulable,
                             [fresh(d) for d in op.subject], op.m)[1])
    return {
        "mp.dag_rta_ms": (measure.median(rta), "ms"),
        "mp.global_fp_ms": (measure.median(fp), "ms"),
    }


# ----------------------------------------------------------------------
# repro.parallel result cache
# ----------------------------------------------------------------------


def _cache(ctx, values: Sequence[object]) -> Metrics:
    from repro.parallel import cache

    blobs = [pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL) for v in values]
    keys = [cache.blob_digest(b) for b in blobs]
    cache.configure(ctx.fresh_dir("probe-cache"))
    try:
        puts = [_timed(ctx, "parallel.cache.put", cache.put, k, v)[1] for k, v in zip(keys, values)]
        gets = [_timed(ctx, "parallel.cache.get", cache.get, k)[1] for k in keys]
    finally:
        cache.configure(None)
    return {
        "cache.get_ms": (measure.median(gets), "ms"),
        "cache.put_ms": (measure.median(puts), "ms"),
        "cache.blob_bytes_p50": (measure.median([len(b) for b in blobs]), "bytes"),
    }


# ----------------------------------------------------------------------
# repro.service and repro.cluster
# ----------------------------------------------------------------------


def _drive(ctx, mode: str, ops: Sequence[Op]):
    """A short-lived instance fed every op twice (a miss, then a hit);
    returns its ``/metrics`` document, the records, the ``/healthz``
    round trip and the ops that failed."""
    from repro.service import ServiceClient

    extra = ("--workers", "2") if mode == "cluster" else ()
    service = measure.Service.launch(ctx.root, mode, ctx.fresh_dir("probe"),
                                     f"{ctx.tmp}/probe-{mode}.log", extra)
    try:
        service.wait_ready()
        client = ServiceClient(port=service.port, max_retries=0, timeout=120.0)
        records = []
        for i, op in enumerate(list(ops) * 2):
            with ctx.span("probe.op", op=f"probe-{mode}-{i}"):
                t0 = time.perf_counter()
                result, error = workloads.exchange(client, op)
                records.append(workloads.Record(i, op, time.perf_counter() - t0, result, error))
        _, doc = measure.get_json(service.port, "/metrics")
        floor = _http_floor(ctx, service.port)
    finally:
        service.stop()
    failed = [f"probe {mode} op {r.index} ({r.op.kind}): {r.error}" for r in records if r.error]
    return doc, records, floor, failed


def _http_floor(ctx, port: int) -> float:
    times = []
    for _ in range(HEALTHZ_SAMPLES):
        with ctx.span("service.healthz"):
            t0 = time.perf_counter()
            measure.get_json(port, "/healthz")
            times.append(1000.0 * (time.perf_counter() - t0))
    return measure.median(times)


def _client_mean(records) -> float:
    lat = [1000.0 * r.latency_s for r in records if r.error is None]
    return sum(lat) / len(lat) if lat else 0.0


def hist_mean(snap: Optional[dict]) -> float:
    """Exact mean of a ``repro.perf`` histogram snapshot (milliseconds)."""
    if not snap or not snap.get("count"):
        return 0.0
    return 1000.0 * snap["sum"] / snap["count"]


def _service(ctx, doc: dict, records, floor: float, ops: Sequence[Op]) -> Metrics:
    from repro.service import protocol

    server = doc["endpoints"].get("POST /v1/analyze", {}).get("latency_s")
    decode = [_timed(ctx, "service.protocol.decode_request", protocol.decode_request, op.wire())[1]
              for op in ops]
    served = {id(r.op): r for r in records if r.error is None}
    encode = [_timed(ctx, "service.protocol.encode_result", protocol.encode_result, r.op.kind, r.result)[1]
              for r in served.values()]
    requests = doc.get("requests", {})
    return {
        "service.http_floor_ms": (floor, "ms"),
        "service.server_ms_p50": (hist_quantile(server, 0.5), "ms"),
        "service.wire_ms": (_client_mean(records) - hist_mean(server), "ms"),
        "protocol.decode_ms": (measure.median(decode), "ms"),
        "protocol.encode_ms": (measure.median(encode), "ms"),
        "service.batch_mean_size": (doc["batches"].get("mean_size") or 0.0, "count"),
        "service.queue_high_water": (doc["queue"].get("high_water") or 0, "count"),
        "service.rejected": (requests.get("rejected", 0), "count"),
        "cache.hit_rate": (doc["cache"].get("hit_rate") or 0.0, "ratio"),
    }


def _cluster(ctx, doc: dict, records, ops: Sequence[Op]) -> Metrics:
    from repro.cluster.routing import memo_clear, routing_digest

    route = []
    for op in ops:
        memo_clear()
        route.append(_timed(ctx, "cluster.routing_digest", routing_digest, op.wire())[1])
    workers = doc["rollup"]["endpoints"].get("POST /v1/analyze", {}).get("latency_s")
    load = []
    for wdoc in doc["workers"].values():
        load.append(sum(e.get("count", 0) for name, e in wdoc.get("endpoints", {}).items()
                        if name.startswith("POST")))
    return {
        "cluster.route_ms": (measure.median(route), "ms"),
        "cluster.proxy_ms": (_client_mean(records) - hist_mean(workers), "ms"),
        "cluster.retries": (doc["coordinator"]["requests"].get("proxy_failovers", 0), "count"),
        "cluster.worker_hit_rate": (doc["rollup"]["cache"].get("hit_rate") or 0.0, "ratio"),
        "cluster.placement_skew": (_ratio(max(load), sum(load) / len(load)), "ratio"),
    }


def measure_layers(ctx, workload: str, outcome) -> Metrics:
    ops = _distinct(r.op for r in outcome.records)
    pairs = [(op.subject, op.beta) for op in ops[:DRT_SAMPLE]]
    sample = ops[:SERVICE_SAMPLE]

    out: Metrics = {}
    lib, results = _library(ctx, pairs)
    out.update(lib)
    out.update(_whatif(ctx, inputs.probe_sweeps(ctx.seed, pairs[:SWEEP_SAMPLE])))
    out.update(_mp(ctx, inputs.probe_mp(ctx.seed)))
    if outcome.service is not None:
        served = {id(r.op): r.result for r in outcome.records if r.error is None}
        results += list(served.values())[:SERVICE_SAMPLE]
    out.update(_cache(ctx, results))

    doc, records, floor, failed = _drive(ctx, "serve", sample)
    outcome.failures += failed
    out.update(_service(ctx, doc, records, floor, sample))
    if workload == "cluster-reference":
        doc, records = outcome.metrics_doc, outcome.records
    else:
        doc, records, _, failed = _drive(ctx, "cluster", sample)
        outcome.failures += failed
    out.update(_cluster(ctx, doc, records, sample))

    e2e = outcome.end_to_end()
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"):
        out[f"trace.{name}"] = e2e[name]
    out["host.steal_share"] = (outcome.steal_share, "share")
    out["cpu_count"] = (os.cpu_count() or 1, "count")
    return out
