"""The closed-loop workloads and their correctness oracles.

Each runner sets the system up several times (reporting the median
set-up), runs ops back to back for a fixed wall-clock window, and only
then checks every op against an independent in-process answer, so the
checks never sit inside the timed window.  Both send the same reference
population of DRT tasks (``inputs.analyze_pool``), one entry layer
each:

* ``analyze-cold``: the library in-process, a fresh task object per op;
  checked against brute-force path enumeration.
* ``cluster-reference``: a two-worker ``repro cluster``; every task
  first-seen once (a result-cache write), three in ten ops a repeat (a
  cache read); checked against the library on the decoded request.

One client thread drives each.  With two, the load generator and the
system under test keep both vCPUs of the 2-vCPU host busy, and in busy
host phases the hypervisor then steals 20-30 % of the time: served
throughput moved by 2x from run to run.  With one client a single
process computes at a time, as in ``analyze-cold``.

Before each op and each set-up the client times a calibration kernel
(``measure.HostSpeed``; ``measure.spawn_scale`` for fleet boots), and
every time metric is scaled to the reference host speed with it: the
speed of a shared host's vCPUs drifts by up to 2.5x over minutes, far
more than a code change should have to show through.  The report prints
the times as measured next to the scaled ones.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs
import measure
from inputs import Op

#: Set-ups per run (the median is reported).
SETUP_SAMPLES = 3
#: Kernel timings per CPU before each set-up.
SETUP_CALIBRATIONS = 3
CLIENT_THREADS = 1


@dataclasses.dataclass
class Record:
    """One attempted op: which input, its latency, and what came back."""

    index: int
    op: Op
    latency_s: float
    result: Any = None
    error: Optional[str] = None
    #: Host speed factor: ``latency_s * scale`` is the latency on the
    #: reference host (``measure.HostSpeed``).
    scale: float = 1.0


@dataclasses.dataclass
class Outcome:
    """Everything a workload run measured, before formatting."""

    #: Set-up times as measured, and each scaled to the reference host.
    setup_s: List[float]
    setup_scaled_s: List[float]
    records: List[Record]
    wall_s: float
    steal_share: float
    peak_rss_mb: float
    speed: measure.HostSpeed
    wrong: int = 0
    notes: List[str] = dataclasses.field(default_factory=list)
    failures: List[str] = dataclasses.field(default_factory=list)
    metrics_doc: Optional[dict] = None
    service: Optional[measure.Service] = None
    #: Length of one pass over the op sequence.
    period: int = 0

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.error is not None) + self.wrong

    def by_label(self) -> Dict[str, Dict[str, float]]:
        """Latency summary per input stratum (successful ops only); ops
        that repeat an earlier op's input are grouped as ``repeats``."""
        groups: Dict[str, List[float]] = {}
        seen = set()
        for r in self.records:
            label = "repeats" if id(r.op) in seen else r.op.label
            seen.add(id(r.op))
            if r.error is None:
                groups.setdefault(label, []).append(1000.0 * r.latency_s)
        return {
            label: {"n": len(v), "p50_ms": measure.percentile(v, 0.5),
                    "p90_ms": measure.percentile(v, 0.9)}
            for label, v in sorted(groups.items())
        }

    def whole_passes(self) -> List[Record]:
        """The records of the whole passes over the op sequence (all of
        them when the run did not finish one).  Every run then weighs
        each input alike, whatever order its seed drew: with the last,
        partial pass counted, the p90 of ``analyze-cold`` moved by 0.07
        of its median from seed to seed."""
        whole = len(self.records) // self.period * self.period if self.period else 0
        return self.records[:whole] if whole else self.records

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """The end-to-end metrics over :meth:`whole_passes`, every time
        scaled to the reference host.  ``ops_per_s`` is completed ops
        over the time spent in them, so the calibration between ops does
        not count."""
        scaled = [r.latency_s * r.scale for r in self.whole_passes() if r.error is None]
        return {
            "setup_s": (measure.median(self.setup_scaled_s), "s"),
            "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "latency_p50_ms": (1000.0 * measure.percentile(scaled, 0.5), "ms"),
            "latency_p90_ms": (1000.0 * measure.percentile(scaled, 0.9), "ms"),
            "error_rate": (self.failed / max(1, self.attempted), "share"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def as_measured(self) -> Dict[str, Tuple[float, str]]:
        """The time metrics before scaling, and the host speed."""
        raw = [r.latency_s for r in self.whole_passes() if r.error is None]
        out = {
            "setup_s": (measure.median(self.setup_s), "s"),
            "ops_per_s": (len(raw) / sum(raw), "1/s"),
            "latency_p50_ms": (1000.0 * measure.percentile(raw, 0.5), "ms"),
            "latency_p90_ms": (1000.0 * measure.percentile(raw, 0.9), "ms"),
        }
        for cpu, ms in self.speed.kernel_ms().items():
            out[f"calibration_cpu{cpu}_ms"] = (ms, "ms")
        return out


class Context:
    """Run-wide settings shared by the runners."""

    def __init__(self, root: str, seed: int, seconds: float, tracer) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.tmp = os.path.join(root, ".bench_tmp", f"run-{os.getpid()}")
        os.makedirs(self.tmp, exist_ok=True)
        self._dirs = 0

    def fresh_dir(self, stem: str) -> str:
        self._dirs += 1
        path = os.path.join(self.tmp, f"{stem}{self._dirs}")
        os.makedirs(path)
        return path

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs) if self.tracer else nullcontext()


def _check_digests(same: Sequence[str], this: str, other: str, what: str) -> List[str]:
    """Input generation must be a pure function of the seed: *same*
    holds digests of one seed's inputs, *this* and *other* digest
    like-sized inputs of two different seeds."""
    problems = []
    if len(set(same)) != 1:
        problems.append(f"{what}: one seed gave different input digests {sorted(set(same))}")
    if this == other:
        problems.append(f"{what}: two seeds gave the same input digest")
    return problems


# ----------------------------------------------------------------------
# analyze-cold
# ----------------------------------------------------------------------


def analyze_setup_probe(seed: int) -> None:
    """Body of the set-up child: imports are done by the caller; build
    the inputs, report readiness, then the digest (outside the timing)."""
    pool = inputs.analyze_pool(seed)
    print("ready", flush=True)
    print(inputs.digest(pool), flush=True)


def _time_child_setup(ctx: Context) -> Tuple[float, str]:
    """Launch-to-ready of a fresh interpreter that imports the library
    and generates the inputs, as the benchmark process itself does."""
    cmd = [sys.executable, os.path.join(ctx.root, "perfbench", "run.py"),
           "--setup-probe", "--seed", str(ctx.seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ctx.root, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        digest = proc.stdout.readline().strip()
    finally:
        proc.stdout.close()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (rc={proc.returncode})")
    return elapsed, digest


def run_analyze_cold(ctx: Context) -> Outcome:
    from repro import StructuralAnalysis, exhaustive_delay

    speed = measure.HostSpeed()
    setups, scaled_setups, digests = [], [], []
    for _ in range(SETUP_SAMPLES):
        speed.sample_all(SETUP_CALIBRATIONS)
        elapsed, digest = _time_child_setup(ctx)
        setups.append(elapsed)
        scaled_setups.append(elapsed * speed.scale())
        digests.append(digest)
    pool = inputs.analyze_pool(ctx.seed)
    digests.append(inputs.digest(pool))
    first_round = inputs.analyze_pool(ctx.seed, per_stratum=1)
    problems = _check_digests(
        digests,
        inputs.digest(first_round),
        inputs.digest(inputs.analyze_pool(ctx.seed + 1, per_stratum=1)),
        "analyze-cold",
    )
    if inputs.digest(first_round) != inputs.digest(pool[:len(first_round)]):
        problems.append("analyze-cold: a smaller pool is not a prefix of the larger one")

    records: List[Record] = []
    # The vCPUs of the host drift in speed independently, so ops
    # alternate between them, each scaled by the speed of its own CPU.
    allowed = speed.cpus
    ticks0 = measure.cpu_ticks()
    start = time.perf_counter()
    end = start + ctx.seconds
    i = 0
    ops = inputs.Endless(pool)
    while time.perf_counter() < end:
        cpu = allowed[i % len(allowed)]
        os.sched_setaffinity(0, {cpu})
        speed.sample(cpu)
        op = ops[i]
        task = inputs.fresh_task(op.subject)
        with ctx.span("op", op=i, label=op.label):
            t0 = time.perf_counter()
            try:
                analysis = StructuralAnalysis(task, op.beta)
                with ctx.span("core.delay"):
                    delay = analysis.delay()
                with ctx.span("core.backlog"):
                    analysis.backlog()
                rec = Record(i, op, time.perf_counter() - t0, result=delay)
            except Exception as exc:  # every op failure is counted, not fatal
                rec = Record(i, op, time.perf_counter() - t0, error=repr(exc))
        rec.scale = speed.scale(cpu)
        records.append(rec)
        i += 1
    wall = time.perf_counter() - start
    os.sched_setaffinity(0, allowed)
    steal = measure.steal_share(ticks0, measure.cpu_ticks())
    rss = measure.peak_rss_mb([os.getpid()])

    oracle: Dict[int, Any] = {}
    wrong = 0
    for rec in records:
        if rec.error is not None:
            continue
        # Later passes rename the tasks and nothing else: one check per
        # position covers every pass.
        key = rec.index % len(pool)
        if key not in oracle:
            oracle[key] = exhaustive_delay(inputs.fresh_task(rec.op.subject), rec.op.beta)
        if rec.result != oracle[key]:
            wrong += 1
            problems.append(f"op {rec.index} ({rec.op.label}): delay {rec.result} != exhaustive {oracle[key]}")
    out = Outcome(setups, scaled_setups, records, wall, steal, rss, speed,
                  wrong=wrong, failures=problems, period=len(pool))
    out.notes.append(f"pool {len(pool)} ops, {len(oracle)} distinct checked against exhaustive_delay")
    return out


# ----------------------------------------------------------------------
# cluster-reference
# ----------------------------------------------------------------------


def exchange(client, op: Op) -> Tuple[Any, Optional[str]]:
    """POST one op and decode it; returns ``(result, error)``."""
    from repro.service import protocol

    status, _, payload = client.request("POST", "/v1/analyze", op.wire())
    if status != 200:
        return None, f"HTTP {status}"
    envelope = json.loads(payload)
    if not envelope.get("ok", False):
        return None, f"not ok: {envelope.get('error')}"
    return protocol.decode_result(op.kind, envelope["result"]), None


def _closed_loop(ctx: Context, port: int, ops: inputs.Endless,
                 speed: measure.HostSpeed) -> Tuple[List[Record], float]:
    """:data:`CLIENT_THREADS` clients, each sending its next op once its
    last one returned and the calibration kernel has run on the next
    CPU in turn; each op is scaled by the mean speed of every CPU the
    client may run on (the one the fleet is pinned to)."""
    from repro.service import ServiceClient

    lock = threading.Lock()
    counter = [0]
    per_thread: List[List[Record]] = [[] for _ in range(CLIENT_THREADS)]
    end_holder = [0.0]
    errors: List[BaseException] = []

    def client_loop(out: List[Record]) -> None:
        client = ServiceClient(port=port, max_retries=0, timeout=120.0)
        try:
            while time.perf_counter() < end_holder[0]:
                with lock:
                    i = counter[0]
                    counter[0] += 1
                    speed.sample(speed.cpus[i % len(speed.cpus)])
                    scale = speed.scale()
                op = ops[i]
                with ctx.span("op", op=i, label=op.label):
                    t0 = time.perf_counter()
                    try:
                        with ctx.span("client.exchange"):
                            result, error = exchange(client, op)
                    except Exception as exc:  # transport failures count as op failures
                        result, error = None, repr(exc)
                    out.append(Record(i, op, time.perf_counter() - t0, result, error, scale))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=client_loop, args=(per_thread[k],))
               for k in range(CLIENT_THREADS)]
    start = time.perf_counter()
    end_holder[0] = start + ctx.seconds
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    records = sorted((r for rs in per_thread for r in rs), key=lambda r: r.index)
    return records, wall


def same_result(served: Any, direct: Any) -> bool:
    """Exact (``Fraction``) equality of a decoded ``delay`` result and
    the library's.  The witness tuple crosses the wire as a display
    string; every other field must match exactly."""
    if direct.critical_tuple is not None:
        direct = dataclasses.replace(direct, critical_tuple=str(direct.critical_tuple))
    return served == direct


def _check_served(records: Sequence[Record], period: int) -> Tuple[int, List[str]]:
    """Compare each decoded result with the library; the renamed ops of
    later passes share the check of their position (*period* ops)."""
    expected: Dict[int, Any] = {}
    wrong, problems = 0, []
    for rec in records:
        if rec.error is not None:
            continue
        key = rec.index % period
        if key not in expected:
            expected[key] = rec.op.direct()
        if not same_result(rec.result, expected[key]):
            wrong += 1
            problems.append(f"op {rec.index} ({rec.op.kind}): served result differs from the library")
    return wrong, problems


def _reference_inputs(seed: int, per_stratum: int = inputs.PER_STRATUM):
    seq = inputs.reference_sequence(seed, per_stratum)
    return inputs.Endless(seq), inputs.digest(seq)


def _fleet_cache(doc: dict) -> Dict[str, int]:
    """Result-cache counters summed over the workers of a rollup."""
    total: Dict[str, int] = {}
    for worker in doc.get("workers", {}).values():
        for key in ("hits", "misses", "puts"):
            total[key] = total.get(key, 0) + int((worker.get("cache") or {}).get(key) or 0)
    return total


def _cluster_checks(doc: dict) -> List[str]:
    """The run must exercise the workers' result cache both ways and
    their micro-batcher."""
    problems = []
    cache = _fleet_cache(doc)
    if not cache.get("puts") or not cache.get("hits"):
        problems.append("cluster-reference: the workers' /metrics show no result-cache put or hit")
    for name, worker in doc.get("workers", {}).items():
        if (worker.get("batches") or {}).get("mean_size") is None:
            problems.append(f"cluster-reference: worker {name} recorded no micro-batch sizes")
    return problems


def run_cluster_reference(ctx: Context) -> Outcome:
    """Boot the fleet several times (median set-up), drive the last one
    on one CPU, then check every decoded result against the library."""
    setups, scaled_setups, digests = [], [], []
    service = None
    ops = None
    for k in range(SETUP_SAMPLES):
        boot_scale = measure.spawn_scale()
        t0 = time.perf_counter()
        service = measure.Service.launch(
            ctx.root, "cluster", ctx.fresh_dir("cache"), os.path.join(ctx.tmp, f"cluster{k}.log"),
            ("--workers", "2"))
        try:
            ops, digest = _reference_inputs(ctx.seed)
            service.wait_ready()
        except BaseException:
            service.stop()
            raise
        setups.append(time.perf_counter() - t0)
        scaled_setups.append(setups[-1] * boot_scale)
        digests.append(digest)
        if k + 1 < SETUP_SAMPLES:
            service.stop()
    problems = _check_digests(digests, _reference_inputs(ctx.seed, 1)[1],
                              _reference_inputs(ctx.seed + 1, 1)[1], "cluster-reference")
    # The fleet boots on every CPU, then it and its client are pinned to
    # one.  With one client only one process computes at a time anyway;
    # on one CPU each hand-off between client, coordinator and worker is
    # a local wake-up instead of an interrupt across vCPUs, and the
    # calibration kernel times the CPU the work runs on.  Unpinned, with
    # each op scaled by the mean speed of both CPUs, five runs spread
    # 0.10-0.15 of their median; pinned, 0.025-0.05.  Booting pinned
    # made the set-up spread 0.38.  The spinner keeps that CPU from
    # halting in the service's short sleeps (see ``measure.IdleSpinner``).
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    try:
        measure.pin_tree(service.proc.pid, {cpu})
        os.sched_setaffinity(0, {cpu})
        speed = measure.HostSpeed()
        ticks0 = measure.cpu_ticks()
        with measure.IdleSpinner():
            records, wall = _closed_loop(ctx, service.port, ops, speed)
        steal = measure.steal_share(ticks0, measure.cpu_ticks())
        rss = measure.peak_rss_mb(service.pids())
        _, doc = measure.get_json(service.port, "/metrics")
        wrong, wrong_problems = _check_served(records, len(ops.ops))
    except BaseException:
        service.stop()
        raise
    finally:
        os.sched_setaffinity(0, allowed)
    problems += wrong_problems + _cluster_checks(doc)
    out = Outcome(setups, scaled_setups, records, wall, steal, rss, speed, wrong=wrong,
                  failures=problems, metrics_doc=doc, service=service, period=len(ops.ops))
    cache = _fleet_cache(doc)
    out.notes.append(f"fleet result cache puts {cache['puts']} hits {cache['hits']} misses {cache['misses']}")
    return out


RUNNERS = {
    "analyze-cold": run_analyze_cold,
    "cluster-reference": run_cluster_reference,
}
