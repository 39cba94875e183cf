#!/usr/bin/env python
"""Generate docs/API.md from the package's public surface.

Walks every ``repro`` module with an ``__all__``, collecting each public
item's signature-ish header and first docstring line.  Checked in and
verified current by ``tests/test_docs.py`` — regenerate with::

    python tools/gen_api_docs.py
"""

from __future__ import annotations

import importlib
import inspect
import os
import pkgutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import repro  # noqa: E402

SKIP_MODULES = {"repro.cli"}


def iter_modules():
    yield "repro", repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in SKIP_MODULES or "._" in info.name:
            continue
        try:
            yield info.name, importlib.import_module(info.name)
        except Exception:  # pragma: no cover - import-time guard
            continue


def first_line(obj) -> str:
    doc = inspect.getdoc(obj)
    if not doc:
        return ""
    return doc.strip().splitlines()[0]


PERFORMANCE_SECTION = """\
## Performance architecture

Every analysis entry point is served by one shared incremental engine
instead of recomputing its inputs privately:

- **Resumable exploration** — each task owns one
  `repro.drt.request.FrontierExplorer` (via `frontier_explorer(task)`)
  that keeps its expansion heap and per-vertex Pareto frontiers between
  calls; `extend_to(horizon)` only expands tuples beyond the horizon
  already explored, so repeated and growing queries pay marginal cost.
- **Analysis-wide caching** — `repro.core.context.AnalysisContext`
  memoizes the busy window, frontier snapshot, per-tuple delays, delay,
  per-job and backlog results per `(task, beta)`; `busy_window_bound`
  memoizes its fixpoint per `(beta, horizon hints)`.  All entry points
  (`structural_delay`, `structural_delays_per_job`, `structural_backlog`,
  the RTC baselines, `output_arrival_curve`, `edf_structural_delays`,
  `rbf_curve`/`rbf_value`) serve from these caches; there is no
  from-scratch mode.  The benchmarks' from-scratch reference is a fresh
  copy of the task after `repro.parallel.reset_process_caches()`, and
  results are bit-identical to it because all caches are keyed by
  immutable inputs and hold value-type results.
- **Integer reductions** — every staircase-vs-β and tuple-vs-β
  reduction (busy window, delay, per-job, backlog, `rtc_delay`,
  `rtc_backlog`) sweeps the explorer's scaled ints against β lowered to
  the same units (`repro.minplus.lowering.IntService`, a bisect per
  query) and converts only the winner to `Fraction`;
  `lower_pseudo_inverse_batch` stays for general curves.
- **Instrumentation** — `repro.perf` counts cache hits/misses, tuples
  expanded/pruned and pseudo-inverse evaluations, and times the
  busy-window/frontier/delay phases; `perf.report()` renders a summary.
"""

KERNEL_BACKENDS_SECTION = """\
## Kernel tiers

The min-plus operators (convolution, deconvolution, horizontal
deviation) have two implementations:

- **`exact`** — the pure-`fractions.Fraction` pairwise-segment
  algorithms.
- **`hybrid`** — the same exact algorithms steered by the vectorized
  float64 screens of `repro.minplus.kernels`.  Final results (curves,
  bounds, critical tuples, raised exceptions) are **identical** to
  `exact`: the screens never decide an outcome, they only skip work
  whose outcome is already certified.

Which one runs is not an option: `repro.minplus.backend.op_backend(op,
n)` is the one selector.  It routes `deconv` below 24 segments and
`hdev` below 48 to `exact` (the regimes where
`BENCH_minplus_kernels.json` shows hybrid's per-call lowering as pure
overhead: 0.98x and 0.75x at n=10) and everything else to `hybrid`
(`backend.EXACT_BELOW`; counters `dispatch.<op>.exact` /
`dispatch.<op>.hybrid`); without NumPy everything runs `exact`.
Because both tiers are bit-identical, the choice only ever changes
*speed*, never results.  Tests and the kernel micro-benchmark pin a
tier through a private seam (`backend._force`) that no entry point,
environment variable or wire field reaches.

The structural DRT path — frontier domination, the delay, per-job and
backlog maximisations of an `AnalysisContext`, the EDF sweep — has no
float tier: it runs exact loops only.

**Fused pipelines.**  `repro.minplus.kernels` exposes fused chains for
the hot multi-op sequences: `fused_deconv_hdev(alpha, beta)` produces
the GPC triple (delay, backlog, output arrival) with one lowering and
one memo entry — the backlog via a screened deconvolution point value
at 0, provably equal to the vertical deviation — and
`fused_conv_hdev(alpha, betas)` folds a tandem of service curves and
derives the pay-bursts-only-once deviation in one pass.  Every fused
path re-screens with exact `Fraction` comparisons at the final
decision, so fused and unfused results are bit-identical (counter
`kernel.fused_chains`).

**Lowering format.**  A `Curve` lowers once into packed breakpoint
arrays — segment starts, start values, slopes, and segment-end values as
*pairs* of float64 arrays (a certified lower and upper bound per
coordinate) plus exact tail metadata (tail-rate sign, exact
monotonicity flag).  Lowerings are cached per curve object and shared
across structurally equal curves through the `kernel.lowered` memo,
keyed by the curve itself (a `Curve` hashes by `fingerprint()` and
compares by segments; counter `kernel.lowered_hits`).

**Outward-rounding certificate.**  `float(Fraction)` rounds to nearest,
so the exact value lies within one ulp; every lowered coordinate is
widened one `nextafter` step in each direction, and every derived float
operation re-widens its result outward.  Each screened quantity is
therefore an interval `[lo, hi]` that provably contains the exact
rational value — lower curves rounded down, upper curves rounded up.

**Fallback rules.**  A screen settles a decision only when the
certified intervals *strictly* separate: a comparison whose intervals
overlap or an extremum with more than one surviving candidate falls
back to the exact `Fraction` path for just those queries (counters
`kernel.screen_hits` vs `kernel.exact_fallbacks`).  Domination pruning
in convolution/deconvolution only drops a segment pair when its pieces
are certified *strictly* above (below) a sound envelope bound, so the
computed curve is unchanged.  Whole operations are additionally
memoized on curve fingerprints (`kernel.memo_hits`, with
`kernel.memo_misses`/`kernel.memo_evictions` and the lowering memo's
`kernel.lowered_hits`/`kernel.lowered_misses`/`kernel.lowered_evictions`
tracking occupancy); without NumPy every resolution collapses to
`exact`.
"""


PARALLEL_SECTION = """\
## Parallel execution & persistent cache

`repro.parallel` adds a process-level execution plane and a persistent
result cache on top of the incremental engine.  Both preserve the
library's core guarantee: results are **bit-identical** to a serial,
cache-less run.

**Execution plane** (`repro.parallel.plane`).  `parallel_map(fn, items)`
fans a list of independent jobs across `fork`-based worker processes and
returns results in item order.  The worker count resolves as: explicit
`jobs=` keyword > `set_default_jobs()` > the `REPRO_JOBS` environment
variable > 1 (serial); `"auto"` means the machine's CPU count, and the
count is always capped by the number of items.  The CLI exposes
`--jobs`.  Fan-out is a pure execution change:

- every worker inherits the parent's cache and chaos configuration
  (shipped per item, so pooled workers never act on stale settings);
- worker-side `repro.perf` counters/timers are snapshot and merged into
  the parent registry, so instrumentation totals match the serial run;
- the *first* failing item **in item order** raises in the parent —
  exactly the exception a serial loop would have raised — even when a
  later item failed first in wall-clock time;
- pool breakage (fork failure, unpicklable payloads) degrades to the
  serial path, never to an error;
- nested fan-out is suppressed: inside a worker `resolve_jobs` pins to 1;
- `fresh_caches=True` resets every process-wide memo (each
  `repro._memo.process_memo` LRU: kernel lowerings and op results,
  busy-window fixpoints, cluster routing keys; and the in-memory result
  cache) before each item — the benchmark harness uses it to keep cost
  measurements honest.

Batch entry points that fan out: `sp_schedulable(..., jobs=)`,
`edf_structural_delays(..., jobs=)`, `analyze_many(tasks, beta)`,
`min_service_rates`, `acceptance_ratio`, and the RTC network helpers
`chain_analysis` / `analyze_chains` / `end_to_end_service` (balanced
tree-reduce of the hop convolution, valid by associativity).

**Persistent result cache** (`repro.parallel.cache`).  Whole-analysis
results are pure functions of the task definition, the service curve and
the analysis parameters, so they are stored on disk content-addressed by
a SHA-256 over exactly those inputs (curve/task digests of the exact
rational coordinates) plus the library version.
Off by default; enabled by `REPRO_CACHE_DIR`, `configure_cache()`, or
the CLI's `--cache-dir`.  Writes are atomic (temp file + `os.replace`),
the directory is LRU-capped by total size, placement journal included
(`REPRO_CACHE_MAX_BYTES`, default 256 MiB; eviction compacts the
journal to one line per resident entry), corrupt entries are evicted
as misses, and an unwritable directory degrades to a bounded in-memory
LRU store with a `RuntimeWarning` — never a traceback.  `AnalysisContext` consults it per
result kind, and `sp_schedulable`/`edf_structural_delays` additionally
cache whole-set verdicts, so a warm re-run of a sweep skips every
analysis it has seen before (counters `rcache.hits`/`rcache.misses`/
`rcache.puts`/`rcache.evictions`).

**Pickle transport.**  Curves pickle as their bare segment tuple (a
copy is equal to, and shares lowered kernel arrays with, the original
through the `kernel.lowered` memo), tasks ship without their
per-process analysis memo, and the `INF` sentinel preserves singleton
identity — worker results compare exactly in the parent.
"""


RESILIENCE_SECTION = """\
## Resilience, budgets & fault injection

`repro.resilience` bounds the *effort* of an analysis without ever
compromising the *soundness* of its answer, and hardens the parallel
plane and the persistent cache against infrastructure failure.

**Analysis budgets** (`repro.resilience.budget`).  A
`Budget(deadline=, max_expansions=, max_segments=)` caps one analysis by
wall-clock seconds and/or cooperative work units.  The engine's hot
loops — frontier expansions, busy-window rounds, batched
pseudo-inverse sweeps, min-plus kernel screens, SP/EDF interference rounds — call
`checkpoint(n)` at natural work boundaries; with no active budget that
is one global read and an `is None` test (the benchmark gate
`benchmarks/bench_resilience.py` holds the disabled overhead under 2%),
and with one it charges the active `BudgetMeter`, consulting
`time.monotonic()` only every `CLOCK_STRIDE` charged units.  Budget
scopes nest (`budget_scope`); inner work charges enclosing meters too.

**Anytime degradation ladder** (`repro.resilience.bounded`).
`bounded_delay(task, beta, budget=)` returns a `BoundedDelayResult`
that is the exact answer when the budget suffices and a **sound
over-approximate bound** when it does not, walking: exact frontier →
*k-segment* bound built from the partially explored frontier (the
explored prefix plus an affine tail dominates the true rbf everywhere,
and `hdev` is monotone in its first argument) → utilization/rate bound
from `linear_request_bound`.  Degraded results carry `degraded=True`,
the ladder `level`, and a `reason` naming what was exhausted; a
genuinely unbounded instance still raises `UnboundedBusyWindowError`
regardless of budget.  `bounded_delay_many` fans cases across the
plane under one budget.  The CLI exposes `--deadline`, `--budget`, and
`--max-segments`, and prints degraded bounds as `<= value (sound
over-approximation)`.

**Worker watchdog** (`repro.parallel.plane`).  `parallel_map(...,
timeout=, budget=)` guards every item: job-body exceptions travel back
as values, so anything a future *raises* is infrastructure by
construction — per-item timeouts (`parallel.item_timeouts`), crashed
workers, unpicklable results.  A poisoned round kills the pool
outright (never waits on hung workers), retries the missing items with
exponential backoff (`parallel.worker_retries`, up to 3 pool
attempts), then re-executes stragglers serially under the caller's
budget (or one derived from the timeout) — degrading per the ladder
rather than hanging; only when even that deadline is cut does a typed
`WorkerError` surface.  A pool that cannot start at all degrades to
the serial path with a `RuntimeWarning` and the
`parallel.pool_degraded` counter.  Transient cache I/O is likewise
retried with backoff (`rcache.io_retries`); only provably corrupt
entries are evicted (`rcache.corrupt_evictions`) — an unreadable entry
is a miss, never an eviction, and a failed write is a no-op.

**Deterministic fault injection** (`repro.resilience.chaos`).  Named
fault sites at every failure surface — `worker.crash`, `worker.hang`,
`worker.pickle`, `cache.truncate`, `cache.corrupt`, `cache.enospc`,
`cache.eperm.read`, `cache.eperm.write` — fire as a pure function of a
seed, the site, and a call key, so a failing chaos run replays
exactly.  Enabled by `REPRO_CHAOS="seed"` /
`"seed=7,p=0.3,sites=a|b"`, `chaos.configure()`, or the `chaos.scoped`
test helper; workers inherit the parent's configuration.  The chaos
suite (`tests/test_chaos.py`, and the CI chaos job running tier-1
under a fixed seed matrix) asserts every injected fault yields a
bit-identical result, a sound degraded bound, or a typed `ReproError`
— never a hang or a raw traceback.
"""


SERVICE_SECTION = """\
## Analysis service

`repro.service` serves analyses over HTTP/JSON — a stdlib-only asyncio
server booted by `repro serve` in production or by
`ServerHandle.start(ServiceConfig(...))` in-process (tests, embedding).

**Wire protocol** (`repro.service.protocol`, version 1).  `POST
/v1/analyze` takes one request object — `kind` (`delay` /
`bounded_delay`, `sp_schedulable`, `edf_structural_delays`,
`analyze_many`), `tasks`, `beta` (a full curve document or the
`{"rate": "1/2", "latency": "2"}` shorthand), optional `deadline_ms`,
`max_expansions`, `max_segments`, `params`, and `perf` — and returns a
response envelope `{ok, trace_id, kind, degraded, shed, elapsed_s,
result | error}`.  Exact rationals travel as `"p/q"` strings both
ways, so served results reconstruct to the engine's `Fraction`-valued
dataclasses and compare equal to direct calls.  Failures are *typed*
envelopes (`bad_request`, `validation`, `unbounded`,
`budget_exhausted`, `worker`, `internal`), never raw tracebacks; every
envelope and every response carries the request's trace ID
(`X-Trace-Id`).
`params` are checked per kind at decode, and an unknown or mistyped
one is a `bad_request`: `sp_schedulable` and `edf_structural_delays`
take `initial_horizon` (a rational) and `max_iterations` (an integer
>= 1), `analyze_many` takes `initial_horizon`, `dag_rta` takes
`max_paths` (an integer >= 0), and the global DAG kinds take
`max_iterations`.  `edf_structural_delays` no longer takes `reuse`.

**Micro-batching** (`repro.service.batching`).  Every accepted request
— single or batch member — joins one shared `Batcher`.  With nothing
in flight the dispatcher ships the queue at once (a lone request pays
no linger; a `/v1/batch` enqueues all its items first, so it stays one
micro-batch).  While a batch runs it lingers `batch_window_ms`
(dispatching immediately once `max_batch` wait), so arrivals coalesce;
each slice goes through `repro.parallel.map_settled`: concurrent
clients share one plane fan-out and one warm result cache per
micro-batch, and a failing request settles alone instead of poisoning
its neighbours.  `POST
/v1/batch` carries many requests at once; with `"stream": true` the
response is chunked NDJSON in *completion* order — one
`{"index": i, ...}` envelope per line, terminated by a
`{"done": true}` marker (chunked framing, because plane workers forked
mid-connection inherit the socket and would hold off a close-delimited
EOF indefinitely).

**Admission, backpressure & degradation**
(`repro.service.admission`).  Three-tier policy against queue depth:
*accept*; *shed* above the high-water mark — sheddable single-task
requests get their budget tightened to `shed_deadline_ms`, so the
degradation ladder turns overload into **sound anytime bounds** tagged
`shed: true`, not errors; *reject* at `max_queue` with `429` and a
`Retry-After` derived from an EWMA of recent batch service times.
`deadline_ms` maps onto a `repro.resilience.Budget` — an infeasible
deadline yields a sound degraded bound, never a 5xx.

**Client** (`repro.service.client`).  `ServiceClient` retries
transport failures and `429` (honouring `Retry-After`) with capped
exponential backoff.  Typed helpers (`delay`, `sp_schedulable`,
`edf_structural_delays`, `analyze_many`) decode envelopes back into
engine result dataclasses or raise a typed `ServiceError`; `batch` and
`batch_stream` drive the batch endpoint, `analyze_raw` returns
envelopes verbatim.

**Observability** (`repro.service.metrics`).  `GET /healthz` reports
liveness and draining; `GET /metrics` returns one JSON document:
uptime, request counters (`requests_total`, `requests_failed`,
`degraded`, `shed`, `rejected`, `connections_accepted`),
per-endpoint latency histograms (log-bucketed, mergeable
`repro.perf.Histogram`), queue depth/capacity, micro-batch size
statistics, result-cache hit/miss counters, and the full `repro.perf`
snapshot.

**HTTP layer** (`repro.service.http`).  One module owns the wire for
the server, the coordinator and every client: request/response
framing, chunked NDJSON streams, the one error envelope
(`http_error`), the connection handler with its route table
(`HttpEndpoint`), and the exchanges (`exchange` asynchronous, `fetch`
/ `open_response` blocking).  Connections persist on every hop: the
server keeps a connection open while the client asks for keep-alive
and closes it after a stream, an error, `Connection: close`, a handler
that wrote nothing, or `IDLE_TIMEOUT_S` idle; `exchange` pools idle
connections per event loop and `fetch` per process (dropped in a
forked child), at most `MAX_IDLE_PER_PEER` per peer, and a reused
connection that fails before its reply begins is retried once on a
fresh one.  Batch streams (`open_response`) use one connection each.
A malformed or negative `Content-Length` is a `400 bad_request`;
reason phrases come from `http.HTTPStatus`.

**Lifecycle.**  SIGTERM/SIGINT trigger a graceful drain: the listener
closes, idle keep-alive connections close, `/healthz` turns 503,
in-flight work settles within `drain_grace_s` and is answered with
`Connection: close`.  CI boots the real CLI end-to-end
(`tools/service_smoke.py`), runs the service suites
(`tests/test_service.py`, chaos-injected client/server round-trips in
`tests/test_service_chaos.py`), and gates batching in
`benchmarks/bench_service.py`: each warm `/v1/batch` pass of N items
dispatches at most ceil(N / `max_batch`) micro-batches, and warm
batched throughput is at least warm per-request throughput.
"""


CLUSTER_SECTION = """\
## Sharded cluster

`repro.cluster` scales the analysis service across a fleet of `repro
serve` workers behind one stdlib-only asyncio coordinator — booted by
`repro cluster` in production (spawning `--workers N` local worker
subprocesses with partitioned `--cache-dir` subdirectories, or
fronting pre-started `--worker HOST:PORT` endpoints) or by
`ClusterHandle.start(n_workers=...)` in-process.  A plain
`ServiceClient` pointed at the coordinator's port works unchanged.

**Digest-affinity routing** (`repro.cluster.ring`,
`repro.cluster.routing`).  Every request's routing key is the same
content digest the persistent result cache keys on —
`task_digest(task)` + the service curve's digest + the request kind
(per-*edit* for what-if sweeps, so a sweep's edits shard by their
cones) — hashed onto a consistent-hash ring with 64 virtual nodes per
worker.  Identical content therefore always lands on the worker whose
on-disk result cache, memoized curve operations, and warm explorer
state already hold it, and when the fleet changes only ~K/N keys move
(ring `generation` counts churn; property-tested in `tests/test_cluster.py`).
An undecodable spec falls back to a canonical-JSON digest —
deterministic, so even malformed requests route stably.

**Fan-out & merge** (`repro.cluster.coordinator`).  One split-by-owner
path: `POST /v1/batch` groups by owning worker, ships each group as one
sub-batch (preserving the workers' micro-batch coalescing), and settles
every envelope exactly once at its request index — streaming mode
multiplexes the workers' NDJSON streams in completion order with the
same `{"done": true}` terminator.  `whatif_sweep` requests with several
edits split per-edit across the ring and re-merge per-edit results in
edit order.  Merged results are **bit-identical** to single-node
serving.

**Health & failover.**  Background probes (`probe_interval_s`) eject a
worker from the ring after `probe_failures` consecutive failures and
re-admit it when probes succeed again; a mid-request transport failure
ejects immediately and retries on the next distinct ring owner
(`retry_next_owner`), so a killed worker yields recomputed
bit-identical results or a typed `worker_unreachable` envelope — never
a silently wrong bound (chaos site `cluster.worker_crash`).  Every
worker exchange, streamed sub-batches included, is bounded by
`request_timeout_s`; a worker answering `429` is waited out once
(`Retry-After`) and then bypassed, but never ejected.

**Cluster admission & observability.**  The coordinator replicates the
three-tier admission policy fleet-wide (`max_queue` defaults to 256 x
workers; shed tightens forwarded deadlines; reject answers `429` with
a `Retry-After` from its own EWMA of request service times).  `GET
/metrics` returns the coordinator's own counters plus every worker's
document and a **rollup** that merges per-worker endpoint latency
histograms with the `repro.perf` merge algebra and sums cache
hit/miss totals.  Responses carry `X-Repro-Worker` (the serving
worker), `X-Repro-Ring-Generation`, and the propagated `X-Trace-Id`;
`ServiceClient` surfaces them as `client.last_route` /
`result.route` (`RouteInfo`).  SIGTERM drains the coordinator, then
the spawned fleet.  CI boots the real CLI end-to-end
(`tools/cluster_smoke.py`) and `benchmarks/bench_cluster.py` gates
4-worker warm throughput at >= 3.2x a single capped-cache worker.
"""


OPERATIONS_SECTION = """\
## Operations runbook

How to run the self-healing cluster in production: planned resizes,
coordinator failover, crash recovery, and what to watch during an
incident.  Everything below is exercised by
`tests/test_cluster_selfheal.py` and the chaos soak
(`tools/cluster_smoke.py --soak`).

**Durable membership.**  Start the coordinator with `--state-dir DIR`
to persist membership: every bootstrap/add/remove appends an fsync'd
record (worker ids, endpoints, ring generation) to
`DIR/membership.jsonl`, and the active coordinator renews
`DIR/coordinator.lease` at a third of `--lease-s` (default 3s).  A
coordinator restarted against the same state dir recovers the ring at
the recorded generation (endpoints refresh positionally from the
`--worker` flags), so clients' placement assumptions survive restarts.
`GET /admin/membership` returns the live ring, the recent log tail,
and the lease holder.

**Planned resize.**  Grow the fleet without a cold start: boot the new
`repro serve` worker, then

    curl -X POST http://coord:8100/admin/add-worker \\
        -d '{"worker": "10.0.0.5:8101"}'

The coordinator health-gates the joiner, computes the exact key set
the *prospective* ring re-homes onto it (placement tags recorded at
write time — see `repro.parallel.cache.placement_scope`), has the
joiner pull those entries peer-to-peer (digest-verified,
`rate_bytes_per_s`-limited, torn writes retried — chaos site
`cluster.migration_torn_write`), and only then flips the ring
generation.  Requests never observe a cold in-between; post-resize
warm hit rate stays >= 80% (gated in `tests/test_cluster_selfheal.py`).
`POST /admin/remove-worker {"worker": "w2"}` is the inverse: the
leaver's entries migrate to their prospective owners, then the ring
drops it.  Pass `"migrate": false` to skip migration (entries recompute
on demand — sound, just colder), `"rate_bytes_per_s"` to throttle.

**Coordinator failover.**  Run a warm standby against the same state
dir:

    repro cluster --standby --state-dir DIR --port 8200

The standby polls the lease; when it expires un-renewed (active
crashed) it reconstructs the ring from the membership log at the
recorded generation, binds its port, and serves.  Point
`ServiceClient(coordinators=[("coord", 8100), ("coord", 8200)])` at
both: the client rotates endpoints on connection failure with
decorrelated-jitter backoff, and every `POST /v1/*` carries an
`X-Idempotency-Key` (one per logical request, shared by its retries),
so a coordinator that executed a request but died before answering
replays the recorded response instead of re-executing — zero lost,
zero duplicated batch items (gated in
`tests/test_cluster_selfheal.py::TestStandbyFailover`).

**Checkpoint recovery.**  Set `REPRO_CHECKPOINT_STRIDE=N` (e.g. 512)
on workers to snapshot long frontier explorations through the
content-addressed result cache every N expansions.  After a worker
crash, the ring successor that inherits the request loads the
checkpoint (task-digest-verified, schema-versioned) and resumes the
exploration bit-identically — `frontier.checkpoints_saved` /
`frontier.checkpoints_restored` in the perf counters confirm it.
Stale or foreign checkpoints are treated as absent, never resumed
silently wrong.

**Incident observability.**  During any of the above, `GET /metrics`
on the coordinator is the one pane of glass: per-worker documents plus
a fleet rollup (merged latency histograms, summed cache hit/miss).
`rollup.cache_by_generation` tracks per-worker **and** fleet-wide
cache hit-rate deltas *since the last ring-generation change* — after
a resize or failover, a healthy fleet shows the hit rate recovering
toward its pre-change level; a stuck-cold worker stands out
immediately.  `requests.idempotent_replays` counts failover replays;
`ring_resizes` counts planned membership changes.  Tunables
(`--probe-interval-s`, `--probe-timeout-s`, `--probe-failures`,
`--retry-next-owner`, `--request-timeout-s`, `--lease-s`) are
validated at startup — a bad value fails the boot with the offending
field named, never a half-configured fleet.

**Gray-failure drills.**  `tools/cluster_smoke.py --soak --seed N`
runs the chaos matrix (`cluster.partition`, `cluster.slow_worker`,
`cluster.coordinator_crash`, `cluster.migration_torn_write`) over a
mixed workload with a mid-soak resize and classifies every response as
bit-identical, soundly degraded, or a typed error — CI runs it under
two seeds, stall-time-boxed via `REPRO_CHAOS_HANG_S`.
`benchmarks/bench_cluster_resilience.py` gates sustained throughput
under a single worker loss at >= 60% of the healthy fleet.
"""


WHATIF_SECTION = """\
## Incremental what-if analysis

`repro.whatif` re-analyses *edits* of a base model against the base's
warm exploration state instead of from scratch, with every bound
bit-identical (exact `Fraction` equality) to a cold analysis of the
edited model — enforced by the hypothesis suite in
`tests/test_whatif.py`, including under `REPRO_CHAOS` cache fault
injection.

**Structural digests** (`repro.drt.digest`).  `vertex_digest` /
`edge_digest` hash each model element; `task_digest` composes them
(order-independently over the element set) into one digest equal to a
digest of the task built from scratch.  `backward_cone_digest(task, v)`
hashes exactly the subgraph that can reach `v` — the full input of
`v`'s delay bound.  `structural_diff(old, new)` classifies an edit's
blast radius: touched vertices/edges, the forward-closed *affected
cone*, and the carried complement; `guard_cache(task)` fingerprints the
task and drops its whole memo cache (explorer, contexts, busy windows,
digests) when an in-place mutation is detected, so shared memos can
never serve stale bounds.

**Edits** (`repro.whatif.edits`).  Value-typed perturbations —
`SetWcet`, `SetDeadline`, `ScaleWcets`, `SetSeparation`, `AddEdge`,
`RemoveEdge`, `AddVertex`, `SetBeta` — with wire forms
(`edit_to_dict` / `edit_from_dict`) and `apply_edit(task, beta, edit)`
producing a structurally fresh task (β-only edits return the base task
object unchanged, keeping its memo cache live).

**Frontier-prefix reuse** (`repro.drt.request.FrontierExplorer.fork`).
Forking re-seeds only the affected cone; per-vertex frontiers and
deferred successors outside the cone carry over verbatim (the cone is
forward-closed, and extensions of dominated tuples are dominated), and
the source's sorted-key prefix carries too (rescaled when an edit
changes the integer time or work unit), so a forked query below the
carried horizon is a merge instead of a full re-sort.
Warm re-analysis additionally seeds the busy-window fixpoint with the
base's exactness horizon (the converged length is seed-independent),
reuses the base's `max_cycle_ratio` memo whenever the diff provably
leaves every cycle untouched (`cycles_untouched`), and memoizes the
fixpoint step on the `(rbf, beta)` curve pair.  Only exploration
*statistics* differ from a cold run — which is why what-if contexts
never persist whole-analysis results (`AnalysisContext.of(...,
persist=False)`).

**Warm sweeps** (`repro.whatif.engine`).  `WhatIfSession(task, beta)`
analyses the base once and then answers `analyze(edit)` incrementally;
a failing edit is a first-class `WhatIfResult` (typed `error_code`),
never an exception.  `whatif_sweep(task, beta, edits, jobs=)` fans
contiguous chunks across the parallel plane (results in input order,
chunking-invariant), caching per-vertex delay bounds in the persistent
result cache under `backward_cone_digest` keys so any process reuses
every vertex an edit left alone.  The CLI exposes `repro diff a.json
b.json` (blast-radius report) and `repro whatif base.json --edits
edits.json`; the service accepts `kind: "whatif_sweep"` on `POST
/v1/whatif` (and in `/v1/batch`), riding the micro-batch coalescer —
served summaries decode bit-identical to direct `whatif_sweep` calls.
`benchmarks/bench_whatif.py` gates the warm sweep at >= 5x a cold
re-analysis with bit-identical bounds.
"""


MP_SECTION = """\
## Multiprocessor DAG analysis

`repro.mp` opens the intra-task parallel workload family: one
`DAGTask` is a set of vertices with WCETs and precedence edges,
released sporadically with a period and a relative deadline, and
scheduled *globally* on `m` identical processors — the `m`-processor
counterpart of the single-β analyses everywhere else in the library.

**Model** (`repro.mp.model`).  `DAGTask` validates structure at
construction (connected endpoints, positive WCETs, acyclicity) and
exposes exact-rational metrics: `volume`, `longest_path()` /
`critical_path()`, `utilization`, plus a memoized structural
`digest()` used for content-addressed caching and cluster routing.
`validate_dag` additionally rejects tasks whose critical path already
exceeds the deadline.  JSON and DOT loaders
(`save_dag`/`load_dag`/`save_dag_dot`/`load_dag_dot`) follow the
`repro.io` conventions; both DOT importers (DRT and DAG) reject edges
naming undeclared vertices with a named-line error.

**Single-DAG bounds** (`repro.mp.bounds`).  `graham_bound` is the
classic `len + (vol - len)/m`; `long_path_rta` refines it by charging
up to `m - 1` vertex-disjoint long paths (He & Guan style), solving
the piecewise-linear busy-interval fixpoint *exactly* — no iteration.
The reported bound is the minimum of both, so it dominates Graham by
construction and collapses to `vol` on `m = 1`.  `dag_rta` wraps this
in the budget/degradation idiom: exhaustion degrades to the sound
Graham bound (tagged `degraded`), never an error; non-degraded results
are cached content-addressed (DAG digest + `m` + params).
`dag_rta_many` fans independent per-DAG analyses over the parallel
plane, bit-identical to a serial loop.

**Global schedulability** (`repro.mp.global_sched`).
`global_fp_schedulable` (input order = priority order) and
`global_rm_schedulable` (rate-monotonic: ascending period, stable)
run the carry-in/body/carry-out interference recurrence of Dinh et
al. per task; constrained deadlines are required.  The carry-in form
is deliberately coarser than the sharpest published variant so the
verdict is provably *monotone in m* — adding processors never flips a
schedulable set to unschedulable (hypothesis-enforced).

**Cross-check anchoring** (`repro.mp.crosscheck`).  `chain_to_drt`
encodes a chain-shaped DAG as a DRT task; on `m = 1` and unit service
the exact single-resource engine's end-to-end delay must be
*bit-identical* to `dag_rta(chain, 1).response`
(`tests/test_mp_crosscheck.py` pins this, together with long-path <=
Graham dominance and verdict monotonicity, under hypothesis).

**Stack integration.**  Three service kinds — `dag_rta` (sheddable:
admission pressure degrades it to Graham), `global_fp_schedulable`,
`global_rm_schedulable` — ride the kind registry through the server,
micro-batcher and cluster coordinator; requests carry a top-level
`"m"` instead of `beta`, and placement/routing digests include the
DAG structure and `m`, so cached re-requests are served
bit-identically from any worker.  The CLI exposes `repro mp TASK...
-m M [--policy rta|fp|rm]`; `benchmarks/bench_mp.py` gates warm
batched verdicts at >= 3x a cold serial run.
"""


def render() -> str:
    lines = [
        "# API reference",
        "",
        "Generated by `tools/gen_api_docs.py` — do not edit by hand.",
        "One line per public item (`__all__`) of every module.",
        "",
        PERFORMANCE_SECTION,
        KERNEL_BACKENDS_SECTION,
        PARALLEL_SECTION,
        RESILIENCE_SECTION,
        SERVICE_SECTION,
        CLUSTER_SECTION,
        OPERATIONS_SECTION,
        WHATIF_SECTION,
        MP_SECTION,
    ]
    for name, module in sorted(iter_modules(), key=lambda kv: kv[0]):
        public = getattr(module, "__all__", None)
        if not public:
            continue
        lines.append(f"## `{name}`")
        mod_doc = first_line(module)
        if mod_doc:
            lines.append("")
            lines.append(mod_doc)
        lines.append("")
        for item in public:
            if item.startswith("__"):
                continue
            obj = getattr(module, item, None)
            if obj is None:
                continue
            kind = (
                "class"
                if inspect.isclass(obj)
                else "function"
                if callable(obj)
                else "constant"
            )
            summary = first_line(obj) if kind != "constant" else ""
            lines.append(f"- **`{item}`** ({kind}) — {summary}".rstrip(" —"))
        lines.append("")
    return "\n".join(lines) + "\n"


def main() -> int:
    out = os.path.join(ROOT, "docs", "API.md")
    text = render()
    with open(out, "w") as fh:
        fh.write(text)
    print(f"wrote {out} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
