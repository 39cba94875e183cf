#!/usr/bin/env python3
"""End-to-end benchmark of the structural delay analysis stack.

Run from the repository root::

    python3 perfbench/run.py --workload analyze-cold --seed 1 --seconds 15 --trace 0

``--workload`` is ``analyze-cold`` or ``cluster-reference`` (see
``workloads.py`` and ``BENCHMARK.json`` for why each exists).  Inputs are generated from ``--seed``; the timed phase
lasts ``--seconds``.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs the same loop with spans around
every call it makes into the library or the service, then times each
layer's public functions on the workload's inputs (``layers.py``) and
reports the per-layer metrics.  A human-readable report goes to
standard output; its last line is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every run writes its result to ``.bench_out/`` (and, traced, its spans);
a traced run prints its overhead against the untraced result of the same
workload and seed when one is there.  The exit code is 0 when every op
was correct, 1 when a check failed and 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("analyze-cold", "cluster-reference")
#: The end-to-end metrics the JSON line carries.  ``error_rate`` is
#: printed with them but travels as ``failed``/``attempted``: it is 0 on
#: a correct build, and a relative bound on 0 is meaningless.
REPORTED_E2E = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the analyze-cold set-up child (imports + input generation).
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _prepare_environment() -> None:
    """Pin the library's run-time settings: no inherited ``REPRO_*``
    knob may change what a workload exercises, and the compiled kernel
    tier (if the library builds it) lands inside the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_NATIVE_DIR"] = os.path.join(ROOT, ".bench_tmp", "native")
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report(workload: str, seed: int, title: str, metrics) -> None:
    print(f"== {workload} seed={seed} {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {_fmt(value):>14s} {unit}")


def _overhead(workload: str, seed: int, seconds: float, traced) -> None:
    """Print the traced run's end-to-end gap to the untraced run of the
    same workload, seed and length, when its result is in ``.bench_out``."""
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace0.json")
    untraced = None
    if os.path.exists(path):
        with open(path) as fh:
            untraced = json.load(fh)
    if untraced is None or untraced["seconds"] != seconds:
        print("tracing overhead: run --trace 0 with the same workload, seed and seconds first")
        return
    for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms"):
        base = untraced["end_to_end"][name]["value"]
        print(f"tracing overhead {name}: traced {_fmt(traced[name][0])} vs untraced {_fmt(base)} "
              f"({100.0 * (traced[name][0] - base) / base:+.1f}%)")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the library sources are missing ({SRC}/repro); "
              "run from a full checkout", file=sys.stderr)
        return 2
    _prepare_environment()
    sys.path.insert(0, HERE)
    import workloads

    if args.setup_probe:
        workloads.analyze_setup_probe(args.seed)
        return 0

    from spans import Tracer

    tracer = Tracer() if args.trace else None
    ctx = workloads.Context(ROOT, args.seed, args.seconds, tracer)
    layer_metrics = None
    try:
        outcome = workloads.RUNNERS[args.workload](ctx)
        try:
            if args.trace:
                import layers

                layer_metrics = layers.measure_layers(ctx, args.workload, outcome)
        finally:
            if outcome.service is not None:
                outcome.service.stop()
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)

    e2e = outcome.end_to_end()
    host = {"host.steal_share": (outcome.steal_share, "share"),
            "cpu_count": (os.cpu_count() or 1, "count")}
    _report(args.workload, args.seed, "end to end" + (" (traced)" if args.trace else ""), e2e)
    _report(args.workload, args.seed, "as measured, before scaling to the reference host",
            outcome.as_measured())
    _report(args.workload, args.seed, "host", host)
    print(f"  timed window {outcome.wall_s:.1f} s")
    print(f"  ops attempted {outcome.attempted}, failed or wrong {outcome.failed}; "
          f"the time metrics count the {len(outcome.whole_passes())} of whole passes")
    for note in outcome.notes:
        print(f"  {note}")
    for label, row in outcome.by_label().items():
        print(f"  {label:24s} n={row['n']:<5d} p50 {row['p50_ms']:9.2f} ms  p90 {row['p90_ms']:9.2f} ms")
    for problem in outcome.failures[:20]:
        print(f"  CHECK FAILED: {problem}")

    os.makedirs(OUT_DIR, exist_ok=True)
    saved = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "failures": outcome.failures,
             "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **host}.items()}}
    if layer_metrics is not None:
        _report(args.workload, args.seed, "per layer", layer_metrics)
        _overhead(args.workload, args.seed, args.seconds, e2e)
        saved["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer_metrics.items()}
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
        for name, row in sorted(tracer.self_times_ms().items()):
            print(f"  span {name:30s} n={row['count']:<6d} total {row['total_ms']:10.1f} ms  self {row['self_ms']:10.1f} ms")
        chosen = layer_metrics
    else:
        chosen = {k: e2e[k] for k in REPORTED_E2E}
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(saved, fh, indent=1)

    correct = not outcome.failures
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
