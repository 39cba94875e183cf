"""Shared infrastructure for the experiment benchmarks.

Every experiment writes its paper-style table/series to
``benchmarks/out/<experiment>.txt`` (and echoes it to stdout, visible
with ``pytest -s``), so the rows survive pytest's output capturing and
can be pasted into EXPERIMENTS.md.

Two additions seed the perf trajectory of the incremental frontier
engine:

* :func:`write_json` persists machine-readable results as
  ``benchmarks/out/BENCH_<experiment>.json`` (timings, speedups, perf
  counters) so successive PRs can be compared mechanically;
* :func:`parallel_map` fans independent random-instance sweeps across
  worker processes through the library's own execution plane
  (:mod:`repro.parallel`), with per-instance cache isolation
  (``fresh_caches=True``): every instance is analysed with pristine
  process-local caches, so parallelism can never leak exploration state
  between instances.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence

from repro.parallel import parallel_map as _plane_map

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def write_json(experiment: str, payload: dict) -> str:
    """Persist *payload* as ``benchmarks/out/BENCH_<experiment>.json``.

    Fractions are serialised as strings (exact), floats as-is.  Returns
    the path written.
    """

    def _default(obj):
        if isinstance(obj, Fraction):
            return str(obj)
        raise TypeError(f"not JSON-serialisable: {obj!r}")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"BENCH_{experiment}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_default)
        fh.write("\n")
    return path


def parallel_map(
    fn: Callable, items: Sequence, max_workers: Optional[int] = None
) -> List:
    """``[fn(item) for item in items]`` across worker processes.

    A thin veneer over :func:`repro.parallel.parallel_map` that keeps
    the historical ``max_workers=None`` = one-per-CPU default and always
    requests ``fresh_caches=True``: every sweep instance is analysed
    with pristine process-local caches, so results never depend on which
    instances happened to share a worker.  Results keep the order of
    *items*; pools that cannot start degrade to the serial loop inside
    the plane itself.
    """
    return _plane_map(
        fn,
        items,
        jobs="auto" if max_workers is None else max_workers,
        fresh_caches=True,
    )


def cold_copy(task):
    """A fresh copy of *task* in a process with every memo cleared.

    The from-scratch reference of every warm/cold gate: the copy carries
    no analysis cache (no shared explorer, no contexts) and
    :func:`repro.parallel.reset_process_caches` empties the content-keyed
    process memos (busy-window fixpoint, kernel ops, routing) and the
    in-memory result cache, so the next analysis of the copy pays
    exactly what a cold caller in a fresh process would pay.
    """
    from repro.drt.model import DRTTask
    from repro.parallel import reset_process_caches

    reset_process_caches()
    return DRTTask(task.name, list(task.jobs.values()), list(task.edges))


def sensitivity_suite(task_for: Callable, beta) -> dict:
    """One service-sensitivity analysis pass over every entry point.

    Runs the eight delay/backlog analyses an evaluation sweep performs
    per ``(task, beta)`` pair — structural delay, per-job delays,
    backlog, the three RTC baselines, a request-bound query and the
    output bound — each on the task ``task_for()`` returns.  Passing
    ``lambda: task`` serves all of them from one shared exploration;
    passing ``lambda: cold_copy(task)`` makes every entry point pay the
    cold cost on its own.  Returns the exact bounds so callers can
    assert the two agree bit-for-bit.
    """
    from repro.core.backlog import structural_backlog
    from repro.core.baselines import (
        concave_hull_delay,
        rtc_backlog,
        rtc_delay,
    )
    from repro.core.delay import structural_delay, structural_delays_per_job
    from repro.core.output import output_arrival_curve
    from repro.drt.request import rbf_value

    out = {}
    res = structural_delay(task_for(), beta)
    out["delay"] = res.delay
    out["per_job"] = structural_delays_per_job(task_for(), beta)
    out["backlog"] = structural_backlog(task_for(), beta).backlog
    out["rtc_delay"] = rtc_delay(task_for(), beta)
    out["rtc_backlog"] = rtc_backlog(task_for(), beta)
    out["hull_delay"] = concave_hull_delay(task_for(), beta)
    out["rbf_at_bw"] = rbf_value(task_for(), res.busy_window)
    oc = output_arrival_curve(task_for(), beta, method="delay")
    out["output_at_50"] = oc.at(50)
    return out


def speedup_case(spec: dict) -> dict:
    """Measure one cold-vs-shared sensitivity sweep.

    *spec* is a plain (picklable, JSON-friendly) dict::

        {"vertices": 10, "branching": 2.0, "separation_range": [10, 80],
         "util": [3, 5], "seed": 0, "latencies": [5, 10, 20]}

    Generates the random instance and runs :func:`sensitivity_suite`
    for a rate-1 service curve at every latency twice: once with every
    entry point on its own :func:`cold_copy` of the task (the
    from-scratch reference), and once on one fresh task object after a
    single :func:`cold_copy` (the shared engine: one exploration serves
    every entry point and latency).  Asserts both agree exactly, and
    returns the timings plus the exact structural bounds.  Each side is
    timed ``repeats`` times (default 2) and the best wall-clock is kept,
    the usual defence against scheduler noise.
    """
    import random
    import time
    from fractions import Fraction

    from repro.minplus.builders import rate_latency
    from repro.workloads.random_drt import RandomDrtConfig, random_drt_task

    util = Fraction(*spec["util"])
    repeats = spec.get("repeats", 2)
    cfg = RandomDrtConfig(
        vertices=spec["vertices"],
        branching=spec["branching"],
        separation_range=tuple(spec["separation_range"]),
        target_utilization=util,
    )
    betas = [rate_latency(1, lat) for lat in spec["latencies"]]
    base = random_drt_task(random.Random(spec["seed"]), cfg)

    def _cold_pass():
        return [sensitivity_suite(lambda: cold_copy(base), b) for b in betas]

    def _shared_pass():
        task = cold_copy(base)
        return [sensitivity_suite(lambda: task, b) for b in betas]

    def _timed(run):
        best, results = None, None
        for _ in range(repeats):
            t0 = time.perf_counter()
            results = run()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best, results

    t_scratch, scratch = _timed(_cold_pass)
    t_inc, incremental = _timed(_shared_pass)

    assert scratch == incremental, (
        "shared engine changed a bound on "
        f"util={util} seed={spec['seed']}"
    )
    return {
        "util": str(util),
        "seed": spec["seed"],
        "scratch_s": t_scratch,
        "incremental_s": t_inc,
        "speedup": t_scratch / t_inc,
        "bit_identical": True,
        "bounds": {
            f"T={lat}": {
                "delay": res["delay"],
                "backlog": res["backlog"],
                "rtc_delay": res["rtc_delay"],
            }
            for lat, res in zip(spec["latencies"], incremental)
        },
    }


def fmt(value) -> str:
    """Compact human formatting for rationals/floats in tables."""
    if isinstance(value, Fraction):
        f = float(value)
        return f"{f:.3f}".rstrip("0").rstrip(".") if f != int(f) else str(int(f))
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def report(experiment: str, title: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render, print, and persist one experiment table.

    Returns the rendered text (also written to ``benchmarks/out``, except
    under ``REPRO_BENCH_SMOKE=1``: a smoke run's reduced table must not
    overwrite the committed one).
    """
    rows = [list(map(fmt, row)) for row in rows]
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(header)
    ]
    lines = [f"== {experiment}: {title} =="]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    text = "\n".join(lines) + "\n"
    if os.environ.get("REPRO_BENCH_SMOKE") != "1":
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"{experiment}.txt"), "w") as fh:
            fh.write(text)
    print("\n" + text)
    return text
