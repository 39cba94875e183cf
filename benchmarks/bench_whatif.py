"""Benchmark of the incremental what-if engine.

A design-space sweep retimes one chain edge of a base model across many
candidate separations.  The structural diff of every such edit has a
singleton affected cone (the chain's terminal vertex), so the warm
:class:`repro.whatif.WhatIfSession` re-expands one vertex per edit while
everything else — the recurrent core's entire Pareto exploration —
carries over through :meth:`FrontierExplorer.fork`.  The cold baseline
re-analyses every edited model from scratch: each on its own fresh task
object after clearing every process memo (``_harness.cold_copy``), so no
two cold edits share a busy-window fixpoint or a kernel memo hit.  The
warm session starts from the same cold state.

Both paths run with the persistent result cache *disabled*, so the
measured gain is attributable to the in-memory warm state — frontier
forking, the carried sorted prefix, busy-window horizon seeding, and
the carried cycle-ratio memo (the per-vertex digest cache would only
widen the gap).  Every warm summary must be bit-identical (exact
Fraction equality) to its cold counterpart — the speedup is only
admissible because the bounds are exactly the same.

Gate (both modes): warm sweep >= ``MIN_SPEEDUP`` times faster than cold
re-analysis.  What is left of a warm edit is per-``(task, beta)``
``Fraction`` algebra (busy window, tuple delays, backlog) that no fork
carries, so the ratio sits near 2x rather than the 5x of the old gate.

Smoke mode (``REPRO_BENCH_SMOKE=1``, the CI job) runs a reduced sweep
and does not rewrite the committed JSON.
"""

import os
import time
from fractions import Fraction as F

from repro.core.facade import StructuralAnalysis
from repro.curves.service import rate_latency_service
from repro.drt.model import DRTTask
from repro.parallel import cache as result_cache
from repro.whatif import SetSeparation, WhatIfSession, apply_edit

from _harness import cold_copy, report, write_json

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
SEPARATIONS = list(range(9, 33)) if SMOKE else list(range(9, 41))
# 0.75 x the median of six smoke-mode runs on a 2-vCPU VM (1.86x; the
# full sweep's median was 1.94x), measured on the engine before the cold
# sweep started clearing the process memos per edit.
MIN_SPEEDUP = 1.39
REPEATS = 1 if SMOKE else 2


def _base_task() -> DRTTask:
    """A dense recurrent 5-vertex core feeding a 4-vertex chain.

    The core's 25 edges (full cycle plus skew cross-links) dominate
    exploration and curve cost; the swept edge ``c2 -> c3`` sits at the
    end of the chain, so its cone is the terminal vertex ``{c3}``.
    """
    core_n, chain_n, wc, sep = 5, 4, 3, 7
    jobs = {}
    edges = []
    for i in range(core_n):
        jobs[f"a{i}"] = (wc, 40)
        edges.append((f"a{i}", f"a{(i + 1) % core_n}", sep))
    for i in range(core_n):
        for j in range(core_n):
            if j != (i + 1) % core_n and i != j:
                edges.append((f"a{i}", f"a{j}", sep + 1 + ((i * 3 + j) % 5)))
    for k in range(chain_n):
        jobs[f"c{k}"] = (1, 60)
    edges.append(("a0", "c0", 12))
    for k in range(chain_n - 1):
        edges.append((f"c{k}", f"c{k + 1}", 8))
    return DRTTask.build("whatif-bench", jobs=jobs, edges=edges)


def _beta():
    return rate_latency_service(F(1, 2), F(6))


def _edits():
    return [SetSeparation("c2", "c3", F(s)) for s in SEPARATIONS]


def _cold_sweep(base, beta, edits):
    """From-scratch re-analysis of every edited model: each on a
    :func:`cold_copy`, so no edit shares a memo with another."""
    summaries = []
    for edit in edits:
        edited, new_beta = apply_edit(base, beta, edit)
        summaries.append(
            StructuralAnalysis(cold_copy(edited), new_beta).summary()
        )
    return summaries


def _warm_sweep(base, beta, edits):
    """One warm session, started cold; its construction is charged to
    the sweep."""
    session = WhatIfSession(cold_copy(base), beta)
    return [session.analyze(edit) for edit in edits]


def run() -> dict:
    base = _base_task()
    beta = _beta()
    edits = _edits()

    saved = result_cache.current_config()
    result_cache.configure(None)
    try:
        cold_s = warm_s = float("inf")
        cold = warm = None
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            cold = _cold_sweep(base, beta, edits)
            cold_s = min(cold_s, time.perf_counter() - t0)

            t0 = time.perf_counter()
            warm = _warm_sweep(base, beta, edits)
            warm_s = min(warm_s, time.perf_counter() - t0)
    finally:
        result_cache.apply_config(saved)

    for res, expected in zip(warm, cold):
        assert res.ok, res.error
        assert res.summary == expected, (
            f"warm sweep diverged from cold re-analysis on {res.edit}"
        )
        # Every swept separation differs from the base (8), so each
        # edit's cone is exactly the chain's terminal vertex.
        assert res.cone_size == 1
        assert res.carried_vertices == len(base.job_names) - 1

    speedup = cold_s / warm_s
    payload = {
        "edits": len(edits),
        "cone_size": 1,
        "total_vertices": len(base.job_names),
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": speedup,
        "min_speedup_gate": MIN_SPEEDUP,
        "bit_identical": True,
        "smoke": SMOKE,
    }
    report(
        "whatif_sweep",
        "warm incremental sweep vs cold re-analysis "
        f"({len(edits)} single-edge edits)",
        ["mode", "wall_s", "per_edit_ms", "speedup"],
        [
            ["cold from-scratch", f"{cold_s:.4f}",
             f"{1000 * cold_s / len(edits):.2f}", "1.0x"],
            ["warm session", f"{warm_s:.4f}",
             f"{1000 * warm_s / len(edits):.2f}", f"{speedup:.1f}x"],
        ],
    )
    if not SMOKE:
        write_json("whatif", payload)
    return payload


def test_bench_whatif():
    payload = run()
    assert payload["speedup"] >= MIN_SPEEDUP, (
        f"warm what-if sweep only {payload['speedup']:.2f}x faster than "
        f"cold re-analysis (gate: {MIN_SPEEDUP}x)"
    )


if __name__ == "__main__":
    test_bench_whatif()
