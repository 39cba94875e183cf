"""Experiment E7 (ablation): what domination pruning buys.

The structural analysis with and without Pareto domination pruning while
utilization — and hence the busy-window depth the exploration must cover
— grows.  Identical results by construction (asserted).  Expected shape:
the unpruned exploration enumerates paths, so its tuple count grows
exponentially with the busy window; the pruned frontier grows only
linearly.  Pruning is the algorithmic core that makes the structural
analysis practical.

A second ablation targets the incremental layer on top of pruning: the
shared frontier engine vs a cold reference — each entry point on its own
fresh copy of the task after clearing every process memo
(``_harness.cold_copy``) — on the same instances (every analysis entry
point at four service latencies).  At utilization >= 0.6 the engine
must be at least ``MIN_SPEEDUP`` times faster with bit-identical bounds
— asserted and recorded in ``out/BENCH_ablation_pruning.json``.
"""

import random
import time
from fractions import Fraction as F

import pytest

from repro.core.delay import structural_delay
from repro.minplus.builders import rate_latency
from repro.workloads.random_drt import RandomDrtConfig, random_drt_task

from _harness import report, speedup_case, write_json

UTILS = [F(30, 100), F(50, 100), F(65, 100), F(75, 100)]
SPEEDUP_UTILS = [F(60, 100), F(65, 100), F(75, 100)]
SPEEDUP_LATENCIES = [8, 12, 16, 24]
# 0.75 x the median, over six runs on a 2-vCPU VM, of the smallest
# per-utilization ratio, measured on the engine before this cold
# reference replaced the removed from-scratch flag (median 2.82x).
MIN_SPEEDUP = 2.11


def _task(util: F, seed: int = 1):
    cfg = RandomDrtConfig(
        vertices=6,
        branching=2.5,
        separation_range=(5, 15),
        target_utilization=util,
    )
    return random_drt_task(random.Random(seed), cfg)


def _measure(task, beta, prune: bool):
    t0 = time.perf_counter()
    res = structural_delay(task, beta, prune=prune)
    return time.perf_counter() - t0, res


def test_bench_ablation_pruning(benchmark):
    beta = rate_latency(1, 8)
    rows = []
    for util in UTILS:
        task = _task(util)
        t_on, r_on = _measure(task, beta, prune=True)
        t_off, r_off = _measure(task, beta, prune=False)
        assert r_on.delay == r_off.delay, "pruning must not change the result"
        rows.append(
            [
                float(util),
                float(r_on.busy_window),
                r_on.stats.kept,
                r_off.stats.kept,
                f"{r_off.stats.kept / max(1, r_on.stats.kept):.0f}x",
                1000 * t_on,
                1000 * t_off,
            ]
        )
    report(
        "ablation_pruning",
        "domination pruning ablation (6 vertices, branching 2.5, R=1, T=8)",
        ["utilization", "busy window", "tuples on", "tuples off", "blowup",
         "ms on", "ms off"],
        rows,
    )
    # Shape: the unpruned exploration is never smaller, and its blowup
    # factor explodes with the busy window (exponential vs linear).
    for row in rows:
        assert row[3] >= row[2]
    first = rows[0][3] / max(1, rows[0][2])
    last = rows[-1][3] / max(1, rows[-1][2])
    assert last >= 10 * first, "pruning must matter at depth"
    benchmark(lambda: _measure(_task(F(65, 100)), beta, prune=True))


def test_bench_ablation_incremental():
    """Second ablation layer: shared engine vs cold copies."""
    cases = []
    rows = []
    for util in SPEEDUP_UTILS:
        case = speedup_case(
            {
                "vertices": 6,
                "branching": 2.5,
                "separation_range": [5, 15],
                "util": [util.numerator, util.denominator],
                "seed": 1,
                "latencies": SPEEDUP_LATENCIES,
            }
        )
        cases.append(case)
        rows.append(
            [
                float(util),
                1000 * case["scratch_s"],
                1000 * case["incremental_s"],
                f"{case['speedup']:.2f}x",
            ]
        )
    report(
        "ablation_incremental",
        "incremental engine ablation (6 vertices, branching 2.5, R=1, "
        "T in {8, 12, 16, 24}, 8 analyses per beta)",
        ["utilization", "cold ms", "shared ms", "speedup"],
        rows,
    )
    write_json(
        "ablation_pruning",
        {
            "experiment": "E7",
            "suite": "sensitivity sweep: 8 analysis entry points x "
                     f"latencies {SPEEDUP_LATENCIES}",
            "min_required_speedup": MIN_SPEEDUP,
            "cases": cases,
        },
    )
    assert all(c["bit_identical"] for c in cases)
    for util, case in zip(SPEEDUP_UTILS, cases):
        if util >= F(3, 5):
            assert case["speedup"] >= MIN_SPEEDUP, (
                f"speedup at util {util} is only {case['speedup']:.2f}x"
            )
