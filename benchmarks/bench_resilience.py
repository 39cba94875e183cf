"""Resilience gates: budget-checkpoint overhead and anytime termination.

Two enforced properties of :mod:`repro.resilience`:

1. **Disabled budgets are free (<2%).**  The engine's hot loops call
   :func:`repro.resilience.budget.checkpoint` unconditionally; with no
   active scope that is one global read and an ``is None`` test.  A
   direct A/B timing of a full sweep cannot resolve sub-2% effects above
   scheduler noise, so the gate is computed from first principles: the
   per-call disabled cost (tight-loop microbenchmark) times the number
   of ``checkpoint()`` calls the sweep makes, counted by a meter that
   tallies its ``charge`` calls (under one scope each call is exactly
   one charge), compared against the sweep's measured runtime.  Charged
   work units are reported beside the calls; they overstate the calls,
   because a sweep charges many units per call.

2. **Budget-capped sweeps terminate in time with sound bounds.**  The
   E7 ablation instances — the exploration-heaviest sweep in the
   harness — under a tight wall-clock deadline must come back within
   the deadline plus a fixed grace (one checkpoint stride plus the
   ladder's fallback work) and every returned bound must dominate the
   exact delay.
"""

import random
import time
from fractions import Fraction as F

from repro.core.delay import structural_delay
from repro.minplus.builders import rate_latency
from repro.resilience import Budget, bounded_delay, budget_scope
from repro.resilience.budget import BudgetMeter, checkpoint
from repro.workloads.random_drt import RandomDrtConfig, random_drt_task

from _harness import report, write_json

UTILS = [F(30, 100), F(50, 100), F(65, 100), F(75, 100)]
MAX_DISABLED_OVERHEAD = 0.02
#: Wall-clock allowance for the capped sweep, per analysis.
CAP_DEADLINE_S = 0.05
#: Termination grace per analysis: checkpoint stride latency plus the
#: degraded ladder's own (bounded) fallback work.
CAP_GRACE_S = 0.25


def _task(util: F, seed: int = 1):
    cfg = RandomDrtConfig(
        vertices=6,
        branching=2.5,
        separation_range=(5, 15),
        target_utilization=util,
    )
    return random_drt_task(random.Random(seed), cfg)


def _disabled_checkpoint_cost(calls: int = 200_000) -> float:
    """Best-of-3 per-call seconds of checkpoint() with no active scope."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            checkpoint()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best / calls


class _CountingMeter(BudgetMeter):
    """A meter with a huge allowance that counts its ``charge`` calls."""

    __slots__ = ("calls",)

    def __init__(self) -> None:
        super().__init__(Budget(max_expansions=10**12))
        self.calls = 0

    def charge(self, n: int = 1) -> None:
        self.calls += 1
        super().charge(n)


def _sweep(beta):
    """One full E7-style sweep on fresh tasks; returns (seconds, delays)."""
    tasks = [_task(u) for u in UTILS]
    t0 = time.perf_counter()
    delays = [structural_delay(t, beta).delay for t in tasks]
    return time.perf_counter() - t0, delays


def test_bench_disabled_budget_overhead():
    beta = rate_latency(1, 8)
    per_call = _disabled_checkpoint_cost()

    # Count the checkpoint calls of the sweep: under one scope every
    # call is exactly one charge of the active meter.
    calls = units = 0
    runtime = None
    for attempt in range(3):
        meter = _CountingMeter()
        tasks = [_task(u) for u in UTILS]
        t0 = time.perf_counter()
        with budget_scope(meter):
            for t in tasks:
                structural_delay(t, beta)
        dt = time.perf_counter() - t0
        calls = meter.calls
        units = 10**12 - meter.remaining_expansions()
        runtime = dt if runtime is None else min(runtime, dt)
    # The metered run also bounds the unmetered runtime from above, so
    # the ratio below is conservative.
    overhead = calls * per_call
    ratio = overhead / runtime

    report(
        "resilience_overhead",
        "disabled-budget checkpoint overhead (E7 sweep, R=1, T=8)",
        ["per-call ns", "calls", "charged units", "overhead ms",
         "sweep ms", "ratio"],
        [[per_call * 1e9, calls, units, overhead * 1e3, runtime * 1e3,
          f"{100 * ratio:.3f}%"]],
    )
    write_json(
        "resilience_overhead",
        {
            "experiment": "resilience",
            "per_call_s": per_call,
            "checkpoint_calls": calls,
            "charged_units": units,
            "sweep_s": runtime,
            "overhead_ratio": ratio,
            "max_allowed": MAX_DISABLED_OVERHEAD,
        },
    )
    assert ratio < MAX_DISABLED_OVERHEAD, (
        f"disabled checkpoints cost {100 * ratio:.2f}% of the sweep "
        f"(limit {100 * MAX_DISABLED_OVERHEAD:.0f}%)"
    )


def test_bench_budget_capped_sweep_terminates_soundly():
    beta = rate_latency(1, 8)
    _, exact = _sweep(beta)

    # The expansion cap makes degradation deterministic (machine-speed
    # independent); the deadline is the wall-clock safety net under test.
    budget = Budget(deadline=CAP_DEADLINE_S, max_expansions=150)
    rows = []
    t0 = time.perf_counter()
    results = [bounded_delay(_task(u), beta, budget=budget) for u in UTILS]
    elapsed = time.perf_counter() - t0

    for util, res, ex in zip(UTILS, results, exact):
        rows.append(
            [float(util), res.level, str(res.delay), str(ex),
             "yes" if res.delay >= ex else "NO"]
        )
    rows.append(["-", "total s", f"{elapsed:.3f}", "limit",
                 f"{len(UTILS) * (CAP_DEADLINE_S + CAP_GRACE_S):.3f}"])
    report(
        "resilience_capped",
        f"budget-capped E7 sweep (deadline {CAP_DEADLINE_S}s per analysis)",
        ["utilization", "level", "bound", "exact", "sound"],
        rows,
    )
    write_json(
        "resilience_capped",
        {
            "experiment": "resilience",
            "deadline_s": CAP_DEADLINE_S,
            "elapsed_s": elapsed,
            "cases": [
                {
                    "util": str(u),
                    "level": r.level,
                    "degraded": r.degraded,
                    "bound": r.delay,
                    "exact": e,
                }
                for u, r, e in zip(UTILS, results, exact)
            ],
        },
    )
    assert elapsed <= len(UTILS) * (CAP_DEADLINE_S + CAP_GRACE_S), (
        f"capped sweep took {elapsed:.2f}s"
    )
    for res, ex in zip(results, exact):
        assert res.delay >= ex, "anytime bound fell below the exact delay"
    # The cap is tight enough that at least one analysis walked the
    # ladder — the gate exercises degradation, not just the happy path.
    assert any(r.degraded for r in results)
