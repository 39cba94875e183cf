"""Write the golden-bounds file that ``tests/test_golden_bounds.py`` checks.

The file records, as exact ``Fraction`` strings, every bound the
structural analysis and its RTC baselines produce on a fixed input set:

* the 148 reference ops of the ``analyze-cold`` benchmark workload
  (16 random DRT tasks from each of 9 size/utilization strata on
  rate-1 rate-latency services of latency 2/6/12, plus the four E1
  case studies on their own services), rebuilt here from
  :mod:`repro.workloads.random_drt` with the same seeded streams;
* per op: the busy window ``(length, horizon, iterations)``, the delay
  result (bound, critical tuple, tuple count, exploration stats), the
  backlog result, the per-job delays, ``rtc_delay`` and ``rtc_backlog``.

The committed file was generated by the engine that still ran every
reduction on ``Fraction`` curves (commit ``fe52bc1``), so the test
holds later engines to that engine's answers.  Regenerating it with the
current engine only restates what the current engine computes; do that
only when a bound is meant to change.

Usage::

    PYTHONPATH=src python tools/gen_golden_bounds.py [OUT]

``OUT`` defaults to ``tests/data/golden_bounds.json``.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction as F
from typing import Dict, List, Tuple

from repro import (
    CASE_STUDIES,
    RandomDrtConfig,
    random_drt_task,
    rate_latency_service,
)
from repro.core.backlog import structural_backlog
from repro.core.baselines import rtc_backlog, rtc_delay
from repro.core.busy_window import busy_window_bound
from repro.core.delay import structural_delay, structural_delays_per_job
from repro.drt.model import DRTTask
from repro.minplus.curve import Curve

#: The reference population of the ``analyze-cold`` workload.
REFERENCE_SEED = 0
VERTEX_BINS = ((8, 10), (11, 13), (14, 16))
UTILIZATION_BINS = ((40, 50), (50, 60), (60, 70))
LATENCIES = (2, 6, 12)
PER_STRATUM = 16
#: Task names carry the order seed of the workload (``r<seed>.<s>.<k>``).
ORDER_SEED = 1

DEFAULT_OUT = os.path.join(
    os.path.dirname(__file__), os.pardir, "tests", "data", "golden_bounds.json"
)


def reference_ops() -> List[Tuple[str, DRTTask, Curve]]:
    """``(label, task, beta)`` of every reference op, stratum-major within
    each round (the workload shuffles each round; bounds do not care)."""
    betas = [rate_latency_service(1, latency) for latency in LATENCIES]
    strata = [(vb, ub) for vb in VERTEX_BINS for ub in UTILIZATION_BINS]
    streams = {
        st: random.Random(":".join(map(str, (REFERENCE_SEED, "drt") + st)))
        for st in strata
    }
    cases = sorted(CASE_STUDIES.items())
    ops = []
    for k in range(PER_STRATUM):
        for si, (vb, ub) in enumerate(strata):
            rng = streams[(vb, ub)]
            cfg = RandomDrtConfig(
                vertices=rng.randint(*vb),
                target_utilization=F(rng.randint(*ub), 100),
            )
            name = f"r{ORDER_SEED}.{si}.{k}"
            task = random_drt_task(rng, cfg, name=name)
            ops.append((name, task, betas[(k + si) % len(betas)]))
        if k < len(cases):
            case = cases[k][1]()
            ops.append((f"case-{cases[k][0]}", case.task, case.service))
    return ops


def _tuple(tup) -> object:
    return None if tup is None else [str(tup.time), str(tup.work), tup.vertex]


def bounds_of(task: DRTTask, beta: Curve) -> Dict[str, object]:
    """Every recorded bound of one op, as JSON-ready strings."""
    bw = busy_window_bound(task, beta)
    delay = structural_delay(task, beta)
    backlog = structural_backlog(task, beta)
    per_job = structural_delays_per_job(task, beta)
    return {
        "busy_window": [str(bw.length), str(bw.horizon), bw.iterations],
        "delay": {
            "delay": str(delay.delay),
            "busy_window": str(delay.busy_window),
            "horizon": str(delay.horizon),
            "critical_tuple": _tuple(delay.critical_tuple),
            "tuple_count": delay.tuple_count,
            "stats": [
                delay.stats.expanded, delay.stats.kept, delay.stats.pruned
            ],
        },
        "backlog": {
            "backlog": str(backlog.backlog),
            "busy_window": str(backlog.busy_window),
            "critical_tuple": _tuple(backlog.critical_tuple),
        },
        "per_job": {v: str(d) for v, d in sorted(per_job.items())},
        "rtc_delay": str(rtc_delay(task, beta)),
        "rtc_backlog": str(rtc_backlog(task, beta)),
    }


def main(argv: List[str]) -> int:
    out = argv[1] if len(argv) > 1 else DEFAULT_OUT
    records = {label: bounds_of(task, beta) for label, task, beta in reference_ops()}
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    # One op per line keeps a changed bound a one-line diff.
    lines = [
        f"{json.dumps(label)}: {json.dumps(rec, sort_keys=True)}"
        for label, rec in sorted(records.items())
    ]
    with open(out, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(records)} ops to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
