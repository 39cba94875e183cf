"""Write the golden set-analysis file that ``tests/test_golden_sets.py`` checks.

The file records, as exact ``Fraction`` strings, what the task-set
analyses answer on a fixed, seeded pool of small random sets from
:mod:`repro.workloads.random_drt`:

* ``constrained``: 8 sets of 2-3 tasks with 4-6 vertices and
  constrained deadlines (``deadline_factor`` 1), each on a tight and a
  roomy rate-latency service.  Per set and service the file holds
  ``sp_structural_delays``, ``sp_schedulable``, ``edf_schedulable`` and
  ``edf_structural_delays``; an analysis that raises records the
  exception's class name instead.
* ``arbitrary``: 6 sets with ``deadline_factor`` 2 and 3 (deadlines
  beyond the separations) on a lean and the tight service, with the
  ``edf_schedulable`` result only.

Usage::

    PYTHONPATH=src python tools/gen_golden_sets.py [OUT]

``OUT`` defaults to ``tests/data/golden_sets.json``.  Regenerating the
file only restates what the current code computes; do that only when a
result is meant to change.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction as F
from typing import Callable, Dict, List, Tuple

from repro import RandomDrtConfig, rate_latency_service
from repro.core.multi import sp_structural_delays
from repro.drt.model import DRTTask
from repro.drt.utilization import utilization
from repro.minplus.curve import Curve
from repro.sched.edf import edf_schedulable
from repro.sched.edf_delay import edf_structural_delays
from repro.sched.sp import sp_schedulable
from repro.workloads.random_drt import random_task_set

CONSTRAINED_SETS = 8
ARBITRARY_FACTORS = (2, 2, 2, 3, 3, 3)

DEFAULT_OUT = os.path.join(
    os.path.dirname(__file__), os.pardir, "tests", "data", "golden_sets.json"
)

TaskSet = Tuple[str, List[DRTTask], Curve]


def _draw(label: str, deadline_factor: int) -> Tuple[List[DRTTask], F]:
    """One seeded set and its total utilization."""
    rng = random.Random(f"golden-sets:{label}")
    cfg = RandomDrtConfig(
        vertices=rng.randint(4, 6),
        separation_range=(10, 50),
        deadline_factor=F(deadline_factor),
    )
    total = F(rng.randint(30, 75), 100)
    tasks = random_task_set(rng, rng.randint(2, 3), total, cfg)
    return tasks, sum((utilization(t) for t in tasks), F(0))


def _service(name: str, u: F) -> Curve:
    """The rate-latency service *name* for utilization *u*."""
    rate, latency = {
        "lean": (F(21, 20) * u, 10),
        "tight": (F(11, 10) * u + F(1, 10), 2),
        "roomy": (2 * u + F(1, 2), 1),
    }[name]
    return rate_latency_service(rate, latency)


def constrained_sets() -> List[TaskSet]:
    """``(label, tasks, beta)`` of every constrained-deadline case."""
    out = []
    for k in range(CONSTRAINED_SETS):
        tasks, u = _draw(f"c{k}", 1)
        for name in ("tight", "roomy"):
            out.append((f"c{k}.{name}", tasks, _service(name, u)))
    return out


def arbitrary_sets() -> List[TaskSet]:
    """``(label, tasks, beta)`` of every arbitrary-deadline case."""
    out = []
    for k, factor in enumerate(ARBITRARY_FACTORS):
        tasks, u = _draw(f"a{k}", factor)
        for name in ("lean", "tight"):
            out.append((f"a{k}.d{factor}.{name}", tasks, _service(name, u)))
    return out


def _fresh(tasks: List[DRTTask]) -> List[DRTTask]:
    """Equal tasks with no analysis state attached."""
    return [DRTTask(t.name, list(t.jobs.values()), list(t.edges)) for t in tasks]


def _guarded(fn: Callable[[], object]) -> object:
    try:
        return fn()
    except Exception as exc:  # recorded: a changed exception is a change
        return {"error": type(exc).__name__}


def _delays(d: Dict[str, Dict[str, F]]) -> Dict[str, Dict[str, str]]:
    return {t: {v: str(x) for v, x in sorted(js.items())} for t, js in sorted(d.items())}


def _sp_delays(tasks: List[DRTTask], beta: Curve) -> object:
    res = sp_structural_delays(tasks, beta)
    return {
        name: [
            str(r.delay),
            str(r.busy_window),
            None if r.critical_tuple is None else [
                str(r.critical_tuple.time), str(r.critical_tuple.work),
                r.critical_tuple.vertex,
            ],
        ]
        for name, r in sorted(res.items())
    }


def _sp(tasks: List[DRTTask], beta: Curve) -> object:
    res = sp_schedulable(tasks, beta, jobs=1)
    return {
        "schedulable": res.schedulable,
        "job_delays": _delays(res.job_delays),
        "failures": [[t, j, str(d), str(dl)] for t, j, d, dl in res.failures],
        "saturated": list(res.saturated),
    }


def edf_record(tasks: List[DRTTask], beta: Curve) -> object:
    """``edf_schedulable`` on fresh copies of *tasks*."""

    def run():
        res = edf_schedulable(_fresh(tasks), beta)
        window = res.violation_window
        return {
            "schedulable": res.schedulable,
            "violation_window": None if window is None else str(window),
            "horizon": str(res.horizon),
        }

    return _guarded(run)


def _edf_delays(tasks: List[DRTTask], beta: Curve) -> object:
    res = edf_structural_delays(tasks, beta, jobs=1)
    return {
        "job_delays": _delays(res.job_delays),
        "busy_window": str(res.busy_window),
        "schedulable": res.schedulable,
    }


def set_record(tasks: List[DRTTask], beta: Curve) -> Dict[str, object]:
    """Every recorded result of one constrained case, each analysis on
    fresh copies of *tasks*."""
    return {
        "sp_structural_delays": _guarded(lambda: _sp_delays(_fresh(tasks), beta)),
        "sp_schedulable": _guarded(lambda: _sp(_fresh(tasks), beta)),
        "edf_schedulable": edf_record(tasks, beta),
        "edf_structural_delays": _guarded(lambda: _edf_delays(_fresh(tasks), beta)),
    }


def main(argv: List[str]) -> int:
    out = argv[1] if len(argv) > 1 else DEFAULT_OUT
    records = {
        "constrained": {
            label: set_record(tasks, beta)
            for label, tasks, beta in constrained_sets()
        },
        "arbitrary": {
            label: edf_record(tasks, beta)
            for label, tasks, beta in arbitrary_sets()
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    # One case per line keeps a changed result a one-line diff.
    parts = []
    for group, recs in records.items():
        lines = [
            f"    {json.dumps(label)}: {json.dumps(rec, sort_keys=True)}"
            for label, rec in sorted(recs.items())
        ]
        parts.append(f"  {json.dumps(group)}: {{\n" + ",\n".join(lines) + "\n  }")
    with open(out, "w") as fh:
        fh.write("{\n" + ",\n".join(parts) + "\n}\n")
    print(f"wrote {sum(len(r) for r in records.values())} cases to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
