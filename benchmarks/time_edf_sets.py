"""Wall time of the EDF set analyses on twelve three-task sets.

The sets are the first 36 random tasks of the ``analyze-cold`` reference
pool in seed-1 send order (``perfbench/inputs.py::analyze_pool``; the
four case studies are skipped), taken three at a time.  Each set runs on
a rate-latency service of latency 2 and rate ``1.1 * U + 0.1``, with
``U`` the set's total utilization.  Every timed call gets fresh task
objects and starts with the process memos emptied
(:func:`repro.parallel.reset_process_caches`), so nothing carries over
between calls; the reported time is the median of ``--runs`` calls.

Run with::

    PYTHONPATH=src python benchmarks/time_edf_sets.py [--runs 2]

Point ``PYTHONPATH`` at another checkout's ``src`` to time that version
on the same sets.  Intentionally *not* named ``bench_*.py``: it prints a
table and gates nothing.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from fractions import Fraction as F

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import inputs  # noqa: E402  (perfbench's seeded input generators)

from repro.drt.model import DRTTask  # noqa: E402
from repro.drt.utilization import utilization  # noqa: E402
from repro.errors import UnboundedBusyWindowError  # noqa: E402
from repro.minplus.builders import rate_latency  # noqa: E402
from repro.parallel import reset_process_caches  # noqa: E402
from repro.sched.edf import edf_schedulable  # noqa: E402
from repro.sched.edf_delay import edf_structural_delays  # noqa: E402

SETS = 12
SET_SIZE = 3


def reference_sets():
    """``(tasks, beta)`` of every timed set."""
    tasks = [
        op.subject for op in inputs.analyze_pool(1)
        if not op.label.startswith("case-")
    ][: SETS * SET_SIZE]
    out = []
    for k in range(SETS):
        group = tasks[k * SET_SIZE : (k + 1) * SET_SIZE]
        u = sum((utilization(t) for t in group), F(0))
        out.append((group, rate_latency(F(11, 10) * u + F(1, 10), 2)))
    return out


def _fresh(tasks):
    return [DRTTask(t.name, list(t.jobs.values()), list(t.edges)) for t in tasks]


def _timed(fn, tasks, beta, runs):
    """``(median ms, outcome)`` of *runs* cold calls."""
    times, outcome = [], None
    for _ in range(runs):
        reset_process_caches()
        fresh = _fresh(tasks)
        t0 = time.perf_counter()
        try:
            outcome = fn(fresh, beta)
        except UnboundedBusyWindowError:
            outcome = "unbounded"
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times), outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=2)
    args = parser.parse_args()
    rows = []
    print("set  edf_schedulable ms  verdict       edf_structural_delays ms")
    for k, (tasks, beta) in enumerate(reference_sets()):
        ms, res = _timed(edf_schedulable, tasks, beta, args.runs)
        verdict = res if isinstance(res, str) else (
            "schedulable" if res.schedulable else f"violated@{res.violation_window}"
        )
        ms_d, res_d = _timed(
            lambda ts, b: edf_structural_delays(ts, b, jobs=1), tasks, beta, args.runs
        )
        delays = "" if not isinstance(res_d, str) else f" ({res_d})"
        rows.append((ms, ms_d))
        print(f"{k:>3}  {ms:>18.1f}  {verdict:<12}  {ms_d:>24.1f}{delays}")
    med = statistics.median(r[0] for r in rows)
    med_d = statistics.median(r[1] for r in rows)
    print(f"median edf_schedulable {med:.1f} ms, edf_structural_delays {med_d:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
