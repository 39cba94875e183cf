"""Command-line interface: analyse a task file against a service curve.

Usage::

    repro-analyze task.json --rate 1/2 --latency 4
    repro-analyze task.json --rate 1 --tdma-slot 2 --tdma-frame 8
    python -m repro.cli task.json --rate 1/2 --latency 4 --per-job --dot g.dot
    python -m repro.cli serve --port 8177 --jobs auto
    python -m repro.cli cluster --workers 4 --port 8178
    python -m repro.cli diff base.json edited.json --json
    python -m repro.cli whatif task.json --rate 1/2 --edits edits.json
    python -m repro.cli mp dag1.json dag2.dot -m 4 --policy rm

The ``serve`` subcommand boots the analysis service
(:mod:`repro.service`): an HTTP/JSON front end with micro-batching,
admission control and a metrics plane.  ``cluster`` fronts a fleet of
such workers with cache-aware consistent-hash routing
(:mod:`repro.cluster`).  ``diff`` prints the structural blast radius of
a model edit (:func:`repro.drt.digest.structural_diff`) and ``whatif``
runs a warm incremental sweep of model edits (:mod:`repro.whatif`).
``mp`` analyses parallel DAG tasks on identical multiprocessors
(:mod:`repro.mp`): per-task long-path response-time bounds or a global
FP/RM schedulability verdict.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from fractions import Fraction

from repro._numeric import Q
from repro.core.baselines import (
    concave_hull_delay,
    sporadic_delay,
    token_bucket_delay,
)
from repro.core.delay import structural_delays_per_job
from repro.curves.service import rate_latency_service, tdma_service
from repro.drt.utilization import linear_request_bound, utilization
from repro.errors import ReproError, UnboundedBusyWindowError
from repro.io.dot import task_to_dot
from repro.io.json_io import load_task
from repro.minplus import backend as backend_mod
from repro.parallel import cache as result_cache
from repro.parallel import plane
from repro.resilience import Budget, bounded_delay

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analyze",
        description=(
            "Worst-case delay analysis of structural real-time workload "
            "(DATE 2015 reproduction)"
        ),
    )
    parser.add_argument("task", help="task JSON file (see repro.io.json_io)")
    parser.add_argument("--rate", required=True, help="service rate, e.g. 1/2")
    parser.add_argument("--latency", default="0", help="service latency")
    parser.add_argument("--tdma-slot", help="TDMA slot length (enables TDMA)")
    parser.add_argument("--tdma-frame", help="TDMA frame length")
    parser.add_argument(
        "--per-job", action="store_true", help="also print per-job-type delays"
    )
    parser.add_argument(
        "--baselines", action="store_true", help="also print abstraction baselines"
    )
    parser.add_argument(
        "--backlog", action="store_true", help="also print the backlog bound"
    )
    parser.add_argument(
        "--min-rate",
        metavar="BUDGET",
        help="synthesise the minimal service rate meeting this delay budget",
    )
    parser.add_argument(
        "--plot", action="store_true", help="render an ASCII chart of the analysis"
    )
    parser.add_argument("--dot", help="write the task graph to this DOT file")
    parser.add_argument(
        "--backend",
        choices=backend_mod.BACKENDS,
        help=(
            "min-plus kernel backend: 'exact' (pure rational arithmetic), "
            "'hybrid' (vectorized float64 screens with certified exact "
            "fallback; identical results) or 'auto' (per-op size "
            "threshold between the two; default when numpy is available)"
        ),
    )
    parser.add_argument(
        "--jobs",
        metavar="N",
        help=(
            "worker processes for fan-out analyses ('auto' = one per "
            "CPU; default: REPRO_JOBS or serial); results are "
            "bit-identical to serial runs"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "persistent result cache directory (default: REPRO_CACHE_DIR "
            "or off); an unwritable directory falls back to an in-memory "
            "cache with a warning"
        ),
    )
    parser.add_argument(
        "--deadline",
        metavar="SECONDS",
        help=(
            "wall-clock analysis budget; when exhausted, a sound "
            "over-approximate delay bound is reported instead of an "
            "exact one (marked 'degraded')"
        ),
    )
    parser.add_argument(
        "--budget",
        metavar="N",
        help=(
            "cap on analysis work units (frontier expansions and "
            "amortised kernel charges); exhaustion degrades like "
            "--deadline"
        ),
    )
    parser.add_argument(
        "--max-segments",
        metavar="K",
        help=(
            "segment budget of the degraded request-bound approximation "
            "(default 32; needs --deadline or --budget to matter)"
        ),
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip semantic validation of the loaded task file",
    )
    return parser


def _parse_budget(args) -> "Budget | None":
    """A Budget from --deadline/--budget/--max-segments, or None."""
    if not (args.deadline or args.budget or args.max_segments):
        return None
    try:
        return Budget(
            deadline=float(args.deadline) if args.deadline else None,
            max_expansions=int(args.budget) if args.budget else None,
            max_segments=int(args.max_segments) if args.max_segments else None,
        )
    except ValueError as exc:
        raise ReproError(f"invalid budget: {exc}") from exc


def _diff_main(argv) -> int:
    """``repro-analyze diff``: structural diff of two task files."""
    import json

    from repro.drt.digest import structural_diff

    parser = argparse.ArgumentParser(
        prog="repro-analyze diff",
        description=(
            "Classify the blast radius of the edit taking one task "
            "definition to another: changed vertices/edges, the "
            "affected reachability cone, and the carried remainder "
            "whose cached analyses survive the edit"
        ),
    )
    parser.add_argument("old", help="base task JSON file")
    parser.add_argument("new", help="edited task JSON file")
    parser.add_argument(
        "--json", action="store_true", help="print the diff as JSON"
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip semantic validation of the loaded task files",
    )
    args = parser.parse_args(argv)
    try:
        old = load_task(args.old, validate=not args.no_validate)
        new = load_task(args.new, validate=not args.no_validate)
        diff = structural_diff(old, new)
        if args.json:
            print(json.dumps(diff.to_dict(), indent=2))
            return 0
        if not diff.touched:
            print("tasks are structurally identical")
            return 0
        for label, values in (
            ("added vertices", sorted(diff.added_vertices)),
            ("removed vertices", sorted(diff.removed_vertices)),
            ("changed vertices", sorted(diff.changed_vertices)),
            ("added edges", sorted(diff.added_edges)),
            ("removed edges", sorted(diff.removed_edges)),
            ("changed edges", sorted(diff.changed_edges)),
        ):
            if values:
                shown = ", ".join(
                    v if isinstance(v, str) else f"{v[0]}->{v[1]}"
                    for v in values
                )
                print(f"{label}: {shown}")
        total = len(new.jobs)
        print(
            f"affected cone: {len(diff.affected_cone)} of {total} vertices "
            f"({', '.join(sorted(diff.affected_cone))})"
        )
        print(
            f"carried (reusable) vertices: {len(diff.carried_vertices)} "
            f"of {total}"
        )
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _whatif_main(argv) -> int:
    """``repro-analyze whatif``: warm sweep of model edits."""
    import json

    from repro.whatif import edit_from_dict, whatif_sweep

    parser = argparse.ArgumentParser(
        prog="repro-analyze whatif",
        description=(
            "Re-analyse a base task under a batch of model edits "
            "(WCET scaling, edge retiming/add/remove, tightened "
            "service), reusing the warm base exploration incrementally; "
            "bounds are bit-identical to from-scratch analyses"
        ),
    )
    parser.add_argument("task", help="base task JSON file")
    parser.add_argument("--rate", required=True, help="service rate, e.g. 1/2")
    parser.add_argument("--latency", default="0", help="service latency")
    parser.add_argument(
        "--edits",
        required=True,
        metavar="FILE",
        help=(
            "JSON file holding a list of edit objects, e.g. "
            '[{"op": "set_separation", "src": "a", "dst": "b", '
            '"separation": "7"}, {"op": "scale_wcet", "factor": "11/10"}]'
        ),
    )
    parser.add_argument(
        "--json", action="store_true", help="print results as JSON lines"
    )
    parser.add_argument(
        "--jobs",
        metavar="N",
        help="worker processes for the sweep ('auto' = one per CPU)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent result cache directory (default: REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip semantic validation of the loaded task file",
    )
    args = parser.parse_args(argv)
    try:
        if args.cache_dir:
            result_cache.configure(args.cache_dir)
        task = load_task(args.task, validate=not args.no_validate)
        beta = rate_latency_service(
            Fraction(args.rate), Fraction(args.latency)
        )
        try:
            specs = json.loads(open(args.edits).read())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {args.edits}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(specs, list) or not specs:
            print(
                f"error: {args.edits} must hold a non-empty JSON list",
                file=sys.stderr,
            )
            return 2
        edits = [edit_from_dict(spec) for spec in specs]
        results = whatif_sweep(task, beta, edits, jobs=args.jobs)
        failures = 0
        for res in results:
            if args.json:
                print(json.dumps(_whatif_result_dict(res)))
                continue
            label = json.dumps(res.edit)
            if not res.ok:
                failures += 1
                print(f"{label}: {res.error_code}: {res.error}")
                continue
            s = res.summary
            verdict = "ok" if s.meets_deadlines else "DEADLINE MISS"
            print(
                f"{label}: delay={s.delay} backlog={s.backlog} "
                f"busy_window={s.busy_window} [{verdict}] "
                f"(cone {res.cone_size}/{res.total_vertices}, "
                f"carried {res.carried_vertices})"
            )
        if not args.json:
            ok = len(results) - failures
            print(f"{ok}/{len(results)} edits analysed, {failures} failed")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _whatif_result_dict(res) -> dict:
    """JSON form of one sweep result (CLI --json; mirrors the service)."""
    out = {
        "edit": res.edit,
        "ok": res.ok,
        "cone_size": res.cone_size,
        "carried_vertices": res.carried_vertices,
        "total_vertices": res.total_vertices,
    }
    if not res.ok:
        out["error"] = {"code": res.error_code, "message": res.error}
        return out
    s = res.summary
    out["summary"] = {
        "task": s.task,
        "delay": str(s.delay),
        "backlog": str(s.backlog),
        "busy_window": str(s.busy_window),
        "per_job": {j: str(d) for j, d in s.per_job.items()},
        "meets_deadlines": s.meets_deadlines,
        "witness_vertices": (
            None if s.witness_vertices is None else list(s.witness_vertices)
        ),
    }
    return out


def _mp_main(argv) -> int:
    """``repro-analyze mp``: multiprocessor DAG analysis."""
    import json

    from repro.mp import (
        dag_rta,
        global_fp_schedulable,
        global_rm_schedulable,
        load_dag,
        load_dag_dot,
    )

    parser = argparse.ArgumentParser(
        prog="repro-analyze mp",
        description=(
            "Analyse parallel DAG tasks on an identical multiprocessor: "
            "per-task response-time bounds (Graham + long-path RTA) or "
            "a global FP/RM schedulability verdict with carry-in/body/"
            "carry-out interference bounds"
        ),
    )
    parser.add_argument(
        "tasks",
        nargs="+",
        metavar="TASK",
        help="DAG task files (JSON, or DOT when the name ends in .dot)",
    )
    parser.add_argument(
        "-m",
        "--processors",
        required=True,
        type=int,
        metavar="M",
        dest="m",
        help="number of identical processors",
    )
    parser.add_argument(
        "--policy",
        choices=("rta", "fp", "rm"),
        default="rta",
        help=(
            "'rta' bounds each task in isolation; 'fp' runs the global "
            "fixed-priority test in input order (highest first); 'rm' "
            "orders by period first (default: rta)"
        ),
    )
    parser.add_argument(
        "--max-paths",
        type=int,
        metavar="K",
        help="cap on vertex-disjoint long paths the RTA extracts",
    )
    parser.add_argument(
        "--max-iterations",
        type=int,
        metavar="N",
        help="fixpoint iteration cap of the global FP/RM test",
    )
    parser.add_argument(
        "--json", action="store_true", help="print results as JSON"
    )
    parser.add_argument(
        "--deadline",
        metavar="SECONDS",
        help=(
            "wall-clock budget for --policy rta; when exhausted the "
            "sound Graham bound is reported instead (marked 'degraded')"
        ),
    )
    parser.add_argument(
        "--budget",
        metavar="N",
        help="cap on analysis work units; exhaustion degrades like --deadline",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="persistent result cache directory (default: REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-validate",
        action="store_true",
        help="skip semantic validation of the loaded task files",
    )
    args = parser.parse_args(argv)
    args.max_segments = None
    try:
        if args.cache_dir:
            result_cache.configure(args.cache_dir)
        validate = not args.no_validate
        dags = [
            load_dag_dot(path, validate=validate)
            if path.endswith(".dot")
            else load_dag(path, validate=validate)
            for path in args.tasks
        ]
        budget = _parse_budget(args)
        if args.policy == "rta":
            all_ok = True
            for dag in dags:
                res = dag_rta(
                    dag, args.m, budget=budget, max_paths=args.max_paths
                )
                all_ok = all_ok and res.schedulable
                if args.json:
                    print(
                        json.dumps(
                            {
                                "task": dag.name,
                                "m": res.m,
                                "response": str(res.response),
                                "graham": str(res.graham),
                                "longest_path": str(res.longest_path),
                                "volume": str(res.volume),
                                "deadline": str(dag.deadline),
                                "schedulable": res.schedulable,
                                "degraded": res.degraded,
                                "level": res.level,
                            }
                        )
                    )
                    continue
                verdict = "OK" if res.schedulable else "MISS"
                note = " (degraded: graham)" if res.degraded else ""
                print(
                    f"{dag.name}: response<={res.response} "
                    f"(graham {res.graham}, len {res.longest_path}, "
                    f"vol {res.volume}, deadline {dag.deadline}) "
                    f"[{verdict}]{note}"
                )
            return 0 if all_ok else 3
        test = global_fp_schedulable if args.policy == "fp" else (
            global_rm_schedulable
        )
        kwargs = {}
        if args.max_iterations is not None:
            kwargs["max_iterations"] = args.max_iterations
        res = test(dags, args.m, **kwargs)
        if args.json:
            print(
                json.dumps(
                    {
                        "policy": res.policy,
                        "m": res.m,
                        "schedulable": res.schedulable,
                        "order": list(res.order),
                        "responses": {
                            name: None if bound is None else str(bound)
                            for name, bound in res.responses.items()
                        },
                        "failures": [
                            [name, str(bound), str(deadline)]
                            for name, bound, deadline in res.failures
                        ],
                    }
                )
            )
            return 0 if res.schedulable else 3
        print(
            f"global {res.policy.upper()} on m={res.m}: "
            + ("SCHEDULABLE" if res.schedulable else "NOT schedulable")
        )
        for name in res.order:
            bound = res.responses[name]
            print(
                f"  {name}: "
                + ("response not established" if bound is None else f"R<={bound}")
            )
        for name, bound, deadline in res.failures:
            print(f"  {name}: bound {bound} exceeds deadline {deadline}")
        return 0 if res.schedulable else 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        from repro.service.server import serve_main

        return serve_main(list(argv[1:]))
    if argv and argv[0] == "cluster":
        from repro.cluster.fleet import cluster_main

        return cluster_main(list(argv[1:]))
    if argv and argv[0] == "diff":
        return _diff_main(list(argv[1:]))
    if argv and argv[0] == "whatif":
        return _whatif_main(list(argv[1:]))
    if argv and argv[0] == "mp":
        return _mp_main(list(argv[1:]))
    args = _build_parser().parse_args(argv)
    try:
        if args.backend:
            backend_mod.set_backend(args.backend)
        if args.jobs:
            try:
                plane.set_default_jobs(args.jobs)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        if args.cache_dir:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result_cache.configure(args.cache_dir)
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
        print(
            f"engine: backend={backend_mod.get_backend()} "
            f"jobs={plane.resolve_jobs()} cache={result_cache.describe()}"
        )
        task = load_task(args.task, validate=not args.no_validate)
        budget = _parse_budget(args)
        if args.tdma_slot:
            if not args.tdma_frame:
                print("error: --tdma-frame required with --tdma-slot", file=sys.stderr)
                return 2
            beta = tdma_service(
                Fraction(args.rate),
                Fraction(args.tdma_slot),
                Fraction(args.tdma_frame),
                horizon=Fraction(args.tdma_frame) * 64,
            )
        else:
            beta = rate_latency_service(Fraction(args.rate), Fraction(args.latency))
        print(f"task {task.name}: {len(task.jobs)} jobs, {len(task.edges)} edges")
        burst, rho = linear_request_bound(task)
        print(f"utilization: {utilization(task)}  linear bound: {burst} + {rho}*t")
        result = bounded_delay(task, beta, budget=budget)
        if result.degraded:
            print(
                f"structural worst-case delay: <= {result.delay} "
                "(sound over-approximation)"
            )
            print(f"  degraded: level={result.level} ({result.reason})")
            if result.explored_horizon is not None:
                print(f"  explored horizon: {result.explored_horizon}")
            if args.per_job or args.backlog or args.plot or args.min_rate:
                print(
                    "  (per-job/backlog/plot/min-rate skipped: "
                    "budget exhausted)"
                )
            if args.dot:
                with open(args.dot, "w") as fh:
                    fh.write(task_to_dot(task))
                print(f"wrote {args.dot}")
            return 0
        print(f"structural worst-case delay: {result.delay}")
        if result.level != "exact":
            print(f"  (completed on the {result.level} ladder rung)")
        print(f"  busy window: {result.busy_window}")
        print(f"  critical tuple: {result.critical_tuple}")
        print(f"  tuples explored: {result.tuple_count}")
        if args.per_job:
            print("per-job delays:")
            for job, delay in sorted(structural_delays_per_job(task, beta).items()):
                verdict = "OK" if delay <= task.deadline(job) else "MISS"
                print(f"  {job}: {delay} (deadline {task.deadline(job)}) {verdict}")
        if args.baselines:
            for label, fn in (
                ("concave hull", concave_hull_delay),
                ("token bucket", token_bucket_delay),
                ("sporadic", sporadic_delay),
            ):
                try:
                    print(f"{label} delay bound: {fn(task, beta)}")
                except UnboundedBusyWindowError:
                    print(f"{label} delay bound: unbounded (abstraction overload)")
        if args.backlog:
            from repro.core.backlog import structural_backlog

            b = structural_backlog(task, beta)
            print(f"worst-case backlog: {b.backlog}")
        if args.min_rate:
            from repro.core.sensitivity import min_service_rate

            budget = Fraction(args.min_rate)
            rate = min_service_rate(task, Fraction(args.latency), budget)
            print(
                f"minimal service rate for delay budget {budget} "
                f"(latency {args.latency}): {rate} (~{float(rate):.4f})"
            )
        if args.plot:
            from repro.core.busy_window import busy_window_bound
            from repro.viz import render_delay_analysis

            bw = busy_window_bound(task, beta)
            print(
                render_delay_analysis(
                    bw.rbf, beta, result.busy_window, result.delay
                )
            )
        if args.dot:
            with open(args.dot, "w") as fh:
                fh.write(task_to_dot(task))
            print(f"wrote {args.dot}")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
