"""Execution plane: jobs resolution, fan-out semantics, bit-identity."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.facade import analyze_many
from repro.core.sensitivity import min_service_rates
from repro.drt.model import DRTTask
from repro.errors import ReproError
from repro.minplus import kernels
from repro.minplus.builders import rate_latency, token_bucket
from repro.parallel import parallel_map, resolve_jobs, set_default_jobs
from repro.parallel import plane
from repro.rtc.network import analyze_chains, chain_analysis, end_to_end_service
from repro.sched.acceptance import acceptance_ratio
from repro.sched.edf_delay import edf_structural_delays
from repro.sched.sp import sp_schedulable
from repro.workloads.random_drt import RandomDrtConfig

from tests.conftest import alive, proc_stat, service_curves, small_drt_tasks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _restore_jobs_default():
    yield
    set_default_jobs(None)


# ---------------------------------------------------------------------------
# Worker functions (module-level: must be picklable by reference)
# ---------------------------------------------------------------------------


def _square(x):
    perf.record("testplane.calls")
    return x * x


def _raise_on_even(x):
    if x % 2 == 0:
        raise ValueError(f"bad {x}")
    return x


def _process_memo_sizes(_):
    from repro import _memo
    from repro.cluster import routing  # noqa: F401 - registers its memo
    from repro.parallel import cache as result_cache

    sizes = {memo.name: len(memo) for memo in _memo._registry}
    sizes["result"] = len(result_cache._memory)
    return sizes


def _sp_accepts(tasks, beta):
    return sp_schedulable(tasks, beta).schedulable


def _edf_accepts(tasks, beta):
    return edf_structural_delays(tasks, beta).schedulable


# ---------------------------------------------------------------------------
# resolve_jobs precedence
# ---------------------------------------------------------------------------


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3

    def test_process_default_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        set_default_jobs(2)
        assert resolve_jobs() == 2

    def test_explicit_beats_everything(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        set_default_jobs(2)
        assert resolve_jobs(jobs=5) == 5

    def test_auto_means_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(jobs="auto") == (os.cpu_count() or 1)

    def test_capped_by_item_count(self):
        assert resolve_jobs(jobs=8, n_items=3) == 3
        assert resolve_jobs(jobs=8, n_items=0) == 1

    @pytest.mark.parametrize("bad", ["zero", "-1", 0, -2, 1.5, True])
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            resolve_jobs(jobs=bad)

    def test_worker_processes_stay_serial(self, monkeypatch):
        monkeypatch.setattr(plane, "_in_worker", True)
        assert resolve_jobs(jobs=8) == 1


# ---------------------------------------------------------------------------
# parallel_map semantics
# ---------------------------------------------------------------------------


class TestParallelMap:
    def test_order_preserved(self):
        items = list(range(10))
        assert parallel_map(_square, items, jobs=2) == [x * x for x in items]

    def test_worker_perf_merged_into_parent(self):
        perf.reset()
        parallel_map(_square, list(range(6)), jobs=2)
        assert perf.counters().get("testplane.calls") == 6

    def test_first_item_order_error_raised(self):
        # Item order decides which error surfaces, exactly like a serial
        # loop: 4 fails before 2 even if a worker finishes 2 first.
        with pytest.raises(ValueError, match="bad 4"):
            parallel_map(_raise_on_even, [1, 4, 2, 8], jobs=2)

    def test_serial_and_parallel_raise_identically(self):
        with pytest.raises(ValueError, match="bad 2"):
            parallel_map(_raise_on_even, [3, 2, 4], jobs=1)
        with pytest.raises(ValueError, match="bad 2"):
            parallel_map(_raise_on_even, [3, 2, 4], jobs=2)

    def test_fresh_caches_clears_op_memo(self):
        """Every registered process memo, and the in-memory result
        cache, is empty inside a fresh-caches job."""
        from repro import _memo
        from repro.cluster import routing  # noqa: F401 - registers its memo
        from repro.parallel import cache as result_cache

        for memo in _memo._registry:
            memo.put(("test-sentinel",), object())
        result_cache.configure(None)
        result_cache.apply_config((None, result_cache.DEFAULT_MAX_BYTES, True))
        try:
            result_cache.put("0" * 64, 1)
            seeded = _process_memo_sizes(None)
            assert "drt.int_service" in seeded
            assert all(seeded.values()), seeded
            (sizes,) = parallel_map(
                _process_memo_sizes, [0], jobs=1, fresh_caches=True
            )
        finally:
            result_cache.configure(None)
        assert not any(sizes.values()), sizes

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_serial_fallback_warning_carries_cause(self, monkeypatch):
        # Pool startup failure (restricted sandbox) degrades to serial
        # with a RuntimeWarning that names and chains the original
        # exception, so operators can tell fork-denied from pool-crash.
        cause = PermissionError("fork denied by sandbox")

        def _broken_pool(n):
            raise cause

        monkeypatch.setattr(plane, "_get_pool", _broken_pool)
        with pytest.warns(RuntimeWarning, match="PermissionError") as caught:
            out = parallel_map(_square, [1, 2, 3], jobs=2)
        assert out == [1, 4, 9]
        warning = caught[0].message
        assert "fork denied by sandbox" in str(warning)
        assert warning.__cause__ is cause


#: Fans out once on a two-worker pool, prints the workers' pids, and
#: waits to be killed.
_ORPHAN_PROBE = """
import multiprocessing, time
from repro.parallel import parallel_map
assert parallel_map(abs, [-1, -2, -3, -4], jobs=2) == [1, 2, 3, 4]
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
time.sleep(120)
"""


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/stat"), reason="needs /proc"
)
class TestWorkerLifetime:
    def test_pool_workers_exit_when_parent_is_killed(self):
        """A process that fanned out through the plane and was then
        SIGKILLed leaves no pool worker behind."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        # Ambient fault injection would crash or replace the very
        # workers this test watches.
        for name in ("REPRO_CHAOS", "REPRO_CHAOS_HANG_S"):
            env.pop(name, None)
        proc = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_PROBE],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        workers = {}
        try:
            pids = [int(p) for p in proc.stdout.readline().split()]
            assert len(pids) == 2, pids
            for pid in pids:
                stat = proc_stat(pid)
                assert stat is not None and stat[1] == proc.pid, stat
                workers[pid] = stat[2]
            proc.kill()
            proc.wait(timeout=30)
            deadline = time.monotonic() + 3 + 2 * plane.PARENT_POLL_S
            while time.monotonic() < deadline and any(
                alive(pid, start) for pid, start in workers.items()
            ):
                time.sleep(0.05)
            survivors = [
                pid for pid, start in workers.items() if alive(pid, start)
            ]
            assert not survivors, f"orphaned pool workers: {survivors}"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            proc.stdout.close()
            for pid, start in workers.items():
                if alive(pid, start):
                    os.kill(pid, signal.SIGKILL)


class TestMapSettled:
    def test_outcomes_in_order(self):
        outcomes = plane.map_settled(_square, [1, 2, 3], jobs=2)
        assert outcomes == [("ok", 1), ("ok", 4), ("ok", 9)]

    def test_failures_settle_alone(self):
        # parallel_map raises on the first failing item; map_settled
        # returns every outcome so one bad request cannot poison the
        # micro-batch it was coalesced into.
        outcomes = plane.map_settled(_raise_on_even, [1, 4, 3, 2], jobs=2)
        assert [s for s, _ in outcomes] == ["ok", "err", "ok", "err"]
        assert outcomes[0][1] == 1
        assert isinstance(outcomes[1][1], ValueError)
        assert str(outcomes[1][1]) == "bad 4"

    def test_serial_path_matches(self):
        parallel = plane.map_settled(_raise_on_even, [1, 2], jobs=2)
        serial = plane.map_settled(_raise_on_even, [1, 2], jobs=1)
        assert [s for s, _ in parallel] == [s for s, _ in serial]
        assert parallel[0][1] == serial[0][1]
        assert str(parallel[1][1]) == str(serial[1][1])

    def test_worker_perf_still_merged(self):
        perf.reset()
        plane.map_settled(_square, list(range(6)), jobs=2)
        assert perf.counters().get("testplane.calls") == 6


# ---------------------------------------------------------------------------
# Fan-out entry points are bit-identical to their serial runs
# ---------------------------------------------------------------------------


def _renamed_set(tasks):
    """Give hypothesis-generated tasks unique names for set analyses."""
    return [
        DRTTask(f"t{i}", list(t.jobs.values()), t.edges)
        for i, t in enumerate(tasks)
    ]


def _outcome(fn):
    """Result or (exception type, message) — for exact comparison."""
    try:
        return ("ok", fn())
    except ReproError as exc:
        return ("err", type(exc).__name__, str(exc))


@settings(max_examples=8, deadline=None)
@given(
    t1=small_drt_tasks(),
    t2=small_drt_tasks(),
    beta=service_curves(),
)
def test_sp_parallel_bit_identical(t1, t2, beta):
    tasks = _renamed_set([t1, t2])
    serial = _outcome(lambda: sp_schedulable(tasks, beta, jobs=1))
    fanned = _outcome(lambda: sp_schedulable(tasks, beta, jobs=2))
    assert serial == fanned


@settings(max_examples=8, deadline=None)
@given(
    t1=small_drt_tasks(),
    t2=small_drt_tasks(),
    beta=service_curves(),
)
def test_edf_parallel_bit_identical(t1, t2, beta):
    tasks = _renamed_set([t1, t2])
    serial = _outcome(lambda: edf_structural_delays(tasks, beta, jobs=1))
    fanned = _outcome(lambda: edf_structural_delays(tasks, beta, jobs=2))
    assert serial == fanned


def test_chain_analysis_parallel_bit_identical():
    alpha = token_bucket(4, F(1, 2))
    betas = [rate_latency(1, 2), rate_latency(F(3, 2), 1), rate_latency(2, 4)]
    serial = chain_analysis(alpha, betas, jobs=1)
    fanned = chain_analysis(alpha, betas, jobs=2)
    assert serial == fanned


def test_end_to_end_service_tree_reduce_identical():
    betas = [rate_latency(F(k + 1, 2), k) for k in range(5)]
    assert end_to_end_service(betas, jobs=2) == end_to_end_service(betas)


def test_analyze_chains_matches_individual_runs():
    chains = [
        (token_bucket(2, F(1, 3)), [rate_latency(1, 1), rate_latency(1, 2)]),
        (token_bucket(5, F(1, 2)), [rate_latency(2, 0)]),
    ]
    fanned = analyze_chains(chains, jobs=2)
    assert fanned == [chain_analysis(a, bs) for a, bs in chains]


def test_analyze_many_matches_serial(demo_task, loop_task, chain_task):
    beta = rate_latency(1, 2)
    tasks = [demo_task, loop_task, chain_task]
    serial = analyze_many(tasks, beta, jobs=1)
    fanned = analyze_many(tasks, beta, jobs=2)
    assert serial == fanned
    assert [s.task for s in fanned] == [t.name for t in tasks]


def test_min_service_rates_matches_serial(demo_task, loop_task):
    tasks = [demo_task, loop_task]
    serial = min_service_rates(tasks, 2, 30, jobs=1)
    fanned = min_service_rates(tasks, 2, 30, jobs=2)
    assert serial == fanned


def test_acceptance_ratio_parallel_bit_identical():
    cfg = RandomDrtConfig(
        vertices=3,
        branching=2.0,
        separation_range=(10, 40),
        deadline_factor=F(1),
    )
    beta = rate_latency(1, 0)
    tests = {"sp": _sp_accepts, "edf": _edf_accepts}
    kwargs = dict(
        beta=beta,
        utilizations=[F(3, 10), F(6, 10)],
        n_sets=3,
        n_tasks=2,
        config=cfg,
        seed=7,
    )
    assert acceptance_ratio(tests, jobs=1, **kwargs) == acceptance_ratio(
        tests, jobs=2, **kwargs
    )


def test_acceptance_ratio_unpicklable_tests_fall_back():
    cfg = RandomDrtConfig(
        vertices=3,
        branching=2.0,
        separation_range=(10, 40),
        deadline_factor=F(1),
    )
    tests = {"lambda": lambda tasks, beta: True}
    out = acceptance_ratio(
        tests,
        rate_latency(1, 0),
        utilizations=[F(3, 10)],
        n_sets=2,
        n_tasks=2,
        config=cfg,
        jobs=2,
    )
    assert out == {"lambda": [1.0]}


# ---------------------------------------------------------------------------
# Perf registry merge
# ---------------------------------------------------------------------------


class TestPerfMerge:
    def test_merge_adds_counters_and_timers(self):
        a = perf.PerfRegistry()
        a.record("x", 2)
        a._timers["phase"] = 1.5
        b = perf.PerfRegistry()
        b.record("x", 3)
        b.record("y")
        b._timers["phase"] = 0.5
        a.merge(b.snapshot())
        assert a.counters() == {"x": 5, "y": 1}
        assert a.timers() == {"phase": 2.0}

    def test_merge_empty_snapshot_is_noop(self):
        a = perf.PerfRegistry()
        a.record("x")
        a.merge({})
        assert a.counters() == {"x": 1}

    def test_report_sorted_order(self):
        r = perf.PerfRegistry()
        r.record("zeta")
        r.record("alpha")
        r._timers["late"] = 0.1
        r._timers["early"] = 0.2
        lines = r.report().splitlines()
        assert lines.index("  alpha: 1") < lines.index("  zeta: 1")
        assert lines.index("  early: 200.000 ms") < lines.index(
            "  late: 100.000 ms"
        )

    def test_snapshot_keys_sorted(self):
        r = perf.PerfRegistry()
        r.record("b")
        r.record("a")
        assert list(r.snapshot()["counters"]) == ["a", "b"]
