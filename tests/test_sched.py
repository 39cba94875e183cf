"""Tests for the schedulability layer (EDF, SP, acceptance sweeps)."""

import random
from fractions import Fraction as F

import pytest

from repro.drt.model import DRTTask
from repro.errors import UnboundedBusyWindowError
from repro.minplus.builders import rate_latency
from repro.sched.acceptance import acceptance_ratio
from repro.sched.edf import EdfResult, edf_schedulable
from repro.sched.sp import sp_schedulable
from repro.sim.engine import simulate
from repro.sim.releases import Release
from repro.sim.service import ConstantRate
from repro.workloads.random_drt import RandomDrtConfig


@pytest.fixture
def light_task() -> DRTTask:
    return DRTTask.build("light", jobs={"x": (1, 10)}, edges=[("x", "x", 10)])


@pytest.fixture
def tight_task() -> DRTTask:
    # deadline equals wcet: schedulable only on a fast dedicated resource
    return DRTTask.build("tight", jobs={"y": (2, 2)}, edges=[("y", "y", 4)])


class TestEdf:
    def test_light_load_schedulable(self, light_task):
        r = edf_schedulable([light_task], rate_latency(1, 0))
        assert r.schedulable
        assert r.violation_window is None

    def test_unschedulable_reports_witness(self, demo_task):
        beta = rate_latency(F(1, 4), 8)
        r = edf_schedulable([demo_task], beta)
        assert not r.schedulable
        assert r.violation_window is not None
        # the witness really violates: sum dbf > beta there
        from repro.drt.demand import dbf_value

        w = r.violation_window
        assert dbf_value(demo_task, w) > beta.at(w)

    def test_overload_raises(self, demo_task, loop_task):
        with pytest.raises(UnboundedBusyWindowError):
            edf_schedulable([demo_task, loop_task], rate_latency(F(1, 4), 0))

    def test_two_light_tasks(self, light_task):
        other = DRTTask.build("l2", jobs={"z": (1, 8)}, edges=[("z", "z", 8)])
        r = edf_schedulable([light_task, other], rate_latency(1, 0))
        assert r.schedulable

    def test_latency_can_break_schedulability(self, tight_task):
        ok = edf_schedulable([tight_task], rate_latency(1, 0))
        bad = edf_schedulable([tight_task], rate_latency(1, 1))
        assert ok.schedulable
        assert not bad.schedulable

    def test_empty_set_schedulable(self):
        r = edf_schedulable([], rate_latency(1, 0))
        assert r == EdfResult(True, None, F(64))

    def test_job_after_a_long_deadline_counts(self):
        """Arbitrary deadlines: ``b``'s long deadline must not hide the
        short-deadline ``c`` released after it.  On a rate-1/2 server EDF
        finishes ``c`` at 4, after its deadline 7/2."""
        task = DRTTask.build(
            "hidden",
            jobs={"a": (1, 2), "b": (1, 100), "c": (1, 2)},
            edges=[("a", "b", 1), ("b", "c", F(1, 2)), ("c", "a", 200)],
        )
        rels = [
            Release(t, task.wcet(v), v, task.name, deadline=t + task.deadline(v))
            for v, t in [("a", F(0)), ("b", F(1)), ("c", F(3, 2))]
        ]
        sim = simulate(rels, ConstantRate(F(1, 2)), policy="edf")
        finish = {job.release.job: job.finish for job in sim.jobs}
        assert finish["c"] == 4 > rels[2].deadline
        assert not edf_schedulable([task], rate_latency(F(1, 2), 0)).schedulable


class TestSp:
    def test_single_task(self, light_task):
        r = sp_schedulable([light_task], rate_latency(1, 0))
        assert r.schedulable
        assert r.job_delays["light"]["x"] == 1

    def test_interference_delays_lower_priority(self, light_task):
        lo = DRTTask.build("lo", jobs={"w": (1, 3)}, edges=[("w", "w", 20)])
        alone = sp_schedulable([lo], rate_latency(1, 0))
        shared = sp_schedulable([light_task, lo], rate_latency(1, 0))
        assert shared.job_delays["lo"]["w"] >= alone.job_delays["lo"]["w"]

    def test_failures_reported_per_job(self, demo_task):
        r = sp_schedulable([demo_task], rate_latency(F(1, 2), 4))
        assert not r.schedulable
        assert r.failures
        for task_name, job, delay, deadline in r.failures:
            assert delay > deadline

    def test_saturated_task_reported(self, demo_task, loop_task):
        r = sp_schedulable([demo_task, loop_task], rate_latency(F(1, 4), 0))
        assert not r.schedulable
        assert "loop" in r.saturated
        # the high-priority task is still analysed
        assert "demo" in r.job_delays

    def test_schedulable_set(self):
        hi = DRTTask.build("hi", jobs={"a": (1, 6)}, edges=[("a", "a", 10)])
        lo = DRTTask.build("lo", jobs={"b": (1, 15)}, edges=[("b", "b", 10)])
        r = sp_schedulable([hi, lo], rate_latency(1, 0))
        assert r.schedulable, (r.job_delays, r.failures)


class TestAcceptanceRatio:
    def test_sweep_shapes_and_monotonicity(self):
        cfg = RandomDrtConfig(
            vertices=4,
            branching=1.5,
            separation_range=(10, 40),
            deadline_factor=F(1),
        )

        def edf_test(tasks, beta):
            return edf_schedulable(tasks, beta).schedulable

        def sp_test(tasks, beta):
            return sp_schedulable(tasks, beta).schedulable

        beta = rate_latency(1, 0)
        out = acceptance_ratio(
            {"edf": edf_test, "sp": sp_test},
            beta,
            utilizations=[F(2, 10), F(8, 10)],
            n_sets=6,
            n_tasks=2,
            config=cfg,
            seed=7,
        )
        assert set(out) == {"edf", "sp"}
        for ratios in out.values():
            assert len(ratios) == 2
            assert all(0 <= r <= 1 for r in ratios)
        # EDF (optimal-ish) accepts at least as much as SP at high load
        assert out["edf"][1] >= out["sp"][1] - 1e-9
