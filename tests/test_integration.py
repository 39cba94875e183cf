"""End-to-end integration tests across subsystems.

Each test exercises the full pipeline the paper's evaluation relies on:
model -> analysis -> witness -> simulation, with the ordering
``simulated <= structural == rtc <= hull <= token-bucket (<= sporadic)``
checked on concrete scenarios.
"""

import random
from fractions import Fraction as F

import pytest

from repro.core.baselines import (
    concave_hull_delay,
    rtc_delay,
    sporadic_delay,
    token_bucket_delay,
)
from repro.core.delay import critical_path_of, structural_delay
from repro.curves.service import tdma_service
from repro.errors import UnboundedBusyWindowError
from repro.minplus.builders import rate_latency
from repro.sim.engine import simulate
from repro.sim.releases import behaviour_from_path, random_behaviour
from repro.sim.service import RateLatencyServer, TdmaServer
from repro.workloads.case_studies import CASE_STUDIES


@pytest.mark.parametrize("name", list(CASE_STUDIES))
class TestCaseStudyPipeline:
    def test_bound_ordering(self, name):
        cs = CASE_STUDIES[name]()
        s = structural_delay(cs.task, cs.service).delay
        assert s == rtc_delay(cs.task, cs.service)
        assert s <= concave_hull_delay(cs.task, cs.service)
        assert concave_hull_delay(cs.task, cs.service) <= token_bucket_delay(
            cs.task, cs.service
        )

    def test_witness_reaches_bound_under_adversary(self, name):
        cs = CASE_STUDIES[name]()
        res = structural_delay(cs.task, cs.service)
        path = critical_path_of(cs.task, res)
        assert path is not None
        observed = max(
            simulate(behaviour_from_path(cs.task, path), model).max_delay
            for model in cs.adversary_models()
        )
        # The worst compliant process realises the bound exactly.
        assert observed == res.delay

    def test_random_runs_below_bound(self, name):
        cs = CASE_STUDIES[name]()
        res = structural_delay(cs.task, cs.service)
        model = cs.make_adversary()
        rng = random.Random(hash(name) & 0xFFFF)
        for _ in range(20):
            rels = random_behaviour(cs.task, 300, rng, eagerness=0.9)
            sim = simulate(rels, model)
            assert sim.max_delay <= res.delay


class TestTdmaPipeline:
    def test_full_bracket(self, demo_task):
        beta = tdma_service(1, 2, 5, 80)
        res = structural_delay(demo_task, beta)
        # simulated lower bound: worst offset over a few phases
        path = critical_path_of(demo_task, res)
        best = F(0)
        for offset in range(5):
            sim = simulate(
                behaviour_from_path(demo_task, path),
                TdmaServer(1, 2, 5, offset=offset),
            )
            best = max(best, sim.max_delay)
        assert best <= res.delay
        # the adversarial phase gets close (within one frame)
        assert best >= res.delay - 5

    def test_abstraction_gap_exists(self, demo_task):
        """TDMA service separates the abstractions (non-affine inverse)."""
        beta = tdma_service(1, 2, 6, 80)
        s = structural_delay(demo_task, beta).delay
        t = token_bucket_delay(demo_task, beta)
        assert t > s


class TestMultiTaskPipeline:
    def test_sp_bounds_hold_in_simulation(self, demo_task, loop_task):
        """Static-priority delay bounds dominate a FIFO simulation of the
        merged workload (FIFO is one legal SP-compliant order here since
        all bounds use release-ordered service of the aggregate)."""
        from repro.core.multi import sp_structural_delays

        beta_rate = F(1)
        rs = sp_structural_delays([demo_task, loop_task], rate_latency(1, 0))
        rng = random.Random(11)
        from repro.sim.engine import observed_delay_of_task
        from repro.sim.service import ConstantRate

        for _ in range(10):
            rels = random_behaviour(demo_task, 120, rng) + random_behaviour(
                loop_task, 120, rng
            )
            sim = simulate(rels, ConstantRate(1))
            # every demo job violates neither its own bound nor lo's
            assert observed_delay_of_task(sim, "demo") <= max(
                rs["demo"].delay, rs["loop"].delay
            )

    def test_edf_schedulable_set_meets_deadlines_in_sim(self):
        """An EDF-schedulable verdict implies no deadline miss in any
        simulated FIFO run at lower load (sufficient sanity check)."""
        from repro.drt.model import DRTTask
        from repro.sched.edf import edf_schedulable
        from repro.sim.service import ConstantRate

        t1 = DRTTask.build("t1", jobs={"a": (1, 10)}, edges=[("a", "a", 10)])
        t2 = DRTTask.build("t2", jobs={"b": (2, 20)}, edges=[("b", "b", 20)])
        verdict = edf_schedulable([t1, t2], rate_latency(1, 0))
        assert verdict.schedulable
        rng = random.Random(5)
        for _ in range(10):
            rels = random_behaviour(t1, 200, rng) + random_behaviour(
                t2, 200, rng
            )
            sim = simulate(rels, ConstantRate(1))
            for job in sim.jobs:
                deadline = {"a": 10, "b": 20}[job.release.job]
                assert job.delay <= deadline


class TestSerializationPipeline:
    def test_roundtrip_preserves_analysis(self, demo_task, tmp_path):
        from repro.io.json_io import load_task, save_task

        beta = rate_latency(F(1, 2), 4)
        before = structural_delay(demo_task, beta).delay
        p = tmp_path / "t.json"
        save_task(demo_task, p)
        after = structural_delay(load_task(p), beta).delay
        assert before == after


# ---------------------------------------------------------------------------
# NumPy loads on demand
# ---------------------------------------------------------------------------

_NUMPY_ON_DEMAND = """
import sys
from repro import StructuralAnalysis
from repro.minplus import backend, horizontal_deviation
from repro.drt.request import rbf_curve
from repro.workloads.case_studies import CASE_STUDIES

cases = [make() for make in CASE_STUDIES.values()]
for cs in cases:
    analysis = StructuralAnalysis(cs.task, cs.service)
    analysis.delay()
    analysis.backlog()
print("after-analysis", "numpy" in sys.modules)
if backend.HAVE_NUMPY:
    for cs in cases:
        rbf = rbf_curve(cs.task, 60)
        with backend._force("exact"):
            exact = horizontal_deviation(rbf, cs.service)
        with backend._force("hybrid"):
            hybrid = horizontal_deviation(rbf, cs.service)
        assert hybrid == exact, (cs.name, hybrid, exact)
    print("after-hybrid", "numpy" in sys.modules)
"""


def test_numpy_is_loaded_only_by_a_hybrid_operation():
    """``import repro`` and the structural analyses of E1 leave NumPy
    unloaded; the first hybrid operation loads it and matches exact."""
    import os
    import subprocess
    import sys

    from repro.minplus import backend

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_ON_DEMAND],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout.split("\n")
    assert "after-analysis False" in out
    if backend.HAVE_NUMPY:
        assert "after-hybrid True" in out
