"""Cross-cutting property-based tests (hypothesis).

These are the library's deep invariants, checked on randomly generated
curves and tasks:

* curve algebra is consistent with pointwise sampling;
* the busy-window/frontier analysis equals brute force and is bracketed
  by simulation;
* every abstraction in the precision spectrum dominates the finer ones.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.core.delay import structural_delay
from repro.drt.utilization import utilization
from repro.errors import UnboundedBusyWindowError
from repro.minplus.builders import rate_latency
from repro.minplus.convolution import min_plus_conv
from repro.minplus.deviation import (
    horizontal_deviation,
    lower_pseudo_inverse,
    upper_pseudo_inverse,
)
from repro._numeric import is_inf

from .conftest import (
    acyclic_drt_tasks,
    monotone_curves,
    oracle_services,
    oracle_settings,
    rational_drt_tasks,
    sample_grid,
    service_curves,
    small_drt_tasks,
    structural_services,
)

GRID = sample_grid(F(30), F(1))


class TestCurveAlgebraProperties:
    @settings(max_examples=50, deadline=None)
    @given(f=monotone_curves(), g=monotone_curves())
    def test_add_commutes(self, f, g):
        assert f + g == g + f

    @settings(max_examples=50, deadline=None)
    @given(f=monotone_curves(), g=monotone_curves())
    def test_min_max_pointwise(self, f, g):
        m, M = f.minimum(g), f.maximum(g)
        for t in GRID[:20]:
            assert m.at(t) == min(f.at(t), g.at(t))
            assert M.at(t) == max(f.at(t), g.at(t))

    @settings(max_examples=50, deadline=None)
    @given(f=monotone_curves())
    def test_running_max_of_monotone_is_identity(self, f):
        assume(f.is_nondecreasing())
        assert f.running_max() == f

    @settings(max_examples=50, deadline=None)
    @given(f=monotone_curves(), g=monotone_curves())
    def test_sub_then_add_roundtrip(self, f, g):
        assert (f - g) + g == f

    @settings(max_examples=40, deadline=None)
    @given(f=monotone_curves())
    def test_pseudo_inverse_galois(self, f):
        """f(lower_inv(w)) >= w whenever the inverse is finite."""
        for w in [F(0), F(1), F(5), F(17)]:
            t = lower_pseudo_inverse(f, w)
            if not is_inf(t):
                assert f.at(t) >= w

    @settings(max_examples=40, deadline=None)
    @given(f=monotone_curves())
    def test_upper_inverse_dominates_lower(self, f):
        for w in [F(0), F(2), F(9)]:
            lo = lower_pseudo_inverse(f, w)
            hi = upper_pseudo_inverse(f, w)
            if not is_inf(hi):
                assert not is_inf(lo)
                assert lo <= hi


class TestConvolutionProperties:
    @settings(max_examples=30, deadline=None)
    @given(f=monotone_curves(), g=monotone_curves())
    def test_conv_below_both_decompositions(self, f, g):
        c = min_plus_conv(f, g)
        for t in GRID[:12]:
            assert c.at(t) <= f.at(0) + g.at(t)
            assert c.at(t) <= f.at(t) + g.at(0)

    @settings(max_examples=30, deadline=None)
    @given(f=monotone_curves(), g=monotone_curves())
    def test_conv_commutes(self, f, g):
        a, b = min_plus_conv(f, g), min_plus_conv(g, f)
        for t in GRID[:12]:
            assert a.at(t) == b.at(t)

    @settings(max_examples=20, deadline=None)
    @given(f=monotone_curves(), g=monotone_curves())
    def test_conv_vs_brute_force(self, f, g):
        c = min_plus_conv(f, g)
        for t in [F(0), F(3), F(7), F(11)]:
            brute = min(
                f.at(F(k, 4)) + g.at(t - F(k, 4)) for k in range(4 * int(t) + 1)
            )
            assert c.at(t) <= brute


class TestDelayProperties:
    @settings(max_examples=20, deadline=None)
    @given(task=small_drt_tasks(), beta=service_curves())
    def test_delay_bracketed_by_simulation(self, task, beta):
        """Random legal runs under the adversarial server never exceed the
        structural bound."""
        from repro.sim.engine import simulate
        from repro.sim.releases import random_behaviour
        from repro.sim.service import RateLatencyServer

        assume(utilization(task) < beta.tail_rate)
        try:
            res = structural_delay(task, beta)
        except UnboundedBusyWindowError:
            assume(False)
        rate = beta.tail_rate
        latency = beta.segments[-1].start
        model = RateLatencyServer(rate, latency)
        rng = random.Random(0)
        for _ in range(5):
            rels = random_behaviour(task, 80, rng, eagerness=0.9)
            sim = simulate(rels, model)
            assert sim.max_delay <= res.delay

    @settings(max_examples=20, deadline=None)
    @given(task=small_drt_tasks(), beta=service_curves())
    def test_busy_window_contains_critical_tuple(self, task, beta):
        assume(utilization(task) < beta.tail_rate)
        try:
            res = structural_delay(task, beta)
        except UnboundedBusyWindowError:
            assume(False)
        if res.critical_tuple is not None:
            assert res.critical_tuple.time <= res.busy_window

    @settings(max_examples=20, deadline=None)
    @given(task=small_drt_tasks())
    def test_delay_antitone_in_service(self, task):
        """More service never increases the delay bound."""
        slow = rate_latency(F(3, 2), 4)
        fast = rate_latency(F(2), 2)
        assume(utilization(task) < F(3, 2))
        try:
            d_slow = structural_delay(task, slow).delay
            d_fast = structural_delay(task, fast).delay
        except UnboundedBusyWindowError:
            assume(False)
        assert d_fast <= d_slow


class TestLeftoverProperties:
    @settings(max_examples=30, deadline=None)
    @given(f=monotone_curves(), beta=service_curves())
    def test_leftover_sound_shape(self, f, beta):
        from repro.core.multi import leftover_service

        left = leftover_service(beta, f)
        assert left.is_nondecreasing()
        assert left.is_nonnegative()
        for t in GRID[:12]:
            assert left.at(t) <= max(F(0), beta.at(t))


class TestDeviationOracles:
    @settings(max_examples=50, deadline=None)
    @given(f=monotone_curves(), beta=service_curves())
    def test_hdev_dominates_every_grid_deviation(self, f, beta):
        """hdev is an upper bound of the pointwise deviation everywhere."""
        from repro.minplus.deviation import (
            horizontal_deviation,
            lower_pseudo_inverse,
        )

        d = horizontal_deviation(f, beta)
        if is_inf(d):
            return
        for t in GRID[:16]:
            inv = lower_pseudo_inverse(beta, f.at(t))
            if not is_inf(inv):
                assert inv - t <= d

    @settings(max_examples=50, deadline=None)
    @given(f=monotone_curves(), beta=service_curves())
    def test_hdev_attained_at_some_candidate(self, f, beta):
        """hdev is tight: some breakpoint (value or left limit) of f
        realises it, or it is approached in the right-limit where f
        climbs through a plateau value of beta."""
        from repro.minplus.deviation import (
            horizontal_deviation,
            lower_pseudo_inverse,
            upper_pseudo_inverse,
        )

        d = horizontal_deviation(f, beta)
        if is_inf(d) or d == 0:
            return
        candidates = []
        for t in f.breakpoints():
            for v in ([f.at(t)] + ([f.left_limit(t)] if t > 0 else [])):
                inv = lower_pseudo_inverse(beta, v)
                if not is_inf(inv):
                    candidates.append(inv - t)
        # Where f increases strictly through a plateau value w of beta the
        # deviation tends to upper_pseudo_inverse(beta, w) - t from the
        # right of the crossing without being attained at any breakpoint.
        beta_values = set()
        for t in beta.breakpoints():
            beta_values.add(beta.at(t))
            if t > 0:
                beta_values.add(beta.left_limit(t))
        starts = f.breakpoints()
        for i, seg in enumerate(f.segments):
            if seg.slope <= 0:
                continue
            end = starts[i + 1] if i + 1 < len(starts) else None
            v_hi = seg.value_at(end) if end is not None else None
            for w in beta_values:
                if w < seg.value or (v_hi is not None and w >= v_hi):
                    continue
                t_w = seg.start + (w - seg.value) / seg.slope
                inv_up = upper_pseudo_inverse(beta, w)
                if not is_inf(inv_up):
                    candidates.append(inv_up - t_w)
        assert max(candidates) == d

    @settings(max_examples=50, deadline=None)
    @given(f=monotone_curves(), beta=service_curves())
    def test_vdev_dominates_grid(self, f, beta):
        from repro.minplus.deviation import vertical_deviation

        v = vertical_deviation(f, beta)
        if is_inf(v):
            return
        for t in GRID[:16]:
            assert f.at(t) - beta.at(t) <= v


def _assert_extend_then_extend_equals_scratch(task, h1, h2):
    from repro.drt.request import FrontierExplorer

    incremental = FrontierExplorer(task)
    incremental.extend_to(h1)
    incremental.extend_to(max(h1, h2))
    scratch = FrontierExplorer(task)
    tuples_inc = incremental.tuples(h2)
    tuples_scr = scratch.tuples(h2)
    assert tuples_inc == tuples_scr
    assert incremental.stats_at(h2) == scratch.stats_at(h2)
    assert incremental.rbf_curve(h2) == scratch.rbf_curve(h2)


def _assert_keys_and_staircase_equal(explorer, fresh, hz):
    """*explorer*'s tuples and staircase at *hz* equal *fresh*'s, and
    the staircase is the running maximum of the tuples.  Keys compare
    as the tuples they stand for: a fork may count in finer units."""

    def staircase(ex):
        return [(F(t, ex._S), F(w, ex._W)) for t, w in ex.staircase(hz)]

    tuples = [explorer.request_tuple(key) for key in explorer.keys(hz)]
    assert tuples == explorer.tuples(hz) == fresh.tuples(hz), hz
    steps, best = [], 0
    for tup in tuples:
        if tup.work > best:
            steps.append((tup.time, tup.work))
            best = tup.work
    if steps and steps[-1][0] == hz:
        steps.pop()
    assert staircase(explorer) == steps == staircase(fresh), hz


class TestIncrementalFrontierProperties:
    """The incremental engine must be indistinguishable from scratch runs.

    These are the exactness guarantees of the resumable
    :class:`~repro.drt.request.FrontierExplorer` and the batched
    pseudo-inverse sweep — every value is compared with exact
    ``Fraction`` equality, no tolerances.
    """

    @oracle_settings(60)
    @given(
        task=small_drt_tasks(),
        h1=st.integers(min_value=0, max_value=40),
        h2=st.integers(min_value=0, max_value=80),
    )
    def test_extend_then_extend_equals_scratch(self, task, h1, h2):
        """extend_to(h1); extend_to(h2) == one-shot exploration at h2."""
        _assert_extend_then_extend_equals_scratch(task, h1, h2)

    @oracle_settings(60)
    @given(
        task=rational_drt_tasks(),
        h1=st.fractions(min_value=0, max_value=40, max_denominator=12),
        h2=st.fractions(min_value=0, max_value=80, max_denominator=12),
    )
    def test_extend_then_extend_equals_scratch_rational(self, task, h1, h2):
        """The same with rational parameters and horizons: the scaled
        horizon comparison ``t > floor(h * S)`` is exact."""
        _assert_extend_then_extend_equals_scratch(task, h1, h2)

    @oracle_settings(40)
    @given(
        task=small_drt_tasks(),
        horizons=st.lists(
            st.integers(min_value=0, max_value=60), min_size=1, max_size=5
        ),
    )
    def test_any_extension_schedule_equals_scratch(self, task, horizons):
        """Any growth schedule yields the scratch frontier at every step."""
        from repro.drt.request import FrontierExplorer

        incremental = FrontierExplorer(task)
        for hz in horizons:
            tuples_inc = incremental.tuples(hz)
            fresh = FrontierExplorer(task)
            assert tuples_inc == fresh.tuples(hz), hz

    @oracle_settings(40)
    @given(task=small_drt_tasks(), beta=service_curves())
    def test_reused_analyses_equal_scratch(self, task, beta):
        """Every cached analysis of a task whose shared explorer an
        earlier analysis extended past ``L`` equals the same analysis of
        a fresh copy with every process memo cleared."""
        from repro.core.backlog import structural_backlog
        from repro.core.delay import structural_delay, structural_delays_per_job
        from repro.drt.model import DRTTask
        from repro.errors import UnboundedBusyWindowError
        from repro.parallel import reset_process_caches

        try:
            warm = structural_delay(task, beta.hshift(10))
        except UnboundedBusyWindowError:
            assume(False)
        cached = structural_delay(task, beta)
        assert warm.busy_window >= cached.busy_window
        reset_process_caches()
        fresh = DRTTask(task.name, list(task.jobs.values()), list(task.edges))
        scratch = structural_delay(fresh, beta)
        assert cached.delay == scratch.delay
        assert cached.busy_window == scratch.busy_window
        assert cached.horizon == scratch.horizon
        assert cached.critical_tuple == scratch.critical_tuple
        assert cached.stats == scratch.stats
        assert structural_delays_per_job(
            task, beta
        ) == structural_delays_per_job(fresh, beta)
        cached_b = structural_backlog(task, beta)
        scratch_b = structural_backlog(fresh, beta)
        assert cached_b.backlog == scratch_b.backlog
        assert cached_b.critical_tuple == scratch_b.critical_tuple

    @oracle_settings(40)
    @given(
        task=st.one_of(small_drt_tasks(), rational_drt_tasks()),
        prune=st.booleans(),
        horizons=st.lists(
            st.fractions(min_value=0, max_value=40, max_denominator=6),
            min_size=1,
            max_size=6,
        ),
    )
    def test_keys_and_staircase_after_any_schedule_equal_scratch(
        self, task, prune, horizons
    ):
        """The sorted keys and the staircase grow across queries, yet at
        every horizon of any schedule equal a fresh explorer's."""
        from repro.drt.request import FrontierExplorer

        explorer = FrontierExplorer(task, prune=prune)
        for hz in horizons:
            _assert_keys_and_staircase_equal(
                explorer, FrontierExplorer(task, prune=prune), hz
            )

    @oracle_settings(40)
    @given(
        task=st.one_of(rational_drt_tasks(), acyclic_drt_tasks()),
        carried=st.fractions(min_value=0, max_value=30, max_denominator=6),
        horizons=st.lists(
            st.fractions(min_value=0, max_value=45, max_denominator=6),
            min_size=1,
            max_size=6,
        ),
        data=st.data(),
    )
    def test_forked_keys_and_staircase_equal_scratch(
        self, task, carried, horizons, data
    ):
        """A fork carries its source's sorted keys up to *carried*; below
        it the schedule merges them in, above it sorts every frontier,
        and both equal a fresh explorer of the edited task.  The first
        query stops halfway to *carried*, so a later one below it
        extends a merged prefix.  Acyclic tasks keep the vertices before
        the edit out of its cone (in a strongly connected one the cone
        is every vertex), so their keys are carried."""
        from repro.drt.digest import structural_diff
        from repro.drt.request import FrontierExplorer
        from repro.whatif import SetSeparation, SetWcet, apply_edit

        if task.edges and data.draw(st.booleans(), label="edit a separation"):
            src, dst = data.draw(
                st.sampled_from([(e.src, e.dst) for e in task.edges])
            )
            sep = data.draw(st.fractions(min_value=4, max_value=20, max_denominator=5))
            edit = SetSeparation(src, dst, sep)
        else:
            job = data.draw(st.sampled_from(task.job_names))
            wcet = data.draw(st.fractions(min_value=1, max_value=4, max_denominator=5))
            edit = SetWcet(job, wcet)
        new_task, _ = apply_edit(task, rate_latency(1, 1), edit)
        source = FrontierExplorer(task)
        source.keys(carried)
        forked = source.fork(new_task, structural_diff(task, new_task))
        for hz in [carried / 2, *horizons]:
            event("below the carried horizon" if hz <= carried else "past it")
            _assert_keys_and_staircase_equal(
                forked, FrontierExplorer(new_task), hz
            )


class TestBatchedPseudoInverseProperties:
    @settings(max_examples=80, deadline=None)
    @given(
        f=monotone_curves(),
        works=st.lists(
            st.fractions(min_value=F(0), max_value=F(80), max_denominator=8),
            max_size=12,
        ),
    )
    def test_batch_equals_scalar_on_curves(self, f, works):
        from repro.minplus.deviation import (
            lower_pseudo_inverse,
            lower_pseudo_inverse_batch,
        )

        batch = lower_pseudo_inverse_batch(f, works)
        for w, got in zip(works, batch):
            expected = lower_pseudo_inverse(f, w)
            if is_inf(expected):
                assert is_inf(got), w
            else:
                assert got == expected, w

    @settings(max_examples=60, deadline=None)
    @given(
        beta=service_curves(),
        works=st.lists(
            st.fractions(min_value=F(0), max_value=F(200), max_denominator=4),
            max_size=16,
        ),
    )
    def test_batch_equals_scalar_on_service(self, beta, works):
        from repro.minplus.deviation import (
            lower_pseudo_inverse,
            lower_pseudo_inverse_batch,
        )

        batch = lower_pseudo_inverse_batch(beta, works)
        for w, got in zip(works, batch):
            expected = lower_pseudo_inverse(beta, w)
            if is_inf(expected):
                assert is_inf(got), w
            else:
                assert got == expected, w


def _scaled_task(task):
    """*task* when both its time and work scales exceed 1."""
    S, W = task.scales()
    assume(S > 1 and W > 1)
    return task


def _bounded_busy_window(task, beta):
    from repro.core.busy_window import busy_window_bound

    assume(utilization(task) < beta.tail_rate)
    try:
        return busy_window_bound(task, beta)
    except UnboundedBusyWindowError:
        assume(False)


def _outcome(fn, *args):
    """``fn(*args)``, or ``("raised", type, message)`` of its error."""
    from repro.errors import ReproError

    try:
        return fn(*args)
    except ReproError as exc:
        return "raised", type(exc), str(exc)


def _raised(outcome) -> bool:
    return isinstance(outcome, tuple) and outcome[0] == "raised"


def _simple_cycles(task):
    """Every simple cycle of *task*'s graph (networkx), in edge order."""
    import networkx as nx

    graph = nx.DiGraph((e.src, e.dst) for e in task.edges)
    return list(nx.simple_cycles(graph))


def _cycle_ratio_of(task, cycle):
    """Work over separation of a vertex *cycle* (closing edge implied)."""
    sep = {(e.src, e.dst): e.separation for e in task.edges}
    work = sum(task.wcet(v) for v in cycle)
    return work / sum(sep[u, v] for u, v in zip(cycle, cycle[1:] + cycle[:1]))


def _oracle_delay(beta, tuples):
    """The ``Fraction`` reduction: critical tuple, bound and per-vertex
    bounds from scalar pseudo-inverses, in tuple order."""
    from repro.errors import AnalysisError

    best, critical, per_vertex = F(0), None, {}
    for tup in tuples:
        inv = lower_pseudo_inverse(beta, tup.work)
        if is_inf(inv):
            raise AnalysisError(
                f"service curve never provides {tup.work} units of work"
            )
        d = inv - tup.time
        if d > best:
            best, critical = d, tup
        if d > per_vertex.get(tup.vertex, F(0)):
            per_vertex[tup.vertex] = d
    return best, critical, per_vertex


def _oracle_backlog(beta, tuples):
    best, critical = F(0), None
    for tup in tuples:
        b = tup.work - beta.at(tup.time)
        if b > best:
            best, critical = b, tup
    return best, critical


class TestIntReductionProperties:
    """The integer reductions equal the ``Fraction`` curve code they
    replaced, which stays in the library for general curves: every value,
    critical tuple and error message compares exactly.  Tasks have time
    and work scales above 1; services are rate-latency, bursty and
    TDMA-like (:func:`~tests.conftest.oracle_services`), and the busy
    window also meets the resource models of :mod:`repro.curves.service`
    (:func:`~tests.conftest.structural_services`)."""

    @oracle_settings()
    @given(
        task=rational_drt_tasks(),
        beta=oracle_services(),
        horizon=st.fractions(min_value=0, max_value=120, max_denominator=12),
    )
    def test_last_positive_equals_curve_oracle(self, task, beta, horizon):
        from repro.core import busy_window as bw_mod
        from repro.drt.request import frontier_explorer, rbf_curve

        task = _scaled_task(task)
        rho = utilization(task)
        assume(rho < beta.tail_rate)
        expected = _outcome(
            bw_mod.last_positive_time, rbf_curve(task, horizon) - beta
        )
        tail = _outcome(bw_mod._tail_last_positive, task, beta, rho)
        if _raised(tail):
            assert _raised(expected) and tail[1] is expected[1]
            return
        tail_decides = tail is not None and tail > horizon
        event("tail decides" if tail_decides else "steps decide")
        ex = frontier_explorer(task)
        got = bw_mod._last_positive(ex, ex.lowered(beta), tail, horizon)
        assert got == expected

    @oracle_settings()
    @given(
        task=st.one_of(rational_drt_tasks(), acyclic_drt_tasks()),
        beta=st.one_of(oracle_services(), structural_services()),
    )
    def test_busy_window_equals_curve_iteration(self, task, beta):
        """Cyclic and acyclic tasks, on services with plateaus too: the
        busy window explores only as far as its tail certificate needs,
        yet closes as the whole curve's iteration does."""
        from repro.core import busy_window as bw_mod
        from repro.drt.request import frontier_explorer, rbf_curve

        task = _scaled_task(task)
        bw = _bounded_busy_window(task, beta)
        explored = frontier_explorer(task).explored_horizon
        if explored is not None and explored < bw.horizon:
            event("explored below the closing horizon")
        horizon = bw_mod._initial_estimate(task, beta, utilization(task))
        for iteration in range(1, 41):
            last = bw_mod.last_positive_time(rbf_curve(task, horizon) - beta)
            if last is None or last < horizon:
                break
            horizon *= 2
        event(f"{iteration} horizon(s)")
        expected = (F(0) if last is None else last, horizon, iteration)
        assert (bw.length, bw.horizon, bw.iterations) == expected

    @oracle_settings()
    @given(
        task=rational_drt_tasks(),
        beta=oracle_services(),
        cap=st.fractions(min_value=1, max_value=60, max_denominator=6),
    )
    def test_tuple_reductions_equal_scalar_oracle(self, task, beta, cap):
        """Delay, per-job and backlog on the service itself and on the
        service flattened at *cap* (a flat tail: works beyond *cap* are
        never served, and both sides raise the same error)."""
        from repro.core.backlog import critical_backlog
        from repro.core.delay import critical_delay, per_job_delays
        from repro.drt.request import frontier_explorer, request_frontier
        from repro.minplus.builders import constant

        task = _scaled_task(task)
        bw = _bounded_busy_window(task, beta)
        ex = frontier_explorer(task)
        keys = ex.keys(bw.length)
        tuples = request_frontier(task, bw.length)
        stats = ex.stats_at(bw.length)
        for service in (beta, beta.minimum(constant(cap))):
            expected = _outcome(_oracle_delay, service, tuples)
            got = _outcome(critical_delay, ex, bw, keys, service, stats)
            if _raised(expected):
                event("service never provides some work")
                assert got == expected
                assert _outcome(per_job_delays, ex, keys, service) == expected
            else:
                best, critical, per_vertex = expected
                assert (got.delay, got.critical_tuple) == (best, critical)
                assert got.tuple_count == len(tuples)
                per_job = per_job_delays(ex, keys, service)
                assert per_job == {
                    v: per_vertex.get(v, F(0)) for v in task.job_names
                }
            got_b = critical_backlog(ex, bw, keys, service)
            assert (got_b.backlog, got_b.critical_tuple) == _oracle_backlog(
                service, tuples
            )

    @oracle_settings()
    @given(
        task=st.one_of(small_drt_tasks(), rational_drt_tasks(), acyclic_drt_tasks()),
        beta=st.one_of(service_curves(), oracle_services(), structural_services()),
    )
    def test_tail_crossing_equals_curve_oracle(self, task, beta):
        """The request line's last positive time against ``beta``, solved
        on ``beta``'s segments, is the difference curve's, and both raise
        on a tail that never catches up."""
        from repro.core import busy_window as bw_mod
        from repro.drt.utilization import linear_request_bound
        from repro.minplus.builders import affine

        rho = utilization(task)
        expected = _outcome(
            bw_mod.last_positive_time, affine(*linear_request_bound(task)) - beta
        )
        got = _outcome(bw_mod._tail_last_positive, task, beta, rho)
        if _raised(expected):
            event("unbounded")
            assert _raised(got) and got[1] is expected[1]
            assert "never catches up" in got[2]
        else:
            event("never positive" if expected is None else "crosses")
            assert got == expected

    @oracle_settings()
    @given(task=st.one_of(small_drt_tasks(), rational_drt_tasks()))
    def test_max_cycle_ratio_is_max_over_simple_cycles(self, task):
        """Lawler's ratio, and the ratio of the cycle it reports, is the
        maximum over every simple cycle of the graph."""
        from repro.drt.utilization import critical_cycle, max_cycle_ratio

        ratios = {
            tuple(cycle): _cycle_ratio_of(task, cycle)
            for cycle in _simple_cycles(task)
        }
        assert max_cycle_ratio(task) == max(ratios.values())
        assert _cycle_ratio_of(task, critical_cycle(task)) == max(ratios.values())

    @oracle_settings()
    @given(
        task=st.one_of(small_drt_tasks(), rational_drt_tasks(), acyclic_drt_tasks()),
        lam=st.fractions(min_value=0, max_value=F(1, 2), max_denominator=12),
    )
    def test_positive_cycle_is_positive_under_lambda(self, task, lam):
        """The early-exit search returns a graph cycle of positive
        reduced weight under *lam*, and None only when no simple cycle
        has a ratio above *lam*."""
        from repro.drt.request import int_task
        from repro.drt.utilization import _positive_cycle

        cycle = _positive_cycle(int_task(task), lam)
        if cycle is None:
            event("none")
            assert all(
                _cycle_ratio_of(task, c) <= lam for c in _simple_cycles(task)
            )
            return
        event(f"cycle of {len(cycle)}")
        sep = {(e.src, e.dst): e.separation for e in task.edges}
        closing = list(zip(cycle, cycle[1:] + cycle[:1]))
        assert all(edge in sep for edge in closing)
        assert sum(task.wcet(u) - lam * sep[u, v] for u, v in closing) > 0

    @oracle_settings()
    @given(task=rational_drt_tasks(), beta=oracle_services())
    def test_rtc_bounds_equal_curve_deviations(self, task, beta):
        from repro.core.baselines import rtc_backlog, rtc_delay
        from repro.minplus.deviation import vertical_deviation

        task = _scaled_task(task)
        bw = _bounded_busy_window(task, beta)
        event("L == 0" if bw.length == 0 else "L > 0")
        assert rtc_delay(task, beta) == horizontal_deviation(bw.rbf, beta)
        assert rtc_backlog(task, beta) == vertical_deviation(bw.rbf, beta)
