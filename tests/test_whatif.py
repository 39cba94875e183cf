"""Tests for the incremental what-if engine.

Covers the structural digest/diff layer, the mutation guard over shared
memos, explorer forking (bit-identical frontiers), the edit vocabulary
and its wire forms, the warm-session-equals-from-scratch hypothesis
property (delay, per-job, backlog, EDF — exact Fraction equality, also
under injected cache corruption), and the CLI / service surfaces.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.context import AnalysisContext
from repro.core.facade import StructuralAnalysis
from repro.curves.service import rate_latency_service
from repro.drt.digest import (
    backward_cone_digest,
    composed_task_digest,
    edge_digest,
    guard_cache,
    structural_diff,
    vertex_digest,
)
from repro.drt.model import DRTTask, Edge, Job
from repro.drt.request import frontier_explorer
from repro.errors import ModelError, ReproError, SerializationError
from repro.io.json_io import save_task
from repro.parallel import cache as result_cache
from repro.parallel.cache import task_digest
from repro.resilience import chaos
from repro.sched.edf_delay import edf_structural_delays
from repro.whatif import (
    AddEdge,
    RemoveEdge,
    ScaleWcet,
    SetDeadline,
    SetSeparation,
    SetWcet,
    TightenBeta,
    WhatIfSession,
    apply_edit,
    edit_from_dict,
    edit_to_dict,
    whatif_sweep,
)

from tests.conftest import rational_drt_tasks, service_curves, small_drt_tasks


@pytest.fixture(autouse=True, scope="module")
def _no_ambient_chaos():
    """Strict bit-identity assertions are not ambient-chaos invariants.

    The chaos contract for this module is asserted explicitly in
    :class:`TestChaosInvariance` with deterministic *scoped* injection.
    """
    saved = chaos.current_config()
    chaos.apply_config(None)
    yield
    chaos.apply_config(saved)


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Run each test against a known (disabled) result cache."""
    saved = result_cache.current_config()
    result_cache.configure(None)
    yield
    result_cache.apply_config(saved)


def _beta():
    return rate_latency_service(F(1, 2), F(2))


def _core_chain(sep=F(10)) -> DRTTask:
    """A recurrent 2-cycle core feeding a 2-vertex chain.

    Retiming the chain edge ``c -> d`` touches only ``d``: the affected
    cone is ``{'d'}`` and ``a``/``b``/``c`` carry over — the shape the
    fork fast path exists for.
    """
    return DRTTask.build(
        "corechain",
        jobs={"a": (1, 5), "b": (2, 8), "c": (1, 6), "d": (2, 9)},
        edges=[("a", "b", 6), ("b", "a", 7), ("b", "c", 9), ("c", "d", sep)],
    )


def _fresh(task: DRTTask) -> DRTTask:
    """The same definition as a new object (empty analysis cache)."""
    return DRTTask(task.name, task.jobs.values(), task.edges)


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------


class TestDigests:
    def test_vertex_and_edge_digests_are_content_functions(self):
        assert vertex_digest(Job("a", F(1), F(5))) == vertex_digest(
            Job("a", F(1), F(5))
        )
        assert vertex_digest(Job("a", F(1), F(5))) != vertex_digest(
            Job("a", F(2), F(5))
        )
        assert edge_digest(Edge("a", "b", F(3))) == edge_digest(
            Edge("a", "b", F(3))
        )
        assert edge_digest(Edge("a", "b", F(3))) != edge_digest(
            Edge("a", "b", F(4))
        )
        assert edge_digest(Edge("a", "b", F(3))) != edge_digest(
            Edge("b", "a", F(3))
        )

    def test_composed_digest_matches_cache_entry_point(self, demo_task):
        assert task_digest(demo_task) == composed_task_digest(demo_task)

    def test_composed_digest_sees_single_element_change(self, demo_task):
        edited, _ = apply_edit(demo_task, _beta(), SetWcet("b", F(4)))
        assert composed_task_digest(edited) != composed_task_digest(demo_task)

    def test_composed_digest_is_order_sensitive(self):
        jobs = [Job("a", F(1), F(5)), Job("b", F(2), F(8))]
        edges = [Edge("a", "b", F(4)), Edge("b", "a", F(6))]
        t1 = DRTTask("t", jobs, edges)
        t2 = DRTTask("t", list(reversed(jobs)), edges)
        assert composed_task_digest(t1) != composed_task_digest(t2)

    def test_backward_cone_digest_ignores_forward_edits(self):
        base = _core_chain(F(10))
        edited, _ = apply_edit(base, _beta(), SetSeparation("c", "d", F(20)))
        # a/b/c cannot reach themselves through c->d, so their keys
        # survive the retiming; d's key must move.
        for v in ("a", "b", "c"):
            assert backward_cone_digest(base, v) == backward_cone_digest(
                edited, v
            )
        assert backward_cone_digest(base, "d") != backward_cone_digest(
            edited, "d"
        )

    def test_backward_cone_digest_is_definition_order_independent(self):
        base = _core_chain()
        shuffled = DRTTask(
            base.name,
            list(reversed(list(base.jobs.values()))),
            list(reversed(base.edges)),
        )
        for v in base.job_names:
            assert backward_cone_digest(base, v) == backward_cone_digest(
                shuffled, v
            )


# ---------------------------------------------------------------------------
# Structural diff
# ---------------------------------------------------------------------------


class TestStructuralDiff:
    def test_identity_diff_is_empty(self, demo_task):
        diff = structural_diff(demo_task, _fresh(demo_task))
        assert not diff.touched
        assert diff.affected_cone == frozenset()
        assert diff.carried_vertices == frozenset(demo_task.job_names)

    def test_chain_edge_retiming_has_singleton_cone(self):
        old = _core_chain(F(10))
        new, _ = apply_edit(old, _beta(), SetSeparation("c", "d", F(14)))
        diff = structural_diff(old, new)
        assert diff.changed_edges == frozenset({("c", "d")})
        assert diff.affected_cone == frozenset({"d"})
        assert diff.carried_vertices == frozenset({"a", "b", "c"})

    def test_core_vertex_change_floods_the_cycle(self):
        old = _core_chain()
        new, _ = apply_edit(old, _beta(), SetWcet("a", F(3)))
        diff = structural_diff(old, new)
        assert diff.changed_vertices == frozenset({"a"})
        # a is on the recurrent core: everything downstream re-expands.
        assert diff.affected_cone == frozenset({"a", "b", "c", "d"})
        assert diff.carried_vertices == frozenset()

    def test_deadline_only_change_is_still_a_vertex_change(self):
        old = _core_chain()
        new, _ = apply_edit(old, _beta(), SetDeadline("d", F(15)))
        diff = structural_diff(old, new)
        assert diff.changed_vertices == frozenset({"d"})
        assert diff.affected_cone == frozenset({"d"})

    def test_removed_edge_seeds_its_destination(self):
        old = _core_chain()
        new, _ = apply_edit(old, _beta(), RemoveEdge("c", "d"))
        diff = structural_diff(old, new)
        assert diff.removed_edges == frozenset({("c", "d")})
        assert diff.affected_cone == frozenset({"d"})

    def test_to_dict_round_trips_through_json(self):
        old = _core_chain()
        new, _ = apply_edit(old, _beta(), AddEdge("a", "c", F(12)))
        doc = json.loads(json.dumps(structural_diff(old, new).to_dict()))
        assert doc["added_edges"] == [["a", "c"]]
        assert doc["affected_cone"] == ["c", "d"]


# ---------------------------------------------------------------------------
# Mutation guard (regression: shared memos vs in-place edits)
# ---------------------------------------------------------------------------


class TestMutationGuard:
    def test_task_digest_recovers_after_in_place_mutation(self, demo_task):
        before = task_digest(demo_task)
        demo_task._jobs["a"] = Job("a", F(5), F(8))
        after = task_digest(demo_task)
        assert after != before
        assert after == composed_task_digest(demo_task)

    def test_frontier_explorer_is_rebuilt_after_mutation(self, demo_task):
        ex = frontier_explorer(demo_task)
        ex.extend_to(F(30))
        demo_task._jobs["a"] = Job("a", F(5), F(8))
        ex2 = frontier_explorer(demo_task)
        assert ex2 is not ex
        reference = frontier_explorer(_fresh(demo_task))
        reference.extend_to(F(30))
        ex2.extend_to(F(30))
        assert ex2.tuples(F(30)) == reference.tuples(F(30))

    def test_guard_preserves_cache_when_untouched(self, demo_task):
        cache = guard_cache(demo_task)
        cache["sentinel"] = object()
        assert "sentinel" in guard_cache(demo_task)

    def test_stale_bounds_regression(self, demo_task):
        beta = _beta()
        StructuralAnalysis(demo_task, beta).delay()
        demo_task._jobs["b"] = Job("b", F(4), F(8))
        mutated = StructuralAnalysis(demo_task, beta).delay()
        expected = StructuralAnalysis(_fresh(demo_task), beta).delay()
        assert mutated == expected


# ---------------------------------------------------------------------------
# Explorer forking
# ---------------------------------------------------------------------------


class TestFork:
    def _warm(self, task, horizon=F(60)):
        ex = frontier_explorer(task)
        ex.extend_to(horizon)
        return ex

    def test_fork_is_bit_identical_to_from_scratch(self):
        base = _core_chain(F(10))
        ex = self._warm(base)
        new, _ = apply_edit(base, _beta(), SetSeparation("c", "d", F(14)))
        diff = structural_diff(base, new)
        forked = ex.fork(new, diff)
        reference = frontier_explorer(_fresh(new))
        for horizon in (F(30), F(60), F(100), F(140)):
            forked.extend_to(horizon)
            reference.extend_to(horizon)
            assert forked.tuples(horizon) == reference.tuples(horizon)

    def test_fork_carries_non_cone_frontiers_verbatim(self):
        base = _core_chain(F(10))
        ex = self._warm(base)
        new, _ = apply_edit(base, _beta(), SetSeparation("c", "d", F(14)))
        forked = ex.fork(new, structural_diff(base, new))
        for v in ("a", "b", "c"):
            assert forked._frontiers[v].times == ex._frontiers[v].times
            assert forked._frontiers[v].works == ex._frontiers[v].works
        assert forked._frontiers["d"].times == []

    @pytest.mark.parametrize(
        "edit, scales",
        [
            (SetSeparation("c", "d", F(29, 3)), (3, 1)),
            (SetWcet("d", F(5, 2)), (1, 2)),
            (SetSeparation("a", "b", F(13, 2)), (2, 1)),
        ],
    )
    def test_fork_rescales_when_an_edit_changes_the_scales(self, edit, scales):
        """A fractional edit moves the time or work unit: the fork counts
        in the new unit and still answers bit-identically."""
        from repro.drt.request import FrontierExplorer

        base = _core_chain(F(10))
        ex = self._warm(base)
        ex.tuples(F(60))  # fill the sorted prefix the fork carries
        new, _ = apply_edit(base, _beta(), edit)
        forked = ex.fork(new, structural_diff(base, new))
        assert (forked._S, forked._W) == scales
        reference = FrontierExplorer(_fresh(new))
        for horizon in (F(20), F(121, 3), F(60), F(140)):
            assert forked.tuples(horizon) == reference.tuples(horizon)
            assert forked.rbf_curve(horizon) == reference.rbf_curve(horizon)

    @settings(max_examples=30, deadline=None)
    @given(task=rational_drt_tasks(), data=st.data())
    def test_fork_equals_scratch_on_rational_edits(self, task, data):
        """fork == scratch for fractional ``SetSeparation`` (moves S) and
        ``SetWcet`` (moves W) edits of rational-parameter tasks."""
        from repro.drt.request import FrontierExplorer

        d = data.draw(st.sampled_from((5, 9)))
        if data.draw(st.booleans()):
            src, dst = data.draw(
                st.sampled_from([(e.src, e.dst) for e in task.edges])
            )
            sep = data.draw(st.integers(min_value=4 * d, max_value=20 * d))
            edit = SetSeparation(src, dst, F(sep, d))
        else:
            job = data.draw(st.sampled_from(task.job_names))
            wcet = data.draw(st.integers(min_value=d, max_value=4 * d))
            edit = SetWcet(job, F(wcet, d))
        new_task, _ = apply_edit(task, _beta(), edit)
        ex = FrontierExplorer(task)
        ex.tuples(F(30))
        forked = ex.fork(new_task, structural_diff(task, new_task))
        reference = FrontierExplorer(_fresh(new_task))
        for horizon in (F(10), F(61, 3), F(30), F(45)):
            assert forked.tuples(horizon) == reference.tuples(horizon)
            assert forked.rbf_curve(horizon) == reference.rbf_curve(horizon)

    def test_fork_of_unexplored_explorer_starts_fresh(self):
        base = _core_chain()
        ex = frontier_explorer(base)  # never extended
        new, _ = apply_edit(base, _beta(), SetSeparation("c", "d", F(14)))
        forked = ex.fork(new, structural_diff(base, new))
        forked.extend_to(F(40))
        reference = frontier_explorer(_fresh(new))
        reference.extend_to(F(40))
        assert forked.tuples(F(40)) == reference.tuples(F(40))

    def test_fork_requires_pruning(self):
        from repro.drt.request import FrontierExplorer

        base = _core_chain()
        new, _ = apply_edit(base, _beta(), SetSeparation("c", "d", F(14)))
        with pytest.raises(ModelError):
            FrontierExplorer(base, prune=False).fork(
                new, structural_diff(base, new)
            )


# ---------------------------------------------------------------------------
# Edits
# ---------------------------------------------------------------------------


class TestEdits:
    def test_apply_preserves_insertion_order(self):
        base = _core_chain()
        new, _ = apply_edit(base, _beta(), SetSeparation("b", "c", F(11)))
        assert list(new.jobs) == list(base.jobs)
        assert [(e.src, e.dst) for e in new.edges] == [
            (e.src, e.dst) for e in base.edges
        ]

    def test_beta_only_edit_reuses_the_task_object(self):
        base = _core_chain()
        new, nb = apply_edit(base, _beta(), TightenBeta(F(1), F(1)))
        assert new is base
        assert nb == rate_latency_service(F(1), F(1))

    def test_invalid_edits_raise_model_error(self):
        base = _core_chain()
        beta = _beta()
        for edit in (
            SetWcet("zz", F(1)),
            SetSeparation("a", "d", F(5)),
            RemoveEdge("a", "d"),
            AddEdge("a", "b", F(5)),  # duplicate
            ScaleWcet(F(0)),
            TightenBeta(F(0)),
        ):
            with pytest.raises(ModelError):
                apply_edit(base, beta, edit)

    def test_wire_round_trip_all_ops(self):
        edits = [
            ScaleWcet(F(11, 10)),
            ScaleWcet(F(3, 2), job="a"),
            SetWcet("a", F(2)),
            SetDeadline("b", F(9)),
            SetSeparation("c", "d", F(13)),
            AddEdge("a", "c", F(8)),
            RemoveEdge("c", "d"),
            TightenBeta(F(2, 3), F(5, 2)),
        ]
        for edit in edits:
            wire = json.loads(json.dumps(edit_to_dict(edit)))
            assert edit_from_dict(wire) == edit

    def test_edit_from_dict_rejects_garbage(self):
        for bad in (
            "not a dict",
            {"op": "frobnicate"},
            {"op": "set_wcet", "job": "a", "wcet": "1", "extra": 1},
            {"op": "set_wcet", "job": "a", "wcet": "one"},
            {"op": "set_wcet", "job": "a"},
        ):
            with pytest.raises(SerializationError):
                edit_from_dict(bad)


# ---------------------------------------------------------------------------
# Warm session == from-scratch (the tentpole property)
# ---------------------------------------------------------------------------


def _random_edit(draw, task):
    """One random valid-by-construction edit for *task*."""
    names = sorted(task.job_names)
    edges = sorted((e.src, e.dst) for e in task.edges)
    kinds = ["scale", "set_wcet", "set_deadline", "set_sep", "beta"]
    if len(edges) > 1:
        kinds.append("remove")
    missing = sorted(
        (a, b)
        for a in names
        for b in names
        if (a, b) not in set(edges)
    )
    if missing:
        kinds.append("add")
    kind = draw(st.sampled_from(kinds))
    small_int = st.integers(min_value=1, max_value=6)
    if kind == "scale":
        which = draw(st.sampled_from([None] + names))
        return ScaleWcet(
            F(draw(st.integers(min_value=1, max_value=8)), 4), job=which
        )
    if kind == "set_wcet":
        return SetWcet(draw(st.sampled_from(names)), F(draw(small_int)))
    if kind == "set_deadline":
        return SetDeadline(
            draw(st.sampled_from(names)),
            F(draw(st.integers(min_value=2, max_value=20))),
        )
    if kind == "set_sep":
        src, dst = draw(st.sampled_from(edges))
        return SetSeparation(
            src, dst, F(draw(st.integers(min_value=4, max_value=24)))
        )
    if kind == "remove":
        src, dst = draw(st.sampled_from(edges))
        return RemoveEdge(src, dst)
    if kind == "add":
        src, dst = draw(st.sampled_from(missing))
        return AddEdge(
            src, dst, F(draw(st.integers(min_value=4, max_value=20)))
        )
    return TightenBeta(
        F(draw(st.integers(min_value=1, max_value=8)), 2),
        F(draw(st.integers(min_value=0, max_value=6))),
    )


class TestIncrementalEqualsFromScratch:
    @settings(max_examples=12, deadline=None)
    @given(task=small_drt_tasks(), beta=service_curves(), data=st.data())
    def test_session_matches_fresh_analysis(self, task, beta, data):
        try:
            session = WhatIfSession(task, beta)
        except ReproError:
            assume(False)  # unbounded/invalid base pair: nothing to warm
        edit = _random_edit(data.draw, task)
        res = session.analyze(edit)
        new_task, new_beta = apply_edit(task, beta, edit)
        try:
            expected = StructuralAnalysis(
                _fresh(new_task), new_beta
            ).summary()
        except ReproError:
            assert not res.ok
            assert res.error_code in {
                "validation",
                "unbounded",
                "budget_exhausted",
                "analysis_error",
            }
        else:
            assert res.ok, res.error
            # Frozen dataclass equality: exact Fractions for delay,
            # backlog, busy window, every per-job bound, the deadline
            # verdict, and the same critical-path witness.
            assert res.summary == expected
            assert res.total_vertices == len(new_task.job_names)
            if new_task is not task:
                assert res.cone_size + res.carried_vertices == len(
                    new_task.job_names
                )

    @settings(max_examples=8, deadline=None)
    @given(task=small_drt_tasks(), beta=service_curves(), data=st.data())
    def test_forked_edf_verdicts_match(self, task, beta, data):
        edit = _random_edit(data.draw, task)
        try:
            new_task, new_beta = apply_edit(task, beta, edit)
        except ReproError:
            assume(False)
        if new_task is not task:
            # Install the forked explorer exactly as the engine does,
            # then let EDF reuse it through the shared-explorer path.
            try:
                base_ex = frontier_explorer(task)
                base_ex.extend_to(F(40))
                forked = base_ex.fork(new_task, structural_diff(task, new_task))
            except ReproError:
                assume(False)
            guard_cache(new_task)["frontier_explorer"] = forked
        try:
            incremental = edf_structural_delays([new_task], new_beta)
        except ReproError as exc:
            incremental = type(exc).__name__
        try:
            reference = edf_structural_delays([_fresh(new_task)], new_beta)
        except ReproError as exc:
            reference = type(exc).__name__
        assert incremental == reference

    def test_sweep_is_order_stable_and_chunking_invariant(self):
        base = _core_chain()
        beta = _beta()
        edits = [
            SetSeparation("c", "d", F(s)) for s in (8, 10, 12, 14, 16, 18)
        ] + [TightenBeta(F(1), F(1)), ScaleWcet(F(9, 8))]
        serial = whatif_sweep(base, beta, edits, jobs=1)
        chunked = whatif_sweep(_fresh(base), beta, edits, jobs=3)
        assert [r.edit for r in serial] == [edit_to_dict(e) for e in edits]
        assert serial == chunked

    def test_failed_edit_is_a_value_not_an_exception(self):
        session = WhatIfSession(_core_chain(), _beta())
        res = session.analyze(SetWcet("nope", F(1)))
        assert not res.ok
        assert res.error_code == "validation" or res.error_code == "analysis_error"
        assert res.summary is None
        # The sweep proceeds past the failure.
        results = whatif_sweep(
            _core_chain(),
            _beta(),
            [SetWcet("nope", F(1)), SetSeparation("c", "d", F(12))],
        )
        assert [r.ok for r in results] == [False, True]


# ---------------------------------------------------------------------------
# Edit-aware result cache
# ---------------------------------------------------------------------------


class TestVertexCache:
    def test_per_vertex_entries_survive_outside_cone_edits(self, tmp_path):
        assert result_cache.configure(str(tmp_path / "cache"))
        base = _core_chain()
        beta = _beta()
        edit = SetSeparation("c", "d", F(14))
        WhatIfSession(base, beta).analyze(edit)
        before = perf.counters().get("whatif.vertex_hits", 0)
        res = WhatIfSession(_fresh(base), beta).analyze(edit)
        after = perf.counters().get("whatif.vertex_hits", 0)
        assert res.ok
        # The second (cold-process-equivalent) session hit every vertex.
        assert after - before == len(base.job_names)
        expected = StructuralAnalysis(
            _fresh(apply_edit(base, beta, edit)[0]), beta
        ).summary()
        assert res.summary == expected

    def test_forked_contexts_do_not_persist_whole_results(self, tmp_path):
        assert result_cache.configure(str(tmp_path / "cache"))
        base = _core_chain()
        beta = _beta()
        new, _ = apply_edit(base, beta, SetSeparation("c", "d", F(14)))
        ctx = AnalysisContext.of(new, beta, persist=False)
        ctx.delay_result()
        ctx.per_job()
        ctx.backlog_result()
        for kind in ("ctx.delay", "ctx.per_job", "ctx.backlog"):
            assert result_cache.get_analysis(kind, _fresh(new), beta) is None
        # A persisting context does write-through.
        ctx2 = AnalysisContext.of(_fresh(new), beta)
        ctx2.delay_result()
        assert (
            result_cache.get_analysis("ctx.delay", _fresh(new), beta)
            is not None
        )


# ---------------------------------------------------------------------------
# Chaos: cache corruption must never change bounds
# ---------------------------------------------------------------------------


class TestChaosInvariance:
    def test_sweep_is_bit_identical_under_cache_faults(self, tmp_path):
        base = _core_chain()
        beta = _beta()
        edits = [
            SetSeparation("c", "d", F(s)) for s in (9, 12, 15)
        ] + [ScaleWcet(F(5, 4)), TightenBeta(F(1), F(2))]
        reference = whatif_sweep(_fresh(base), beta, edits)
        assert result_cache.configure(str(tmp_path / "cache"))
        sites = {
            site: 0.5
            for site in (
                "cache.truncate",
                "cache.corrupt",
                "cache.enospc",
                "cache.eperm.read",
                "cache.eperm.write",
            )
        }
        for seed in (3, 7):
            with chaos.scoped(seed, sites=sites):
                # Warm once (possibly poisoned writes), then read back.
                whatif_sweep(_fresh(base), beta, edits)
                faulted = whatif_sweep(_fresh(base), beta, edits)
            assert faulted == reference


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def _write_tasks(self, tmp_path):
        base = _core_chain(F(10))
        edited, _ = apply_edit(base, _beta(), SetSeparation("c", "d", F(14)))
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        save_task(base, str(old))
        save_task(edited, str(new))
        return base, str(old), str(new)

    def test_diff_human_output(self, tmp_path, capsys):
        from repro.cli import main

        _, old, new = self._write_tasks(tmp_path)
        assert main(["diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "c->d" in out
        assert "carried" in out

    def test_diff_json_output(self, tmp_path, capsys):
        from repro.cli import main

        _, old, new = self._write_tasks(tmp_path)
        assert main(["diff", old, new, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["changed_edges"] == [["c", "d"]]
        assert doc["affected_cone"] == ["d"]
        assert sorted(doc["carried_vertices"]) == ["a", "b", "c"]

    def test_whatif_json_matches_direct_sweep(self, tmp_path, capsys):
        from repro.cli import main

        base, old, _ = self._write_tasks(tmp_path)
        edits = [
            {"op": "set_separation", "src": "c", "dst": "d", "separation": "14"},
            {"op": "scale_wcet", "factor": "5/4"},
            {"op": "set_wcet", "job": "zz", "wcet": "1"},
        ]
        edits_file = tmp_path / "edits.json"
        edits_file.write_text(json.dumps(edits))
        assert (
            main(
                [
                    "whatif",
                    old,
                    "--rate",
                    "1/2",
                    "--latency",
                    "2",
                    "--edits",
                    str(edits_file),
                    "--json",
                ]
            )
            == 0
        )
        lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        direct = whatif_sweep(
            _fresh(base), _beta(), [edit_from_dict(e) for e in edits]
        )
        assert len(lines) == len(direct)
        for doc, res in zip(lines, direct):
            assert doc["ok"] == res.ok
            if res.ok:
                assert F(doc["summary"]["delay"]) == res.summary.delay
                assert F(doc["summary"]["backlog"]) == res.summary.backlog
            else:
                assert doc["error"]["code"] == res.error_code

    def test_whatif_rejects_malformed_edits_file(self, tmp_path, capsys):
        from repro.cli import main

        _, old, _ = self._write_tasks(tmp_path)
        edits_file = tmp_path / "edits.json"
        edits_file.write_text(json.dumps([{"op": "frobnicate"}]))
        assert (
            main(
                ["whatif", old, "--rate", "1/2", "--edits", str(edits_file)]
            )
            != 0
        )


# ---------------------------------------------------------------------------
# Service endpoint
# ---------------------------------------------------------------------------


class TestService:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.service import ServerHandle, ServiceConfig

        handle = ServerHandle.start(
            ServiceConfig(
                port=0, jobs=2, batch_window_ms=2.0, item_timeout_s=10.0
            )
        )
        yield handle
        handle.shutdown()

    @pytest.fixture()
    def client(self, server):
        from repro.service import ServiceClient

        return ServiceClient(port=server.port, timeout=300.0)

    def _edits(self):
        return [
            SetSeparation("c", "d", F(14)),
            ScaleWcet(F(5, 4)),
            TightenBeta(F(1), F(1)),
            SetWcet("zz", F(1)),  # typed per-edit failure, not an error
        ]

    def test_served_sweep_is_bit_identical(self, client):
        base = _core_chain()
        beta = _beta()
        served = client.whatif_sweep(base, beta, self._edits())
        direct = whatif_sweep(_fresh(base), beta, self._edits())
        assert served == direct

    def test_whatif_kind_rides_the_batch_endpoint(self, client):
        from repro.service import ServiceClient

        base = _core_chain()
        beta = _beta()
        spec = ServiceClient.build_request(
            "whatif_sweep", base, beta, edits=self._edits()
        )
        envelopes = client.batch([spec])
        assert envelopes[0]["ok"], envelopes[0]
        from repro.service import decode_result

        served = decode_result("whatif_sweep", envelopes[0]["result"])
        assert served == whatif_sweep(_fresh(base), beta, self._edits())

    def test_endpoint_rejects_mismatched_kind(self, server):
        import urllib.error
        import urllib.request

        from repro.io.json_io import task_to_dict

        body = json.dumps(
            {
                "kind": "delay",
                "task": task_to_dict(_core_chain()),
                "beta": {"rate": "1/2", "latency": "2"},
                "edits": [edit_to_dict(ScaleWcet(F(5, 4)))],
            }
        ).encode()
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v1/whatif",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=60)
        assert err.value.code == 400

    def test_missing_edits_is_a_protocol_error(self):
        from repro.io.json_io import curve_to_dict, task_to_dict
        from repro.service.protocol import decode_request

        body = {
            "kind": "whatif_sweep",
            "task": task_to_dict(_core_chain()),
            "beta": curve_to_dict(_beta()),
        }
        with pytest.raises(SerializationError):
            decode_request(body)
