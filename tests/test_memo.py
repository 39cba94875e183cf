"""The one bounded memo behind every process-wide cache."""

from __future__ import annotations

from repro import _memo, perf
from repro._memo import LRU, clear_process_memos, process_memo


def _counter(name: str) -> int:
    return perf.counters().get(name, 0)


class TestEviction:
    def test_evicts_least_recently_used_first(self):
        memo = LRU(3)
        for key in "abc":
            memo.put(key, key.upper())
        assert memo.get("a") == "A"  # a is now the most recent
        assert memo.put("d", "D") == ["b"]
        assert memo.put("e", "E") == ["c"]
        assert [k for k, _ in memo.items()] == ["a", "d", "e"]

    def test_put_returns_every_evicted_key_oldest_first(self):
        memo = LRU(4)
        for i in range(4):
            memo.put(i, i)
        memo.cap = 1
        assert memo.put(4, 4) == [0, 1, 2, 3]
        assert len(memo) == 1

    def test_overwrite_refreshes_without_evicting(self):
        memo = LRU(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.put("a", 3) == []
        assert memo.put("c", 4) == ["b"]
        assert memo.peek("a") == 3

    def test_pop_and_clear(self):
        memo = LRU(2)
        memo.put("a", 1)
        assert memo.pop("a") == 1
        assert memo.pop("a") is None
        memo.put("b", 2)
        memo.clear()
        assert len(memo) == 0
        assert memo.get("b") is None

    def test_missing_key_returns_none(self):
        memo = LRU(2)
        assert memo.get("x") is None
        assert memo.peek("x") is None


class TestPeek:
    def test_peek_leaves_recency_alone(self):
        memo = LRU(2)
        memo.put("old", 1)
        memo.put("new", 2)
        assert memo.peek("old") == 1
        # A get would have saved "old"; a peek does not.
        assert memo.put("newest", 3) == ["old"]

    def test_peek_leaves_counters_alone(self):
        memo = LRU(2, name="test.memo_peek")
        memo.put("a", 1)
        before = perf.counters()
        memo.peek("a")
        memo.peek("b")
        assert perf.counters() == before


class TestCounters:
    def test_named_memo_records_hits_and_misses(self):
        memo = LRU(2, name="test.memo_hm")
        hits, misses = _counter("test.memo_hm_hits"), _counter("test.memo_hm_misses")
        assert memo.get("a") is None
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert memo.get("a") == 1
        assert _counter("test.memo_hm_hits") == hits + 2
        assert _counter("test.memo_hm_misses") == misses + 1

    def test_named_memo_records_evictions(self):
        memo = LRU(2, name="test.memo_ev")
        before = _counter("test.memo_ev_evictions")
        for i in range(7):
            memo.put(i, i)
        assert _counter("test.memo_ev_evictions") == before + 5

    def test_unnamed_memo_records_nothing(self):
        memo = LRU(1)
        before = perf.counters()
        memo.get("a")
        memo.put("a", 1)
        memo.put("b", 2)
        memo.get("b")
        assert perf.counters() == before


class TestRegistry:
    def test_clear_process_memos_empties_every_registered_memo(self):
        memo = process_memo("test.memo_registered", 8)
        try:
            memo.put("a", 1)
            clear_process_memos()
            assert len(memo) == 0
            assert all(len(m) == 0 for m in _memo._registry)
        finally:
            _memo._registry.remove(memo)

    def test_engine_memos_are_registered_under_their_counter_names(self):
        from repro.cluster import routing
        from repro.minplus import kernels

        names = {m.name for m in _memo._registry}
        assert {
            "kernel.memo",
            "kernel.lowered",
            "cluster.route_memo",
            "drt.int_service",
        } <= names
        assert kernels.OP_MEMO.name == "kernel.memo"
        assert routing._MEMO.name == "cluster.route_memo"
