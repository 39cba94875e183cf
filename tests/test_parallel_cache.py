"""Persistent result cache: correctness, durability, degradation."""

from __future__ import annotations

import json
import os
import pickle
from fractions import Fraction as F

import pytest

from repro import perf
from repro.core.context import AnalysisContext
from repro.drt.model import DRTTask
from repro.minplus.builders import rate_latency
from repro.parallel import cache as result_cache
from repro.sched.edf_delay import edf_structural_delays
from repro.sched.sp import sp_schedulable


@pytest.fixture(autouse=True)
def _isolated_cache():
    """Every test starts and ends with the cache disabled."""
    result_cache.configure(None)
    yield
    result_cache.configure(None)


def _fresh_demo():
    """A new task object each time: nothing memoized, same digest."""
    return DRTTask.build(
        "demo",
        jobs={"a": (1, 5), "b": (3, 8), "c": (2, 10)},
        edges=[("a", "b", 10), ("b", "c", 8), ("c", "a", 12), ("a", "a", 5)],
    )


class TestConfiguration:
    def test_disabled_by_default(self):
        assert not result_cache.is_enabled()
        assert result_cache.describe() == "off"
        assert result_cache.active_dir() is None

    def test_enable_on_disk(self, tmp_path):
        assert result_cache.configure(str(tmp_path)) is True
        assert result_cache.is_enabled()
        assert result_cache.describe() == str(tmp_path)

    def test_env_variable_adopted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        result_cache._resolved = False
        try:
            assert result_cache.active_dir() == str(tmp_path)
        finally:
            result_cache.configure(None)

    def test_unwritable_dir_degrades_with_warning(self, tmp_path):
        # A path nested under a regular file can never become a
        # directory — unwritable even for root, unlike chmod tricks.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        target = str(blocker / "cache")
        with pytest.warns(RuntimeWarning, match="not writable"):
            assert result_cache.configure(target) is False
        assert result_cache.describe() == "memory"
        result_cache.put("k" * 64, 123)
        assert result_cache.get("k" * 64) == 123

    def test_worker_config_round_trip(self, tmp_path):
        result_cache.configure(str(tmp_path), max_bytes=12345)
        config = result_cache.current_config()
        result_cache.configure(None)
        result_cache.apply_config(config)
        assert result_cache.active_dir() == str(tmp_path)


class TestStore:
    def test_get_miss_then_hit(self, tmp_path):
        result_cache.configure(str(tmp_path))
        key = "ab" + "0" * 62
        assert result_cache.get(key) is None
        result_cache.put(key, {"delay": F(7, 3)})
        assert result_cache.get(key) == {"delay": F(7, 3)}

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        result_cache.configure(str(tmp_path))
        key = "cd" + "0" * 62
        result_cache.put(key, [1, 2, 3])
        path = result_cache._path_for(key)
        with open(path, "wb") as fh:
            fh.write(b"\x80garbage")
        assert result_cache.get(key) is None
        assert not os.path.exists(path)

    def test_lru_cap_evicts_oldest(self, tmp_path):
        blob = b"x" * 2048
        result_cache.configure(str(tmp_path), max_bytes=3 * 2200)
        keys = [format(i, "02x") + "e" * 62 for i in range(8)]
        for i, key in enumerate(keys):
            result_cache.put(key, blob)
            os.utime(result_cache._path_for(key), (1000 + i, 1000 + i))
        total = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(tmp_path)
            for f in files
        )
        assert total <= 3 * 2200
        # The newest entry always survives an eviction pass.
        assert result_cache.get(keys[-1]) is not None
        assert result_cache.get(keys[0]) is None

    def test_cap_covers_placement_journal(self, tmp_path):
        # The append-only journal counts toward the byte cap; enforcing
        # the cap compacts it to the latest tag of each resident entry.
        cap = 4096
        result_cache.configure(str(tmp_path), max_bytes=cap)
        latest = {}
        for i in range(120):
            key = _key(i % 16)
            with result_cache.placement_scope(f"route-{i}"):
                result_cache.put(key, b"x" * 200)
            latest[key] = f"route-{i}"
        total = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(tmp_path)
            for f in files
        )
        assert total <= cap
        journal = {}
        with open(tmp_path / "placements.jsonl", encoding="utf-8") as fh:
            for line in fh:
                doc = json.loads(line)
                journal[doc["k"]] = doc["p"]
        resident = {key for key, _ in result_cache.list_keys()}
        assert 0 < len(resident) < 16
        assert set(journal) == resident
        assert all(journal[key] == latest[key] for key in resident)

    def test_unpicklable_values_not_cached(self, tmp_path):
        result_cache.configure(str(tmp_path))
        key = "ef" + "0" * 62
        result_cache.put(key, lambda: None)
        assert result_cache.get(key) is None


def _memory_only():
    """Switch the store to its in-memory fallback (empty)."""
    result_cache.configure(None)
    result_cache.apply_config((None, result_cache.DEFAULT_MAX_BYTES, True))


def _key(i: int) -> str:
    return format(i, "064x")


class TestMemoryEviction:
    def test_get_refreshes_recency(self):
        _memory_only()
        hot, cold = _key(10**6), _key(10**6 + 1)
        result_cache.put(hot, "hot")
        result_cache.put(cold, "cold")
        for i in range(result_cache._MEMORY_CAP + 76):
            assert result_cache.get(hot) == "hot"
            result_cache.read_entry(cold)
            result_cache.put(_key(i), i)
        # LRU: a key read before every put survives; a raw migration
        # read does not refresh, so the untouched key ages out.
        assert result_cache.get(hot) == "hot"
        assert result_cache.read_entry(cold) is None

    def test_placement_leaves_with_its_entry(self):
        _memory_only()
        with result_cache.placement_scope("route"):
            for i in range(3000):
                result_cache.put(_key(i), i)
        resident = {key for key, _ in result_cache.list_keys()}
        assert len(resident) == result_cache._MEMORY_CAP
        assert set(result_cache.placements()) == resident

    def test_disk_placement_mirror_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(result_cache._placement_memory, "cap", 8)
        result_cache.configure(str(tmp_path))
        with result_cache.placement_scope("route"):
            for i in range(20):
                result_cache.put(_key(i), i)
        assert len(result_cache._placement_memory) == 8
        # The journal still answers for every entry.
        assert len(result_cache.placements()) == 20
        assert result_cache.placement_of(_key(0)) == "route"


class TestKeys:
    def test_task_digest_stable_across_objects(self):
        assert result_cache.task_digest(_fresh_demo()) == result_cache.task_digest(
            _fresh_demo()
        )

    def test_task_digest_order_sensitive(self):
        # Insertion order steers exploration tie-breaking, so reordered
        # definitions must address different entries.
        a = DRTTask.build(
            "t", {"x": (1, 5), "y": (2, 8)}, [("x", "y", 4), ("y", "x", 6)]
        )
        b = DRTTask.build(
            "t", {"y": (2, 8), "x": (1, 5)}, [("y", "x", 6), ("x", "y", 4)]
        )
        assert result_cache.task_digest(a) != result_cache.task_digest(b)

    def test_key_covers_kind_and_parts(self):
        assert result_cache.analysis_key("a", ["p"]) != result_cache.analysis_key(
            "b", ["p"]
        )
        assert result_cache.analysis_key("a", ["p"]) != result_cache.analysis_key(
            "a", ["q"]
        )


class TestWarmAnalyses:
    def test_context_delay_warm_hit_bit_identical(self, tmp_path):
        result_cache.configure(str(tmp_path))
        beta = rate_latency(F(1, 2), 4)
        cold = AnalysisContext.of(_fresh_demo(), beta).delay_result()
        perf.reset()
        warm = AnalysisContext.of(_fresh_demo(), beta).delay_result()
        assert warm == cold
        assert perf.counters().get("rcache.hits", 0) >= 1

    def test_sp_whole_set_warm_hit(self, tmp_path):
        result_cache.configure(str(tmp_path))
        beta = rate_latency(1, 2)
        cold = sp_schedulable([_fresh_demo()], beta)
        perf.reset()
        warm = sp_schedulable([_fresh_demo()], beta)
        assert warm == cold
        assert perf.counters().get("rcache.hits", 0) >= 1
        # The whole-set hit means no per-task analysis ran at all.
        assert perf.counters().get("frontier.tuples_expanded", 0) == 0

    def test_edf_whole_set_warm_hit(self, tmp_path):
        result_cache.configure(str(tmp_path))
        beta = rate_latency(1, 1)
        tasks = lambda: [
            DRTTask.build("s", {"x": (1, 6)}, [("x", "x", 8)]),
            DRTTask.build("u", {"y": (2, 9)}, [("y", "y", 12)]),
        ]
        cold = edf_structural_delays(tasks(), beta)
        perf.reset()
        warm = edf_structural_delays(tasks(), beta)
        assert warm == cold
        assert perf.counters().get("rcache.hits", 0) >= 1

    def test_different_parameters_miss(self, tmp_path):
        result_cache.configure(str(tmp_path))
        beta = rate_latency(1, 2)
        sp_schedulable([_fresh_demo()], beta)
        perf.reset()
        sp_schedulable([_fresh_demo()], beta, max_iterations=39)
        assert perf.counters().get("rcache.hits", 0) == 0

    def test_cache_off_records_nothing(self):
        beta = rate_latency(1, 2)
        perf.reset()
        sp_schedulable([_fresh_demo()], beta)
        counters = perf.counters()
        assert "rcache.hits" not in counters
        assert "rcache.puts" not in counters
