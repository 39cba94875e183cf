"""Persistent result cache: correctness, durability, degradation."""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import sys
import tempfile
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import perf
from repro.core.context import AnalysisContext
from repro.drt.model import DRTTask
from repro.minplus.builders import rate_latency
from repro.parallel import cache as result_cache
from repro.parallel import transport
from repro.resilience import chaos
from repro.sched.edf_delay import edf_structural_delays
from repro.sched.sp import sp_schedulable
from repro.service import http
from repro.service.server import ServerHandle, ServiceConfig

from .conftest import oracle_settings


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


def _dir_bytes(path) -> int:
    """Summed size of every file under *path*."""
    return sum(
        os.path.getsize(os.path.join(root, f))
        for root, _, files in os.walk(path)
        for f in files
    )


def _usage(path) -> int:
    """The byte counter of the cache directory *path*."""
    with open(os.path.join(path, "usage"), "rb") as fh:
        return int(fh.read())


def _count_walks(monkeypatch, path) -> "list[int]":
    """Count the directory walks of the cache at *path*: each starts
    with one ``os.scandir`` of the directory itself, called from the
    cache module."""
    walks = [0]
    scandir = os.scandir

    def counting(target="."):
        caller = sys._getframe(1).f_globals.get("__name__")
        if caller == result_cache.__name__ and os.fspath(target) == os.fspath(
            path
        ):
            walks[0] += 1
        return scandir(target)

    monkeypatch.setattr(result_cache.os, "scandir", counting)
    return walks


def _parent_layout(path, n: int, blob: bytes) -> None:
    """Fill *path* the way a cache without a byte counter left it:
    sharded entries plus a placement journal, no ``usage`` file."""
    with open(os.path.join(path, "placements.jsonl"), "w") as journal:
        for i in range(n):
            key = _key(i)
            os.makedirs(os.path.join(path, key[:2]), exist_ok=True)
            with open(os.path.join(path, key[:2], key + ".pkl"), "wb") as fh:
                fh.write(pickle.dumps(blob))
            os.utime(os.path.join(path, key[:2], key + ".pkl"), (i, i))
            journal.write(json.dumps({"k": key, "p": f"route-{i}"}) + "\n")


@contextlib.contextmanager
def _no_ambient_chaos():
    """The counter tests pin exact byte totals and walk counts, which an
    ambient ``REPRO_CHAOS`` run (a CI leg) perturbs on purpose by
    failing and damaging writes; ``test_resilience_cache.py`` covers the
    faults themselves."""
    saved = chaos.current_config()
    chaos.apply_config(None)
    try:
        yield
    finally:
        chaos.apply_config(saved)


class TestUsageCounter:
    @pytest.fixture(autouse=True)
    def _clean_store(self):
        with _no_ambient_chaos():
            yield

    def test_no_walk_below_cap(self, tmp_path, monkeypatch):
        result_cache.configure(str(tmp_path))
        walks = _count_walks(monkeypatch, tmp_path)
        with result_cache.placement_scope("route"):
            for i in range(300):
                result_cache.put(_key(i), b"x" * 320)
        assert walks[0] <= 1
        assert _usage(tmp_path) == _dir_bytes(tmp_path)

    @pytest.mark.parametrize(
        "damage",
        [None, b"garbage\n", b"12x4567890123456789\n", b"1" * 40 + b"\n"],
        ids=["missing", "garbled", "non-digit", "too-long"],
    )
    def test_unknown_counter_adopted_by_one_walk(
        self, tmp_path, monkeypatch, damage
    ):
        cap = 4000
        result_cache.configure(str(tmp_path), max_bytes=cap)
        for i in range(6):
            result_cache.put(_key(i), b"x" * 500)
        usage = tmp_path / "usage"
        if damage is None:
            usage.unlink()
        else:
            usage.write_bytes(damage)
        walks = _count_walks(monkeypatch, tmp_path)
        result_cache.put(_key(100), b"y" * 500)
        assert walks[0] == 1
        assert _usage(tmp_path) == _dir_bytes(tmp_path) <= cap
        result_cache.put(_key(101), b"y" * 10)
        assert walks[0] == 1  # adopted: the next put below the cap reads it

    def test_parent_layout_adopted_and_capped(self, tmp_path, monkeypatch):
        cap = 3000
        _parent_layout(tmp_path, 12, b"x" * 400)
        assert _dir_bytes(tmp_path) > cap
        result_cache.configure(str(tmp_path), max_bytes=cap)
        walks = _count_walks(monkeypatch, tmp_path)
        with result_cache.placement_scope("route-new"):
            result_cache.put(_key(99), b"y" * 400)
        assert walks[0] == 1
        assert _usage(tmp_path) == _dir_bytes(tmp_path) <= cap
        resident = {key for key, _ in result_cache.list_keys()}
        assert _key(99) in resident and _key(0) not in resident
        assert set(result_cache.placements()) >= resident

    def test_overwrite_adds_its_full_size(self, tmp_path):
        result_cache.configure(str(tmp_path))
        with result_cache.placement_scope("route"):
            result_cache.put(_key(1), b"x" * 100)
            before = _usage(tmp_path)
            result_cache.put(_key(1), b"x" * 300)
        blob = pickle.dumps(b"x" * 300, pickle.HIGHEST_PROTOCOL)
        assert _usage(tmp_path) - before == len(blob)
        assert _usage(tmp_path) >= _dir_bytes(tmp_path)

    def test_cap_counts_the_counter(self, tmp_path):
        # Two entries fit the cap, two entries and the counter do not.
        blob = pickle.dumps(b"x" * 500, pickle.HIGHEST_PROTOCOL)
        cap = 2 * len(blob) + 10
        result_cache.configure(str(tmp_path), max_bytes=cap)
        result_cache.put(_key(1), b"x" * 500)
        os.utime(result_cache._path_for(_key(1)), (1000, 1000))
        result_cache.put(_key(2), b"x" * 500)
        assert _dir_bytes(tmp_path) <= cap
        assert [key for key, _ in result_cache.list_keys()] == [_key(2)]

    def test_corrupt_eviction_subtracts_nothing(self, tmp_path):
        result_cache.configure(str(tmp_path))
        result_cache.put(_key(1), [1, 2, 3])
        result_cache.put(_key(2), [4, 5, 6])
        with open(result_cache._path_for(_key(1)), "wb") as fh:
            fh.write(b"\x80garbage")
        before = _usage(tmp_path)
        assert result_cache.get(_key(1)) is None
        assert not os.path.exists(result_cache._path_for(_key(1)))
        assert _usage(tmp_path) == before >= _dir_bytes(tmp_path)

    def test_counter_is_invisible(self, tmp_path):
        result_cache.configure(str(tmp_path))
        keys = {_key(i) for i in range(5)}
        with result_cache.placement_scope("route"):
            for key in keys:
                result_cache.put(key, key)
        assert (tmp_path / "usage").exists()
        assert {key for key, _ in result_cache.list_keys()} == keys
        assert result_cache.stats()["entries"] == len(keys)
        handle = ServerHandle.start(ServiceConfig(port=0, jobs=1))
        try:
            status, _, body = http.fetch(
                "127.0.0.1", handle.port, "GET", "/v1/cache/keys"
            )
            assert status == 200
            rows = transport.parse_key_listing(json.loads(body))
            assert {key for key, _, _ in rows} == keys
            # A migration pulls exactly the listed entries.
            pulled = transport.pull_entries(
                "127.0.0.1", handle.port, [key for key, _, _ in rows]
            )
            assert (pulled["pulled"], pulled["failed"]) == (len(keys), 0)
        finally:
            handle.shutdown()


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(0, 7),
            st.integers(0, 600),
            st.booleans(),
        ),
        st.tuples(st.just("get"), st.integers(0, 7)),
        st.tuples(
            st.just("damage"), st.integers(0, 7), st.sampled_from(("cut", "flip"))
        ),
        st.tuples(st.just("garble")),
    ),
    min_size=1,
    max_size=40,
)


@oracle_settings()
@given(cap=st.integers(1200, 5000), ops=_OPS)
def test_cap_holds_over_random_ops(cap, ops):
    """After every put, every file of the directory (entries, journal,
    counter) sums to at most the cap, and the entry just put is
    resident.  Damage only shrinks or flips files, as a crash mid-write
    would; access times tick a logical clock so eviction order is
    exact."""
    with tempfile.TemporaryDirectory() as path, _no_ambient_chaos():
        result_cache.configure(path, max_bytes=cap)
        clock = 10**6
        try:
            for op in ops:
                clock += 1
                target = result_cache._path_for(_key(op[1])) if op[1:] else None
                if op[0] == "put":
                    _, i, size, tagged = op
                    with result_cache.placement_scope(
                        f"route-{clock}" if tagged else None
                    ):
                        result_cache.put(_key(i), b"x" * size)
                    assert _dir_bytes(path) <= cap
                    assert result_cache.read_entry(_key(i)) is not None
                    os.utime(target, (clock, clock))
                elif op[0] == "get":
                    if result_cache.get(_key(op[1])) is not None:
                        os.utime(target, (clock, clock))
                elif op[0] == "damage" and os.path.exists(target):
                    with open(target, "rb") as fh:
                        blob = fh.read()
                    cut = blob[: len(blob) // 2]
                    flip = blob[:-1] + bytes([blob[-1] ^ 0xFF]) if blob else b""
                    with open(target, "wb") as fh:
                        fh.write(cut if op[2] == "cut" else flip)
                    os.utime(target, (clock, clock))
                elif op[0] == "garble" and os.path.exists(
                    os.path.join(path, "usage")
                ):
                    with open(os.path.join(path, "usage"), "wb") as fh:
                        fh.write(b"garbled")
        finally:
            result_cache.configure(None)


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
