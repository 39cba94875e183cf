"""Persistent-cache adversity: races, damage, and disk faults.

Complements ``tests/test_parallel_cache.py`` (functional coverage) with
the hostile scenarios: many processes writing the same entries, racing
LRU evictions, entries damaged on disk, and injected storage faults.
The invariant throughout: the cache accelerates or gets out of the way —
cold and warm results stay bit-identical and nothing raises.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from fractions import Fraction as F

import pytest

from repro import perf
from repro.core.delay import structural_delay
from repro.drt.model import DRTTask
from repro.minplus.builders import rate_latency
from repro.parallel import cache as result_cache
from repro.parallel.plane import parallel_map
from repro.resilience import chaos


@pytest.fixture(autouse=True)
def _isolated_cache():
    result_cache.configure(None)
    yield
    result_cache.configure(None)


def _fresh_demo():
    return DRTTask.build(
        "demo",
        jobs={"a": (1, 5), "b": (3, 8), "c": (2, 10)},
        edges=[("a", "b", 10), ("b", "c", 8), ("c", "a", 12), ("a", "a", 5)],
    )


BETA = rate_latency(F(1, 2), F(4))


# ---------------------------------------------------------------------------
# Worker functions (module-level: must be picklable / spawnable)
# ---------------------------------------------------------------------------


def _analyze_demo(_):
    """One full analysis; plane workers share the parent's cache dir."""
    return structural_delay(_fresh_demo(), BETA).delay


def _hammer_cache(config, shard, rounds):
    """Racing writer: put/get overlapping keys under a tiny LRU cap.

    Every put triggers an eviction pass, so concurrent writers race
    both the atomic replace and each other's unlinks.  Exit code 0
    means no operation raised.
    """
    result_cache.apply_config(config)
    blob = b"x" * 4096
    for r in range(rounds):
        # Overlapping key space: everyone fights over the same entries.
        key = format((shard + r) % 6, "02x") + "f" * 62
        result_cache.put(key, blob)
        got = result_cache.get(key)
        assert got is None or got == blob


def _put_many(config, shard, count):
    """Distinct puts below the cap: each raises the shared byte counter.
    Ambient fault injection is off: every put must land."""
    chaos.apply_config(None)
    result_cache.apply_config(config)
    for i in range(count):
        result_cache.put(format(shard, "02x") + format(i, "062x"), b"x" * 300)


def _write_same_entry(config, value):
    """All processes store the same value under the same key.
    Ambient fault injection is off: the last write must land."""
    chaos.apply_config(None)
    result_cache.apply_config(config)
    for _ in range(20):
        result_cache.put("ab" + "c" * 62, value)
    return result_cache.get("ab" + "c" * 62)


# ---------------------------------------------------------------------------
# Concurrent multi-process writers
# ---------------------------------------------------------------------------


class TestConcurrentWriters:
    def test_plane_workers_share_one_dir_bit_identically(self, tmp_path):
        result_cache.configure(str(tmp_path))
        baseline = structural_delay(_fresh_demo(), BETA).delay
        # Eight identical items across workers: everyone races to write
        # the same cache entries, then the warm pass must hit them.
        cold = parallel_map(_analyze_demo, list(range(8)), jobs=4)
        assert cold == [baseline] * 8
        perf.reset()
        warm = structural_delay(_fresh_demo(), BETA).delay
        assert warm == baseline
        assert perf.counters().get("rcache.hits", 0) >= 1

    def test_same_key_written_by_many_processes(self, tmp_path):
        result_cache.configure(str(tmp_path))
        config = result_cache.current_config()
        ctx = multiprocessing.get_context("spawn")
        value = {"delay": F(7, 3), "tag": "shared"}
        with ctx.Pool(4) as pool:
            out = pool.starmap(_write_same_entry, [(config, value)] * 4)
        assert all(v == value for v in out)
        assert result_cache.get("ab" + "c" * 62) == value

    def test_racing_evictions_never_raise(self, tmp_path):
        # Cap fits ~2 of the 6 contended entries: every put evicts while
        # siblings are mid-put/get on the same files.
        result_cache.configure(str(tmp_path), max_bytes=2 * 4200)
        config = result_cache.current_config()
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_hammer_cache, args=(config, shard, 30))
            for shard in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # The cap held (within one in-flight entry of slack) and the
        # cache still works.
        total = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(tmp_path)
            for f in files
        )
        assert total <= 2 * 4200 + 4200
        result_cache.put("aa" + "0" * 62, [1, 2])
        assert result_cache.get("aa" + "0" * 62) == [1, 2]


    def test_racing_puts_never_undercount(self, tmp_path):
        # More writers than cores, all raising one counter: a lost
        # update would leave it below the bytes on disk.
        result_cache.configure(str(tmp_path))
        config = result_cache.current_config()
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_put_many, args=(config, shard, 150))
            for shard in range(6)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert not p.is_alive() and p.exitcode == 0
        with open(tmp_path / "usage", "rb") as fh:
            usage = int(fh.read())
        total = sum(
            os.path.getsize(os.path.join(root, f))
            for root, _, files in os.walk(tmp_path)
            for f in files
        )
        assert len(result_cache.list_keys()) == 6 * 150
        assert usage >= total


# ---------------------------------------------------------------------------
# Damaged entries on disk
# ---------------------------------------------------------------------------


class TestDamagedEntries:
    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob[: len(blob) // 2],  # truncated
            lambda blob: b"",  # zero-length
            lambda blob: blob[:-1] + bytes([blob[-1] ^ 0xFF]),  # bit flip
            lambda blob: b"\x80garbage" + blob,  # framing junk
        ],
        ids=["truncated", "empty", "bitflip", "junk"],
    )
    def test_damaged_entry_evicted_and_recomputed(self, tmp_path, damage):
        result_cache.configure(str(tmp_path))
        cold = structural_delay(_fresh_demo(), BETA)
        # Damage every entry the analysis wrote.
        paths = [
            os.path.join(root, f)
            for root, _, files in os.walk(tmp_path)
            for f in files
            if f.endswith(".pkl")
        ]
        assert paths
        for path in paths:
            with open(path, "rb") as fh:
                blob = fh.read()
            with open(path, "wb") as fh:
                fh.write(damage(blob))
        perf.reset()
        warm = structural_delay(_fresh_demo(), BETA)
        assert warm == cold
        counters = perf.counters()
        assert counters.get("rcache.corrupt_evictions", 0) >= 1
        # The recompute rewrote good entries: a third run hits cleanly.
        perf.reset()
        assert structural_delay(_fresh_demo(), BETA) == cold
        assert perf.counters().get("rcache.corrupt_evictions", 0) == 0

    def test_eviction_of_unlinkable_entry_degrades_to_miss(self, tmp_path):
        result_cache.configure(str(tmp_path))
        key = "ab" + "1" * 62
        result_cache.put(key, [1, 2, 3])
        path = result_cache._path_for(key)
        with open(path, "wb") as fh:
            fh.write(b"\x80junk")
        os.chmod(os.path.dirname(path), 0o555)  # unlink will fail
        try:
            assert result_cache.get(key) is None  # miss, no raise
        finally:
            os.chmod(os.path.dirname(path), 0o755)


# ---------------------------------------------------------------------------
# Injected storage faults (chaos hooks)
# ---------------------------------------------------------------------------


class TestDiskFaults:
    def test_disk_full_mid_write_keeps_cold_eq_warm(self, tmp_path):
        result_cache.configure(str(tmp_path))
        with chaos.scoped(17, sites={"cache.enospc": 1.0}):
            cold = structural_delay(_fresh_demo(), BETA)
            warm = structural_delay(_fresh_demo(), BETA)
        assert warm == cold
        # Nothing was persisted and nothing half-written survives.
        leftovers = [
            f
            for root, _, files in os.walk(tmp_path)
            for f in files
        ]
        assert leftovers == []
        # Disk "recovers": the same analysis now caches and hits.
        again = structural_delay(_fresh_demo(), BETA)
        assert again == cold
        perf.reset()
        assert structural_delay(_fresh_demo(), BETA) == cold
        assert perf.counters().get("rcache.hits", 0) >= 1

    def test_failed_puts_counted(self, tmp_path):
        result_cache.configure(str(tmp_path))
        perf.reset()
        with chaos.scoped(17, sites={"cache.enospc": 1.0}):
            for i in range(5):
                result_cache.put(format(i, "02x") + "b" * 62, i)
        counters = perf.counters()
        assert counters.get("rcache.put_failures", 0) == 5
        assert counters.get("rcache.puts", 0) == 0
        assert result_cache.stats()["put_failures"] == 5
        # A write that lands is a put, not a failure.
        with chaos.scoped(17, sites={}):
            result_cache.put("ff" + "b" * 62, 5)
        assert result_cache.stats()["puts"] == 1
        assert result_cache.stats()["put_failures"] == 5

    def test_transient_enospc_retried_to_success(self, tmp_path):
        result_cache.configure(str(tmp_path))
        perf.reset()
        # p=0.5 with the per-attempt counter: some attempts fail, the
        # bounded retry lands the write.
        wrote = 0
        with chaos.scoped(23, sites={"cache.enospc": 0.5}):
            for i in range(8):
                key = format(i, "02x") + "a" * 62
                result_cache.put(key, i)
                if result_cache.get(key) == i:
                    wrote += 1
        assert wrote >= 1
        assert perf.counters().get("rcache.io_retries", 0) >= 1

    def test_silent_write_damage_recovered_bit_identically(self, tmp_path):
        for site in ("cache.truncate", "cache.corrupt"):
            d = tmp_path / site.replace(".", "_")
            result_cache.configure(str(d))
            with chaos.scoped(29, sites={site: 1.0}):
                cold = structural_delay(_fresh_demo(), BETA)
            # Chaos off: every damaged entry must be evicted, never
            # deserialized into a wrong answer.
            perf.reset()
            warm = structural_delay(_fresh_demo(), BETA)
            assert warm == cold
            assert perf.counters().get("rcache.corrupt_evictions", 0) >= 1
