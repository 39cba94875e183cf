"""Persistent, content-addressed analysis result cache.

Whole-analysis results — :class:`~repro.core.delay.DelayResult`,
per-job delay maps, :class:`~repro.core.backlog.BacklogResult`,
:class:`~repro.sched.sp.SpResult`, :class:`~repro.sched.edf_delay.EdfDelayResult`
— are pure functions of the task definition, the service curve, and the
analysis parameters.  This module stores them on disk keyed by a SHA-256
over exactly those inputs (plus the library version), so

* a warm re-run of a sweep skips every analysis it has seen before, and
* sibling worker processes of :mod:`repro.parallel.plane` share results
  through the filesystem instead of recomputing them per process.

Cached values are bit-identical to freshly computed ones: the key covers
every input that influences the result, curves and tasks digest their
exact rational coordinates (:meth:`repro.minplus.curve.Curve.digest`),
and values round-trip through :mod:`pickle` without loss (Fractions are
exact; curves re-intern on load).

The cache is **off by default**.  It activates when the
``REPRO_CACHE_DIR`` environment variable names a directory, when
:func:`configure` is called (the CLI's ``--cache-dir``), or inside plane
workers that inherit the parent's configuration.  An unwritable
directory degrades to a bounded in-memory store with a warning — never a
traceback.  Disk writes are atomic (temp file + ``os.replace``) and the
directory is LRU-capped by total size (``REPRO_CACHE_MAX_BYTES``,
default 256 MiB): stale entries are evicted oldest-access first.

Layout: ``<dir>/<key[:2]>/<key>.pkl``, one pickled result per file.
Invalidation is purely key-based — bumping the library version simply
addresses different entries.  The min-plus kernel tier is not part of
the key: both tiers return identical results.
"""

from __future__ import annotations

import contextlib
import contextvars
import errno
import hashlib
import json
import os
import pickle
import tempfile
import time
import warnings
from collections import OrderedDict
from typing import Iterable, Optional, Sequence, Tuple

from repro import perf
from repro.resilience import chaos

__all__ = [
    "configure",
    "describe",
    "is_enabled",
    "active_dir",
    "task_digest",
    "analysis_key",
    "get",
    "put",
    "get_analysis",
    "put_analysis",
    "clear_memory",
    "current_config",
    "apply_config",
    "stats",
    "list_keys",
    "read_entry",
    "write_entry",
    "blob_digest",
    "placement_scope",
    "placement_of",
    "placements",
]

DEFAULT_MAX_BYTES = 256 * 1024 * 1024
_MEMORY_CAP = 1024  # entries kept by the in-memory fallback store (LRU)

#: Attempts for one cache I/O operation before giving up (miss / no-op).
IO_RETRIES = 3
#: Base of the exponential backoff between I/O retries (seconds).
IO_BACKOFF = 0.01

#: Lazily resolved state: None until first use / configure().
_resolved = False
_dir: Optional[str] = None
_max_bytes = DEFAULT_MAX_BYTES
_memory_only = False
_memory: "OrderedDict[str, bytes]" = OrderedDict()

#: Placement journal: entry key -> the routing key of the request the
#: entry was written under.  A cluster resize places *requests* on the
#: consistent-hash ring, so re-homing an entry needs to know which
#: request it belongs to — the key alone cannot say.  Disk-backed caches
#: additionally append each association to ``placements.jsonl`` inside
#: the cache directory (one JSON line per put; appends below PIPE_BUF
#: are atomic), so the journal survives restarts and is visible to
#: plane-worker subprocesses sharing the directory.  The in-process
#: mirror is bounded: in memory-only mode a placement leaves with its
#: entry, on disk the mirror keeps the newest ``_MEMORY_CAP`` tags.
_PLACEMENT_FILE = "placements.jsonl"
_placement_var: "contextvars.ContextVar[Optional[str]]" = (
    contextvars.ContextVar("repro_cache_placement", default=None)
)
_placement_memory: "OrderedDict[str, str]" = OrderedDict()


def _probe_dir(path: str) -> bool:
    """True iff *path* exists (or can be created) and is writable."""
    try:
        os.makedirs(path, exist_ok=True)
        with tempfile.NamedTemporaryFile(dir=path, prefix=".probe-"):
            pass
        return True
    except OSError:
        return False


def configure(
    cache_dir: Optional[str], max_bytes: Optional[int] = None
) -> bool:
    """Install the cache configuration for this process.

    Args:
        cache_dir: Directory for cached results; ``None`` disables the
            cache entirely (and clears the in-memory fallback).
        max_bytes: LRU size cap for the directory (default 256 MiB or
            ``REPRO_CACHE_MAX_BYTES``).

    Returns:
        True when the on-disk cache is active; False when disabled or
        degraded to the in-memory fallback (a :class:`RuntimeWarning` is
        emitted for the degraded case — callers like the CLI surface it
        without a traceback).
    """
    global _resolved, _dir, _max_bytes, _memory_only
    _resolved = True
    _memory.clear()
    _placement_memory.clear()
    _max_bytes = _env_max_bytes() if max_bytes is None else int(max_bytes)
    if cache_dir is None:
        _dir = None
        _memory_only = False
        return False
    if _probe_dir(cache_dir):
        _dir = cache_dir
        _memory_only = False
        return True
    _dir = None
    _memory_only = True
    warnings.warn(
        f"result cache directory {cache_dir!r} is not writable; "
        "falling back to a bounded in-memory cache",
        RuntimeWarning,
        stacklevel=2,
    )
    return False


def _env_max_bytes() -> int:
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES")
    if not raw:
        return DEFAULT_MAX_BYTES
    try:
        return max(0, int(raw))
    except ValueError:
        warnings.warn(
            f"ignoring invalid REPRO_CACHE_MAX_BYTES={raw!r}", RuntimeWarning
        )
        return DEFAULT_MAX_BYTES


def _ensure_resolved() -> None:
    """Adopt ``REPRO_CACHE_DIR`` on first use unless configured."""
    global _resolved
    if _resolved:
        return
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        configure(env)
    else:
        _resolved = True


def is_enabled() -> bool:
    """True iff lookups/stores go anywhere (disk or memory fallback)."""
    _ensure_resolved()
    return _dir is not None or _memory_only


def active_dir() -> Optional[str]:
    """The on-disk cache directory, or None (disabled / memory-only)."""
    _ensure_resolved()
    return _dir


def describe() -> str:
    """Human-readable cache mode for status lines: ``off``, ``memory``
    or the directory path."""
    _ensure_resolved()
    if _dir is not None:
        return _dir
    return "memory" if _memory_only else "off"


def clear_memory() -> None:
    """Drop the in-memory fallback store (per-job cache isolation)."""
    _memory.clear()
    if _memory_only:
        _placement_memory.clear()


def current_config() -> Tuple[Optional[str], int, bool]:
    """The resolved configuration, for shipping to worker processes."""
    _ensure_resolved()
    return (_dir, _max_bytes, _memory_only)


def stats() -> "dict[str, object]":
    """Operational counters of the cache, for the service metrics plane.

    Combines this process's :mod:`repro.perf` cache counters (which, in
    a server, already include merged worker snapshots) with the current
    store shape.  ``hit_rate`` is hits / (hits + misses), or None before
    any lookup.  On-disk entry/byte totals are scanned lazily and only
    for disk-backed caches; scan errors degrade to None rather than
    raising — metrics must never take a server down.
    """
    _ensure_resolved()
    counters = perf.counters()
    hits = counters.get("rcache.hits", 0)
    misses = counters.get("rcache.misses", 0)
    looked = hits + misses
    entries = bytes_used = None
    if _dir is not None:
        try:
            entries = 0
            bytes_used = 0
            for sub in os.scandir(_dir):
                if not sub.is_dir():
                    continue
                for ent in os.scandir(sub.path):
                    if ent.name.endswith(".pkl"):
                        entries += 1
                        bytes_used += ent.stat().st_size
        except OSError:
            entries = bytes_used = None
    elif _memory_only:
        entries = len(_memory)
        bytes_used = sum(len(b) for b in _memory.values())
    return {
        "mode": describe(),
        "hits": hits,
        "misses": misses,
        "puts": counters.get("rcache.puts", 0),
        "evictions": counters.get("rcache.evictions", 0),
        "corrupt_evictions": counters.get("rcache.corrupt_evictions", 0),
        "io_retries": counters.get("rcache.io_retries", 0),
        "hit_rate": (hits / looked) if looked else None,
        "entries": entries,
        "bytes": bytes_used,
        "max_bytes": _max_bytes,
    }


def apply_config(config: Tuple[Optional[str], int, bool]) -> None:
    """Adopt a parent process's :func:`current_config` in a worker.

    A memory-only parent yields memory-only workers (each with its own
    store); the on-disk cache is genuinely shared through the
    filesystem.
    """
    global _resolved, _dir, _max_bytes, _memory_only
    _resolved = True
    _dir, _max_bytes, _memory_only = config


# ----------------------------------------------------------------------
# Keys and digests
# ----------------------------------------------------------------------


def task_digest(task) -> str:
    """Stable hex digest of a task definition (memoized on the task).

    Composed from the per-vertex and per-edge content digests of
    :mod:`repro.drt.digest` *in insertion order* — the order steers
    exploration tie-breaking, so two definitions that differ only in
    ordering address different cache entries (their results may report
    different, equally valid, critical tuples).

    The memo is guarded against in-place task mutation: if the
    definition changed since the digest was recorded, the task's entire
    analysis cache is dropped (every memo in it is stale) and the
    digest recomputed, so a mutated task can never be served another
    definition's cached results.

    :class:`repro.mp.model.DAGTask` instances (immutable by
    construction) carry their own memoized ``digest()`` and are
    dispatched to it, so multiprocessor requests share this keying
    path.
    """
    own_digest = getattr(task, "digest", None)
    if callable(own_digest):
        return own_digest()
    from repro.drt.digest import composed_task_digest, guard_cache

    cache = guard_cache(task)
    memo = cache.get("content_digest")
    if memo is None:
        memo = composed_task_digest(task)
        cache["content_digest"] = memo
    return memo


def analysis_key(kind: str, parts: Iterable[str]) -> str:
    """Content address for one analysis: SHA-256 over the library
    version, the analysis kind, and the input digests/parameters."""
    from repro import __version__  # deferred: repro imports this module

    h = hashlib.sha256()
    h.update(f"{__version__}|{kind}".encode())
    for part in parts:
        h.update(b"|")
        h.update(str(part).encode("utf-8"))
    return h.hexdigest()


def get_analysis(kind: str, tasks, beta, extra: Sequence = ()) -> object:
    """Cached result of *kind* for (*tasks*, *beta*, *extra*), or None.

    *tasks* may be a single task or an ordered sequence (task sets are
    order-sensitive: SP priorities, EDF reporting order).
    """
    if not is_enabled():
        return None
    return get(_analysis_key(kind, tasks, beta, extra))


def put_analysis(kind: str, tasks, beta, value, extra: Sequence = ()) -> None:
    """Store *value* as the result of *kind* for (*tasks*, *beta*, *extra*)."""
    if not is_enabled():
        return
    put(_analysis_key(kind, tasks, beta, extra), value)


def _analysis_key(kind: str, tasks, beta, extra: Sequence) -> str:
    if not isinstance(tasks, (list, tuple)):
        tasks = (tasks,)
    parts = [task_digest(t) for t in tasks]
    parts.append(beta.digest())
    parts.extend(str(x) for x in extra)
    return analysis_key(kind, parts)


# ----------------------------------------------------------------------
# Store
# ----------------------------------------------------------------------


def _path_for(key: str) -> str:
    return os.path.join(_dir, key[:2], key + ".pkl")


_MISSING = object()


def _read_blob(path: str):
    """Read an entry's bytes with bounded retries on transient I/O.

    Returns :data:`_MISSING` when the entry does not exist or stays
    unreadable after :data:`IO_RETRIES` attempts (EPERM on a hardened
    mount, EIO, ...) — an I/O problem is a *miss*, never an eviction:
    only provably corrupt data justifies deleting an entry.
    """
    for attempt in range(IO_RETRIES):
        try:
            if chaos.should_fire("cache.eperm.read"):
                raise PermissionError(
                    errno.EPERM, "chaos: injected read EPERM", path
                )
            with open(path, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return _MISSING
        except OSError:
            if attempt + 1 < IO_RETRIES:
                perf.record("rcache.io_retries")
                time.sleep(IO_BACKOFF * (2**attempt))
    return _MISSING


def get(key: str) -> object:
    """The cached value under *key*, or None (miss / unreadable entry).

    A hit refreshes the entry's recency (LRU: the file's access time on
    disk, its position in the in-memory store) and counts as
    ``rcache.hits``.  Transient read errors are retried with backoff
    (``rcache.io_retries``) and then treated as misses; truncated or
    corrupt entries are *evicted* and treated as misses — the cache must
    never turn a crash mid-write into a wrong answer, and atomic replace
    already makes that unlikely.
    """
    _ensure_resolved()
    if _memory_only:
        blob = _memory.get(key)
        if blob is None:
            perf.record("rcache.misses")
            return None
        _memory.move_to_end(key)
        perf.record("rcache.hits")
        return pickle.loads(blob)
    if _dir is None:
        return None
    path = _path_for(key)
    blob = _read_blob(path)
    if blob is _MISSING:
        perf.record("rcache.misses")
        return None
    try:
        value = pickle.loads(blob)
    except Exception:
        # Truncated/corrupt entries raise all over pickle's surface
        # (UnpicklingError, EOFError, ValueError, ImportError, ...);
        # whatever the shape, remove the entry and treat it as a miss.
        try:
            os.unlink(path)
        except OSError:
            pass
        perf.record("rcache.corrupt_evictions")
        perf.record("rcache.misses")
        return None
    try:
        os.utime(path)
    except OSError:
        pass
    perf.record("rcache.hits")
    return value


def _write_blob(path: str, blob: bytes) -> bool:
    """Atomically write an entry with bounded retries on transient I/O."""
    for attempt in range(IO_RETRIES):
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if chaos.should_fire("cache.enospc"):
                raise OSError(
                    errno.ENOSPC, "chaos: injected disk full", path
                )
            if chaos.should_fire("cache.eperm.write"):
                raise PermissionError(
                    errno.EPERM, "chaos: injected write EPERM", path
                )
            data = blob
            # Injected *silent* storage faults: the write "succeeds" but
            # the entry is damaged.  get() must evict and recompute.
            if chaos.should_fire("cache.truncate"):
                data = blob[: len(blob) // 2]
            elif chaos.should_fire("cache.corrupt") and blob:
                data = blob[:-1] + bytes([blob[-1] ^ 0xFF])
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(path), prefix=".tmp-"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            return True
        except OSError:
            if attempt + 1 < IO_RETRIES:
                perf.record("rcache.io_retries")
                time.sleep(IO_BACKOFF * (2**attempt))
    return False


def put(key: str, value: object) -> None:
    """Store *value* under *key* (atomic write, then LRU enforcement).

    Transient storage failures are retried with backoff
    (``rcache.io_retries``); persistent ones degrade silently to a
    no-op: the cache is an accelerator, never a correctness dependency.
    """
    _ensure_resolved()
    try:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return  # unpicklable results simply aren't cached
    _store(key, blob)


def _store(key: str, blob: bytes, placement: Optional[str] = None) -> bool:
    """Install *blob* under *key* in the active store; True when stored.

    The in-memory fallback evicts its least-recently-used entry (and
    that entry's placement) past :data:`_MEMORY_CAP`; the disk store
    writes atomically and then enforces its byte cap.
    """
    if _memory_only:
        _memory[key] = blob
        _memory.move_to_end(key)
        while len(_memory) > _MEMORY_CAP:
            evicted, _ = _memory.popitem(last=False)
            _placement_memory.pop(evicted, None)
    elif _dir is None or not _write_blob(_path_for(key), blob):
        return False
    _record_placement(key, placement)
    perf.record("rcache.puts")
    _enforce_cap()
    return True


# ----------------------------------------------------------------------
# Raw entry transport (cluster cache migration)
# ----------------------------------------------------------------------
#
# A planned cluster resize moves warm entries between workers instead of
# cold-starting the fleet (:mod:`repro.parallel.transport`).  These
# helpers expose the store at the *blob* level: keys, raw pickled bytes,
# and a content digest over the bytes, so a transfer can be verified
# end-to-end without unpickling untrusted data mid-flight.


def blob_digest(blob: bytes) -> str:
    """SHA-256 hex digest of a raw entry blob (transfer verification)."""
    return hashlib.sha256(blob).hexdigest()


@contextlib.contextmanager
def placement_scope(tag: Optional[str]):
    """Tag every entry written inside the scope with routing key *tag*.

    The service worker wraps request execution in this scope so each
    cache entry records *which request* produced it; a cluster resize
    then re-homes entries by placing that routing key on the new ring —
    the exact consistent-hash movement delta, not a guess from the
    entry's own (unrelated) key.
    """
    token = _placement_var.set(tag)
    try:
        yield
    finally:
        _placement_var.reset(token)


def _record_placement(key: str, tag: Optional[str] = None) -> None:
    tag = _placement_var.get() if tag is None else tag
    if tag is None:
        return
    if _placement_memory.get(key) == tag:
        return
    _placement_memory[key] = tag
    _placement_memory.move_to_end(key)
    if _dir is None:
        return
    while len(_placement_memory) > _MEMORY_CAP:
        _placement_memory.popitem(last=False)
    line = json.dumps({"k": key, "p": tag}) + "\n"
    try:
        with open(
            os.path.join(_dir, _PLACEMENT_FILE), "a", encoding="utf-8"
        ) as fh:
            fh.write(line)
    except OSError:
        pass  # the journal is an accelerator for resizes, never required


def placements() -> "dict[str, str]":
    """The full placement journal, entry key -> routing key.

    Merges the on-disk journal (shared with plane subprocesses) with
    this process's in-memory mirror; torn or stale lines are skipped.
    Keys evicted from the store may linger here — consumers intersect
    with :func:`list_keys`.
    """
    _ensure_resolved()
    out: "dict[str, str]" = {}
    if _dir is not None:
        try:
            with open(
                os.path.join(_dir, _PLACEMENT_FILE), "r", encoding="utf-8"
            ) as fh:
                for line in fh:
                    try:
                        doc = json.loads(line)
                        out[str(doc["k"])] = str(doc["p"])
                    except (ValueError, KeyError, TypeError):
                        continue
        except OSError:
            pass
    out.update(_placement_memory)
    return out


def placement_of(key: str) -> Optional[str]:
    """The recorded routing key of one entry, or None."""
    hit = _placement_memory.get(key)
    if hit is not None:
        return hit
    if _dir is None:
        return None
    return placements().get(key)


def list_keys() -> "list[tuple[str, int]]":
    """All resident entry keys with their blob sizes, ``(key, bytes)``.

    Disk-backed caches scan the directory; the in-memory fallback lists
    its store.  Scan errors yield a partial (possibly empty) listing —
    migration treats an unlistable source as having nothing to offer.
    """
    _ensure_resolved()
    if _memory_only:
        return [(k, len(b)) for k, b in _memory.items()]
    if _dir is None:
        return []
    out = []
    try:
        for sub in os.scandir(_dir):
            if not sub.is_dir():
                continue
            for ent in os.scandir(sub.path):
                if ent.name.endswith(".pkl"):
                    try:
                        out.append((ent.name[: -len(".pkl")], ent.stat().st_size))
                    except OSError:
                        continue
    except OSError:
        pass
    return out


def read_entry(key: str) -> Optional[bytes]:
    """The raw pickled blob stored under *key*, or None.

    Unlike :func:`get` this neither unpickles nor refreshes access time:
    the bytes are destined for the wire, and a migration read must not
    perturb the source's LRU order.
    """
    _ensure_resolved()
    if _memory_only:
        return _memory.get(key)
    if _dir is None:
        return None
    blob = _read_blob(_path_for(key))
    return None if blob is _MISSING else blob


def write_entry(
    key: str, blob: bytes, placement: Optional[str] = None
) -> bool:
    """Install a raw blob under *key*; True when it was persisted.

    The blob must unpickle — a torn transfer that slipped past digest
    verification is rejected here rather than poisoning the store.
    A *placement* tag carried over from the source worker keeps the
    entry re-homeable across future resizes.
    """
    _ensure_resolved()
    try:
        pickle.loads(blob)
    except Exception:
        return False
    return _store(key, blob, placement)


def _enforce_cap() -> None:
    """Evict least-recently-used entries until the directory fits the cap."""
    if _dir is None or _max_bytes <= 0:
        return
    entries = []
    total = 0
    try:
        for sub in os.scandir(_dir):
            if not sub.is_dir():
                continue
            for ent in os.scandir(sub.path):
                if not ent.name.endswith(".pkl"):
                    continue
                st = ent.stat()
                entries.append((st.st_mtime, st.st_size, ent.path))
                total += st.st_size
    except OSError:
        return
    if total <= _max_bytes:
        return
    entries.sort()  # oldest access first
    for _, size, path in entries:
        try:
            os.unlink(path)
        except OSError:
            continue
        perf.record("rcache.evictions")
        total -= size
        if total <= _max_bytes:
            break
