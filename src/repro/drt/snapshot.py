"""Crash-safe checkpointing of frontier-exploration state.

A long structural analysis is one resumable loop: the
:class:`~repro.drt.request.FrontierExplorer` pops tuples best-first and
its instance state (heap, per-vertex Pareto frontiers, deferred
successors, event logs) is, at every pop boundary, exactly the state a
fresh run would have reached.  This module serializes that state —
frontier + sorted-prefix cache + the active budget meter's remaining
allowance — **through the content-addressed result cache**, so a worker
that dies mid-``analyze_many`` leaves a checkpoint behind that the
failover owner (sharing the cache directory, or receiving the entry via
cache migration) restores and *resumes* instead of recomputing, with
bounds bit-identical to an uninterrupted run: exploration is
deterministic, and the snapshot preserves the tie-break counter and
every event log.

Checkpointing is **off by default** (zero cost beyond one falsy test
per pop).  Enable it with ``REPRO_CHECKPOINT_STRIDE=<pops>`` or
:func:`set_checkpoint_stride`; every *stride* expansions the explorer
snapshots itself under a key derived from its task digest (plus the
library version, like every cache entry).  The payload holds the
explorer's scaled ints (times in units of ``1/S``, works in units of
``1/W``) plus the two scales, and Fractions only for the explored and
sorted horizons.  Snapshots write atomically via
:func:`repro.parallel.cache.put` — a torn write is evicted on load and
the resume degrades to a cold start, never a wrong answer.
"""

from __future__ import annotations

import os
from copy import copy
from typing import Dict, Optional

from repro.resilience.budget import active_meter

__all__ = [
    "checkpoint_stride",
    "set_checkpoint_stride",
    "checkpoint_key",
    "snapshot_explorer",
    "restore_explorer",
    "save_checkpoint",
    "load_checkpoint",
    "load_checkpoint_payload",
    "resume_budget",
]

#: Snapshot payload schema version (bump to orphan old checkpoints).
SNAPSHOT_VERSION = 2

_stride: Optional[int] = None  # None = unresolved from the environment


def checkpoint_stride() -> int:
    """Expansions between snapshots; 0 disables checkpointing."""
    global _stride
    if _stride is None:
        raw = os.environ.get("REPRO_CHECKPOINT_STRIDE", "0")
        try:
            _stride = max(0, int(raw))
        except ValueError:
            _stride = 0
    return _stride


def set_checkpoint_stride(stride: Optional[int]) -> None:
    """Override the stride for this process (None re-reads the env)."""
    global _stride
    _stride = None if stride is None else max(0, int(stride))


def checkpoint_key(task) -> str:
    """The cache key a task's exploration checkpoint lives under."""
    from repro.parallel import cache as result_cache

    return result_cache.analysis_key(
        "frontier_ckpt", [result_cache.task_digest(task)]
    )


#: Explorer fields a snapshot carries verbatim: every piece of
#: exploration state except the task, the successor lists (rebuilt from
#: the task and the scales), the frontiers (copied per vertex) and the
#: converted ``RequestTuple`` prefix (rebuilt lazily on the next query).
_FIELDS = (
    "prune", "_S", "_W", "_heap", "_deferred", "_tiebreak", "_explored",
    "_all", "_pop_times", "_popdom_times", "_evict_times", "_evict_counts",
    "_pushprune_times", "_pushprune_sorted", "_new_kept_since_query",
    "_sorted_hz", "_sorted", "_fork_cone", "_fork_carried_hz",
    "_fork_carried",
)


def snapshot_explorer(ex) -> Dict[str, object]:
    """A picklable deep snapshot of one explorer's exploration state.

    Safe to take mid-``extend_to`` (the natural checkpoint boundary is
    between pops): the heap and deferred lists carry the in-flight
    extension, and ``_explored`` still names the last *completed*
    horizon, so a restored explorer re-enters ``extend_to`` exactly
    where the original stood.
    """
    from repro.parallel import cache as result_cache

    meter = active_meter()
    state = {name: copy(getattr(ex, name)) for name in _FIELDS}
    state.update(
        version=SNAPSHOT_VERSION,
        task_digest=result_cache.task_digest(ex.task),
        frontiers={
            v: (list(f.times), list(f.works))
            for v, f in ex._frontiers.items()
        },
        meter=None
        if meter is None
        else {
            "remaining_expansions": meter.remaining_expansions(),
            "remaining_seconds": meter.remaining_seconds(),
            "max_segments": meter.max_segments(),
        },
    )
    return state


def restore_explorer(task, state: Dict[str, object]):
    """Rebuild a :class:`FrontierExplorer` for *task* from a snapshot.

    Raises:
        ValueError: when the snapshot does not match *task*'s content
            digest or its schema version — stale checkpoints are a
            mismatch, never a silent wrong resume.
    """
    from repro.drt.request import FrontierExplorer
    from repro.parallel import cache as result_cache

    if state.get("version") != SNAPSHOT_VERSION:
        raise ValueError("checkpoint schema version mismatch")
    if state.get("task_digest") != result_cache.task_digest(task):
        raise ValueError("checkpoint belongs to a different task definition")
    ex = FrontierExplorer.__new__(FrontierExplorer)
    ex._reset(task, state["prune"], state["_S"], state["_W"])
    for name in _FIELDS:
        setattr(ex, name, copy(state[name]))
    for v, (times, works) in state["frontiers"].items():
        ex._frontiers[v].times = list(times)
        ex._frontiers[v].works = list(works)
    return ex


def save_checkpoint(ex) -> None:
    """Persist *ex*'s snapshot through the content-addressed cache.

    A no-op when the cache is disabled.  Write failures degrade to a
    no-op inside :func:`repro.parallel.cache.put` — checkpoints are an
    accelerator for recovery, never a correctness dependency.
    """
    from repro import perf
    from repro.parallel import cache as result_cache

    if not result_cache.is_enabled():
        return
    result_cache.put(checkpoint_key(ex.task), snapshot_explorer(ex))
    perf.record("frontier.checkpoints_saved")


def load_checkpoint_payload(task) -> Optional[Dict[str, object]]:
    """The task's raw checkpoint payload, or None."""
    from repro.parallel import cache as result_cache

    if not result_cache.is_enabled():
        return None
    payload = result_cache.get(checkpoint_key(task))
    return payload if isinstance(payload, dict) else None


def load_checkpoint(task):
    """The task's checkpointed explorer, or None.

    Stale or mismatched checkpoints (different task content, older
    schema) are treated as absent.
    """
    from repro import perf

    payload = load_checkpoint_payload(task)
    if payload is None:
        return None
    try:
        ex = restore_explorer(task, payload)
    except (ValueError, KeyError, TypeError):
        return None
    perf.record("frontier.checkpoints_restored")
    return ex


def resume_budget(payload: Dict[str, object]):
    """A :class:`~repro.resilience.budget.Budget` honouring the
    checkpointed meter's *remaining* allowance, or None.

    A resumed analysis must not be granted the original budget afresh —
    work done before the crash already consumed part of it.
    """
    from repro.resilience.budget import Budget

    meter = payload.get("meter")
    if not isinstance(meter, dict):
        return None
    remaining = meter.get("remaining_expansions")
    seconds = meter.get("remaining_seconds")
    if remaining is None and seconds is None:
        return None
    return Budget(
        deadline=None if seconds is None else max(float(seconds), 1e-6),
        max_expansions=remaining,
        max_segments=meter.get("max_segments"),
    )
