"""One bounded memo for every process-wide cache.

Each memo caches a pure function of immutable inputs (the structural
bound is a pure function of the task and the service curve), so an
eviction only costs a recomputation and one rule fits all: :class:`LRU`.
A named memo counts ``<name>_hits``/``_misses``/``_evictions`` in
:mod:`repro.perf`; :func:`clear_process_memos` empties every memo that
:func:`process_memo` built (job isolation in :mod:`repro.parallel`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, List, Optional

from repro import perf

__all__ = ["LRU", "process_memo", "clear_process_memos"]


class LRU:
    """A map of at most ``cap`` entries (a plain attribute, so tests may
    shrink it) that evicts the least recently used first.  Threads share
    one without a lock (one held across the plane's fork would hang the
    child): each value is a pure function of its key, so a race costs at
    most a recomputation, and the steps that can find a key gone catch
    that."""

    __slots__ = ("cap", "name", "_data", "_counters")

    def __init__(self, cap: int, name: Optional[str] = None):
        self.cap = cap
        self.name = name
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._counters = name and tuple(
            f"{name}_{what}" for what in ("hits", "misses", "evictions")
        )

    def get(self, key: Hashable) -> Any:
        """The value under *key*, now the most recent, or None (memos
        store no None values)."""
        value = self._data.get(key)
        if value is not None:
            try:
                self._data.move_to_end(key)
            except KeyError:  # evicted by another thread meanwhile
                pass
        if self._counters:
            perf.record(self._counters[0 if value is not None else 1])
        return value

    def peek(self, key: Hashable) -> Any:
        """Like :meth:`get`, but leaves recency and counters alone."""
        return self._data.get(key)

    def put(self, key: Hashable, value: Any) -> List[Hashable]:
        """Store *value* as the most recent entry; returns the keys the
        cap evicted, oldest first."""
        data = self._data
        data.pop(key, None)
        data[key] = value
        evicted = []
        try:
            while len(data) > self.cap:
                evicted.append(data.popitem(last=False)[0])
        except KeyError:  # emptied by another thread meanwhile
            pass
        if evicted and self._counters:
            perf.record(self._counters[2], len(evicted))
        return evicted

    def pop(self, key: Hashable) -> Any:
        return self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()

    def items(self):
        """A view of the ``(key, value)`` pairs, least recent first."""
        return self._data.items()

    def __len__(self) -> int:
        return len(self._data)


_registry: List[LRU] = []


def process_memo(name: str, cap: int) -> LRU:
    """A named :class:`LRU` that :func:`clear_process_memos` empties."""
    memo = LRU(cap, name)
    _registry.append(memo)
    return memo


def clear_process_memos() -> None:
    """Empty every memo built by :func:`process_memo`."""
    for memo in _registry:
        memo.clear()
