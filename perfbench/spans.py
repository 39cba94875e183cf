"""In-memory spans for the traced run.

A span records a name, its start and end (``perf_counter`` seconds),
the span that caused it and the op it belongs to.  Spans stay in memory
while the run measures and are written as JSON lines when it ends; the
self time of a span is its duration minus what its children cover.
Spans nest per thread, so the two client threads of the service
workloads keep separate parent chains.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent: Optional[dict] = stack[-1] if stack else None
        rec = {
            "id": next(self._ids),
            "parent": parent["id"] if parent else None,
            "op": attrs.pop("op", parent["op"] if parent else None),
            "name": name,
            "start": time.perf_counter(),
        }
        rec.update(attrs)
        stack.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def self_times_ms(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self milliseconds."""
        child_time: Dict[int, float] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] = child_time.get(rec["parent"], 0.0) + rec["end"] - rec["start"]
        out: Dict[str, Dict[str, float]] = {}
        for rec in self.spans:
            row = out.setdefault(rec["name"], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            duration = rec["end"] - rec["start"]
            row["count"] += 1
            row["total_ms"] += 1000.0 * duration
            row["self_ms"] += 1000.0 * (duration - child_time.get(rec["id"], 0.0))
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(rec, default=str) + "\n")
