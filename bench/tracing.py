"""In-memory spans recorded around the harness's calls into the package.

A span is one timed interval with a name, a parent and the root span of the
op it belongs to.  Names are ``<layer>.<function>`` for calls into a
package module and ``op.<workload>`` for the root span of one op, so the
layer of a span is the text before its first dot.  Spans stay in memory and
are written out once, when the run ends.

Self time is a span's duration minus the time its direct children cover.
The harness is single-threaded, so children never overlap and that is the
sum of their durations.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end")

    def __init__(self, sid: int, parent: int | None, root: int, name: str, start: float):
        self.id = sid
        self.parent = parent
        self.root = root
        self.name = name
        self.start = start
        self.end = start

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "root": self.root,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """Records every span opened through it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        rec = Span(
            sid,
            None if parent is None else parent.id,
            sid if parent is None else parent.root,
            name,
            time.perf_counter() - self._t0,
        )
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter() - self._t0
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> dict[int, float]:
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.seconds
        return {s.id: s.seconds - child_time[s.id] for s in self.spans}

    def summary(self) -> dict:
        """Per span name and per layer: count, total and self time (ms)."""
        own = self.self_times()
        by_name: dict[str, dict] = {}
        by_layer: dict[str, float] = defaultdict(float)
        for s in self.spans:
            row = by_name.setdefault(s.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += 1e3 * s.seconds
            row["self_ms"] += 1e3 * own[s.id]
            by_layer[s.name.split(".", 1)[0]] += 1e3 * own[s.id]
        return {"by_name": by_name, "self_ms_by_layer": dict(by_layer)}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": [s.as_dict() for s in self.spans], "summary": self.summary()},
                fh,
            )


class NullTracer:
    """Tracing off: calls go straight through and nothing is recorded."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
