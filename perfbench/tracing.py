"""In-memory spans for the traced run.

A span records name, job, parent, start, end, busy time and call count.
A plain span covers one call (busy = end - start).  A summed span stands
for many short calls inside one loop, such as one per output mapping, and
its busy time is the sum of their durations.  A span's self time is its
busy time minus the busy time of its direct children, so the self times
of one job add up to the job span's duration.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "busy", "calls")

    def __init__(self, name: str, job: int, parent: Optional[int], start: float,
                 end: float = 0.0, busy: float = 0.0, calls: int = 1):
        self.name = name
        self.job = job
        self.parent = parent
        self.start = start
        self.end = end
        self.busy = busy
        self.calls = calls

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class _Open:
    __slots__ = ("tracer",)

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        tracer._begin(name)

    def __enter__(self) -> "_Open":
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._finish()


class Tracer:
    """Collects spans; a span opened with no span open starts a new job."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.roots: Dict[int, Span] = {}
        self._open: List[int] = []
        self._job = -1

    def span(self, name: str) -> _Open:
        return _Open(self, name)

    def _begin(self, name: str) -> None:
        if not self._open:
            self._job += 1
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        span = Span(name, self._job, parent, self.clock())
        self.spans.append(span)
        if parent is None:
            self.roots[self._job] = span

    def _finish(self) -> None:
        span = self.spans[self._open.pop()]
        span.end = self.clock()
        span.busy = span.end - span.start

    def add(self, name: str, start: float, end: float, busy: float, calls: int) -> None:
        """A summed span under the innermost open span."""
        self.spans.append(Span(name, self._job, self._open[-1], start, end, busy, calls))

    def last_job(self) -> int:
        return self._job

    def self_times(self) -> List[float]:
        own = [s.busy for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.busy
        return own

    def layer_self_by_job(self) -> Dict[int, Dict[str, float]]:
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            out[span.job][span.layer] += own
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{slot: getattr(s, slot) for slot in Span.__slots__} for s in self.spans],
                      handle)
