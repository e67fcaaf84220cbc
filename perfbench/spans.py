"""In-memory span recording around calls into the program's public
functions, and the per-layer self-time arithmetic.

A span is ``[name, start_ns, end_ns, parent_index]``.  Spans come
from one thread and nest, so a span's self time is its duration
minus the durations of its direct children, and the self times of
all spans add up to the duration of the root spans.  Spans stay in
memory and are written out once, as a Chrome trace, at the end.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

_clock = time.perf_counter_ns


class Spans:
    def __init__(self):
        self.t0 = _clock()
        self.spans: List[list] = []
        self.stack: List[int] = []
        #: span name -> Chrome trace category
        self.cats: Dict[str, str] = {}

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        record = [name, _clock(), 0, parent]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        return record

    def end(self, record: list) -> None:
        record[2] = _clock()
        self.stack.pop()

    @contextmanager
    def span(self, name: str, cat: str = "pipeline"):
        self.cats.setdefault(name, cat)
        record = self.begin(name)
        try:
            yield record
        finally:
            self.end(record)

    def wrap(self, owner, attr: str, name: str, cat: str = "serve") -> None:
        """Replace ``owner.attr`` with a wrapper recording a span named
        ``name`` around each call."""
        fn = getattr(owner, attr)
        is_static = isinstance(inspect.getattr_static(owner, attr),
                               staticmethod)
        self.cats.setdefault(name, cat)
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            record = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(record)

        setattr(owner, attr, staticmethod(wrapper) if is_static
                else wrapper)

    def self_ns(self, start: Optional[int] = None,
                end: Optional[int] = None) -> Dict[str, int]:
        """Self time per span name in nanoseconds, counting only the
        part of each span inside [start, end] when given (clipping keeps
        the nesting, so the totals still add up to the clipped
        roots)."""
        lo = self.t0 if start is None else start
        hi = _clock() if end is None else end
        clip = [max(0, min(e, hi) - max(s, lo))
                for _n, s, e, _p in self.spans]
        child = [0] * len(self.spans)
        for i, record in enumerate(self.spans):
            if record[3] >= 0:
                child[record[3]] += clip[i]
        totals: Dict[str, int] = {}
        for i, record in enumerate(self.spans):
            totals[record[0]] = totals.get(record[0], 0) \
                + clip[i] - child[i]
        return totals

    def chrome_events(self, pid: int, process: str) -> List[dict]:
        events = [{"name": "process_name", "ph": "M", "pid": pid,
                   "tid": 1, "args": {"name": process}}]
        t0 = self.t0
        spans = self.spans
        for name, start, end, parent in spans:
            events.append({
                "name": name, "cat": self.cats[name], "ph": "X",
                "ts": (start - t0) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": pid, "tid": 1,
                "args": {"parent": spans[parent][0] if parent >= 0
                         else ""}})
        return events


def write_chrome(path: str, events: List[dict]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  handle)
