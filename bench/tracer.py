"""Spans recorded around the benchmark's calls into ``corona_packing``.

A span is ``(name, start, end, parent, instance)``: ``parent`` is the index
of the enclosing span (-1 for none) and ``instance`` the index of the
instance being checked (-1 during set-up).  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Calls ``fn(*args)`` for a named layer operation, timing it when on.

    With ``enabled`` false the call goes straight through, so an untraced
    run pays one extra Python call per operation and records nothing.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._parent = -1
        self._instance = -1

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(
                [name, start, perf_counter(), self._parent, self._instance]
            )

    def open(self, name: str, instance: int) -> int:
        """Start an enclosing span; returns the token ``close`` takes."""
        if not self.enabled:
            return -1
        self.spans.append([name, perf_counter(), None, self._parent, instance])
        self._parent = len(self.spans) - 1
        self._instance = instance
        return self._parent

    def close(self, token: int) -> None:
        if token < 0:
            return
        span = self.spans[token]
        span[2] = perf_counter()
        self._parent = span[3]
        self._instance = self.spans[self._parent][4] if self._parent >= 0 else -1

    def totals(self, first: int = 0) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, busy seconds, self seconds), from span
        index ``first`` on.  Self time is busy time minus direct children."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child[parent] += end - start
        count: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans[first:], first):
            count[name] += 1
            busy[name] += end - start
            own[name] += end - start - child[idx]
        return {name: (count[name], busy[name], own[name]) for name in count}

    def dump(self, path, labels: list[str]) -> None:
        """Write the spans, with instance labels, as gzipped JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "instance"],
            "instances": labels,
            "spans": [
                [name, round(s - t0, 9), round(e - t0, 9), parent, inst]
                for name, s, e, parent, inst in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
