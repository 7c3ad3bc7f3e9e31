"""In-memory spans recorded around the benchmark's calls into overpart's layers.

A span has a name, a start and an end (``perf_counter`` seconds), the span
that caused it (``parent``) and the root span of its setup step, timed
iteration or kernel probe (``trace``).  Spans are kept in memory and written
as JSON lines when the run ends, so writing them costs nothing inside a timed
region.  Layer metrics are derived from the spans of each root: a layer's time
in one root is the summed duration of its spans there, and a metric is the
median over the roots that contain the layer.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List


class Tracer:
    """Records the spans of calls made from one thread (the benchmark's)."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._ids = itertools.count(1)
        self._open: List[Dict] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the ``with`` body as a child of the innermost open span."""
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        record = {"id": span_id,
                  "parent": parent["id"] if parent else None,
                  "trace": parent["trace"] if parent else span_id,
                  "name": name}
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(record)

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class NullTracer:
    """Same interface as :class:`Tracer`, records nothing (untraced runs)."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def duration(span: Dict) -> float:
    return span["end"] - span["start"]


def roots(spans: Iterable[Dict], name: str) -> List[Dict]:
    return [s for s in spans if s["parent"] is None and s["name"] == name]


def layer_seconds(spans: List[Dict], names: Iterable[str]) -> float:
    """Median over roots that contain any span named in ``names`` of the
    summed duration of those spans in the root; 0.0 when no root does."""
    wanted = set(names)
    per_root: Dict[int, float] = {}
    for span in spans:
        if span["name"] in wanted:
            per_root[span["trace"]] = per_root.get(span["trace"], 0.0) + duration(span)
    return statistics.median(per_root.values()) if per_root else 0.0


def coverage(spans: List[Dict], root: Dict) -> float:
    """Share of a root's duration covered by its direct children."""
    children = [s for s in spans if s["parent"] == root["id"]]
    return sum(duration(s) for s in children) / duration(root)
