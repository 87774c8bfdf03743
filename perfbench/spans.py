"""In-memory spans for the traced benchmark run, and the arithmetic on them.

A span is one timed call into a layer: ``name``, ``start``/``end`` from
``time.perf_counter``, the index of the span that caused it (``parent``) and
the request or fit it belongs to (``request_id``).  Spans stay in memory
while the run measures and are written out once, after it.

A span's *self time* is its duration minus the part of its interval that its
children cover.  *Coverage* of a root span is the share of its duration that
its children cover, i.e. ``1 - self / duration``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    request_id: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from one thread; nested ``span`` blocks become children."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str,
             request_id: Optional[str] = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent].request_id
        index = len(self.spans)
        span = Span(name, time.perf_counter(), parent=parent,
                    request_id=request_id)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def add(self, span: Span) -> None:
        """Record a span timed elsewhere (e.g. on a load-generator thread)."""
        self.spans.append(span)

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request_id": span.request_id, **span.attrs,
                }) + "\n")


def _covered(interval: Tuple[float, float],
             children: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``children`` clipped to ``interval``."""
    low, high = interval
    clipped = sorted((max(start, low), min(end, high))
                     for start, end in children if end > low and start < high)
    total = 0.0
    cursor = low
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span, in the order given."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.duration - _covered((span.start, span.end),
                                     children.get(index, ()))
            for index, span in enumerate(spans)]


def layer_self_times(spans: Sequence[Span], root: int) -> Dict[str, float]:
    """Summed self time per span name over the tree under ``root`` (inclusive)."""
    selves = self_times(spans)
    inside = {root}
    totals: Dict[str, float] = {}
    for index, span in enumerate(spans):
        if index == root or span.parent in inside:
            inside.add(index)
            totals[span.name] = totals.get(span.name, 0.0) + selves[index]
    return totals


def coverage(spans: Sequence[Span], root: int) -> float:
    """Share of the root span's duration covered by its children."""
    span = spans[root]
    own = self_times(spans)[root]
    return 1.0 - own / span.duration if span.duration > 0 else 0.0
