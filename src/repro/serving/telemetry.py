"""Serving telemetry: metrics registry, request tracing, flight recorder.

The runtime could not *see itself*: the only instrumentation was scattered
``diagnostics()`` dicts and client-side percentiles in the loadtest harness.
This module is the measurement substrate everything else plugs into --
stdlib-only and cheap enough to stay on for every request:

* :class:`MetricsRegistry` -- thread-safe counters, gauges, and fixed-bucket
  latency histograms with exact p50/p95/p99 readout (a bounded reservoir of
  raw observations backs the percentiles, so they interpolate exactly like
  the loadtest's client-side percentiles -- both use :func:`percentile` --
  instead of quantizing to bucket edges).  One process-global default registry
  (:func:`default_registry`) serves the common case; tests inject private
  instances.  Snapshots render as JSON (``GET /v1/metrics``) and as
  Prometheus text exposition (``?format=prometheus``).
* **Request tracing** -- :func:`new_request_id` mints the ``X-Request-Id``
  every request entering the proxy or a replica gets (or propagates), and
  :func:`format_timing_header` renders per-stage spans (queue wait, batch
  assembly, engine compute, shot noise, serialization) into the opt-in
  ``X-Timing`` response header.
* :class:`FlightRecorder` -- a bounded in-memory ring plus optional JSONL
  sink of structured fleet events (state transitions, ejects, restarts,
  drains, crash-loop trips) with monotonic timestamps and request-id
  correlation; the supervisor dumps it via ``quorum-repro fleet --events``
  and on abnormal exit.
* **Metric-name lint** -- :func:`lint_metric_name` enforces the naming
  convention (snake_case, unit suffix per kind); the registry applies it at
  creation time and ``python -m repro.serving.telemetry --lint`` checks the
  well-known catalog in CI.

Every metric the serving stack registers is declared in
:data:`WELL_KNOWN_METRICS` so operators (and the lint) have one catalog to
read.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
import uuid
from collections import deque
from typing import (Callable, Deque, Dict, IO, List, Mapping, Optional,
                    Sequence, Tuple, Union)

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "FlightRecorder",
    "default_registry",
    "new_request_id",
    "format_timing_header",
    "parse_timing_header",
    "percentile",
    "lint_metric_name",
    "lint_metric_names",
    "DEFAULT_LATENCY_BUCKETS_S",
    "WELL_KNOWN_METRICS",
]

#: Fixed histogram bucket upper bounds (seconds) for request/stage latencies:
#: half a millisecond up to ten seconds, roughly logarithmic -- the range the
#: serving benchmarks actually occupy.
DEFAULT_LATENCY_BUCKETS_S = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: How many raw observations a histogram retains for exact percentile
#: readout (a sliding window; the bucket counts remain unbounded).
DEFAULT_RESERVOIR_SIZE = 2048

#: Sanitized request-id charset; anything else is replaced when a client
#: supplies its own id (header smuggling hygiene).
_REQUEST_ID_RE = re.compile(r"[^A-Za-z0-9._-]")

#: Upper bound on an accepted client-supplied request id.
MAX_REQUEST_ID_LEN = 128

# ----------------------------------------------------------- naming convention
#: snake_case: lowercase alphanumerics + underscores, starting with a letter.
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Required name suffix per metric kind: counters count events (``_total``);
#: histograms and gauges carry their unit in the name so dashboards never
#: have to guess.
KIND_SUFFIXES: Dict[str, Tuple[str, ...]] = {
    "counter": ("_total",),
    "histogram": ("_seconds", "_bytes"),
    "gauge": ("_seconds", "_bytes", "_count", "_ratio"),
}


def lint_metric_name(name: str, kind: str) -> List[str]:
    """Problems with a metric name under the naming convention (empty = ok)."""
    problems: List[str] = []
    if kind not in KIND_SUFFIXES:
        return [f"unknown metric kind {kind!r}; expected one of "
                f"{sorted(KIND_SUFFIXES)}"]
    if not _METRIC_NAME_RE.match(name):
        problems.append(
            f"{name!r} is not snake_case (^[a-z][a-z0-9_]*$)")
    suffixes = KIND_SUFFIXES[kind]
    if not name.endswith(suffixes):
        problems.append(
            f"{name!r} ({kind}) must end with a unit suffix: "
            f"{', '.join(suffixes)}")
    if "__" in name:
        problems.append(f"{name!r} contains a double underscore")
    return problems


def lint_metric_names(names: Sequence[Tuple[str, str]]) -> List[str]:
    """Lint ``[(name, kind), ...]``; returns every problem found."""
    problems: List[str] = []
    for name, kind in names:
        problems.extend(lint_metric_name(name, kind))
    return problems


# ------------------------------------------------------------------ percentile
def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending-sorted sequence.

    Histograms, the proxy and the loadtest harness all read percentiles
    here, so server-side histogram percentiles and client-side loadtest
    percentiles are directly comparable.
    """
    if not sorted_values:
        raise ValueError("cannot take a percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    position = (len(sorted_values) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return (sorted_values[lower] * (1.0 - fraction)
            + sorted_values[upper] * fraction)


# ------------------------------------------------------------------ primitives
_Labels = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> _Labels:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic event counter, optionally partitioned by label values."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "",
                 lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.help_text = help_text
        self._lock = lock or threading.Lock()
        self._values: Dict[_Labels, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def snapshot(self) -> List[Dict[str, object]]:
        with self._lock:
            items = sorted(self._values.items())
        return [{"labels": dict(labels), "value": value}
                for labels, value in items]


class Gauge:
    """A value that can go up and down (queue depth, in-flight requests)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "",
                 lock: Optional[threading.Lock] = None) -> None:
        self.name = name
        self.help_text = help_text
        self._lock = lock or threading.Lock()
        self._values: Dict[_Labels, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def snapshot(self) -> List[Dict[str, object]]:
        with self._lock:
            items = sorted(self._values.items())
        return [{"labels": dict(labels), "value": value}
                for labels, value in items]


class Histogram:
    """Fixed-bucket histogram with exact percentile readout.

    The cumulative bucket counts (plus ``sum`` and ``count``) are the
    Prometheus-compatible face; a bounded reservoir of the most recent raw
    observations backs ``percentiles()``, so p50/p95/p99 are exact over the
    window rather than quantized to bucket edges.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
                 reservoir_size: int = DEFAULT_RESERVOIR_SIZE,
                 lock: Optional[threading.Lock] = None) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be ascending, non-empty")
        self.name = name
        self.help_text = help_text
        self.buckets: Tuple[float, ...] = tuple(float(b) for b in buckets)
        self._lock = lock or threading.Lock()
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._reservoir: Deque[float] = deque(maxlen=int(reservoir_size))

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            index = len(self.buckets)
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    index = position
                    break
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1
            self._reservoir.append(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def percentiles(self, qs: Sequence[float] = (50.0, 95.0, 99.0)
                    ) -> Dict[str, Optional[float]]:
        """``{"p50": ..., ...}`` over the retained reservoir (None if empty)."""
        with self._lock:
            ordered = sorted(self._reservoir)
        return {f"p{q:g}": (percentile(ordered, q) if ordered else None)
                for q in qs}

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            counts = list(self._bucket_counts)
            total_sum, total_count = self._sum, self._count
            ordered = sorted(self._reservoir)
        cumulative: Dict[str, int] = {}
        running = 0
        for bound, bucket_count in zip(self.buckets, counts):
            running += bucket_count
            cumulative[f"{bound:g}"] = running
        cumulative["+Inf"] = running + counts[-1]
        payload: Dict[str, object] = {
            "count": total_count,
            "sum": round(total_sum, 9),
            "buckets": cumulative,
        }
        for q in (50.0, 95.0, 99.0):
            payload[f"p{q:g}"] = (round(percentile(ordered, q), 9)
                                  if ordered else None)
        return payload


# -------------------------------------------------------------------- registry
class MetricsRegistry:
    """Thread-safe named metrics with JSON and Prometheus rendering.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent for a
    matching kind; a kind clash raises) and validate names against the
    naming convention, so a typo fails at registration, not on a dashboard.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Union[Counter, Gauge, Histogram]] = {}

    def _get_or_create(self, name: str, kind: str, factory):
        problems = lint_metric_name(name, kind)
        if problems:
            raise ValueError("; ".join(problems))
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}")
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get_or_create(
            name, "counter", lambda: Counter(name, help_text))

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get_or_create(
            name, "gauge", lambda: Gauge(name, help_text))

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S
                  ) -> Histogram:
        return self._get_or_create(
            name, "histogram", lambda: Histogram(name, help_text, buckets))

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # ------------------------------------------------------------- rendering
    def snapshot(self) -> Dict[str, object]:
        """JSON-ready snapshot: ``{counters, gauges, histograms}``."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        payload: Dict[str, Dict[str, object]] = {
            "counters": {}, "gauges": {}, "histograms": {}}
        for name, metric in metrics:
            payload[metric.kind + "s"][name] = metric.snapshot()
        return payload

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            metrics = sorted(self._metrics.items())
        lines: List[str] = []
        for name, metric in metrics:
            if metric.help_text:
                lines.append(f"# HELP {name} {metric.help_text}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, (Counter, Gauge)):
                series = metric.snapshot()
                if not series:
                    lines.append(f"{name} 0")
                for entry in series:
                    lines.append(
                        f"{name}{_format_labels(entry['labels'])} "
                        f"{_format_value(entry['value'])}")
            else:
                snap = metric.snapshot()
                for bound, cumulative in snap["buckets"].items():
                    lines.append(
                        f'{name}_bucket{{le="{bound}"}} {cumulative}')
                lines.append(f"{name}_sum {_format_value(snap['sum'])}")
                lines.append(f"{name}_count {snap['count']}")
        return "\n".join(lines) + "\n"


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(value)}"'
        for key, value in sorted(labels.items()))
    return "{" + body + "}"


def _escape_label(value: object) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _format_value(value: float) -> str:
    return f"{int(value)}" if float(value).is_integer() else repr(float(value))


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry (every replica process is one process)."""
    return _DEFAULT_REGISTRY


# --------------------------------------------------------------------- tracing
def new_request_id() -> str:
    """A fresh request id (uuid4 hex): what ``X-Request-Id`` carries."""
    return uuid.uuid4().hex


def clean_request_id(raw: Optional[str]) -> str:
    """A client-supplied id sanitized (or a fresh one when absent/empty)."""
    if not raw:
        return new_request_id()
    cleaned = _REQUEST_ID_RE.sub("", raw.strip())[:MAX_REQUEST_ID_LEN]
    return cleaned or new_request_id()


def format_timing_header(timings_s: Mapping[str, float]) -> str:
    """``stage=ms;...`` rendering of per-stage spans for ``X-Timing``.

    Values arrive in seconds (what ``time.perf_counter`` deltas are) and are
    rendered in milliseconds with microsecond resolution.
    """
    return ";".join(f"{stage}={seconds * 1e3:.3f}"
                    for stage, seconds in timings_s.items())


def parse_timing_header(header: str) -> Dict[str, float]:
    """Inverse of :func:`format_timing_header` -> ``{stage: seconds}``."""
    timings: Dict[str, float] = {}
    for part in header.split(";"):
        stage, separator, value = part.partition("=")
        if separator:
            try:
                timings[stage.strip()] = float(value) / 1e3
            except ValueError:
                continue
    return timings


# ------------------------------------------------------------- flight recorder
#: Every key a flight-recorder event always carries (the JSONL schema).
EVENT_FIELDS = ("seq", "t_mono_s", "t_wall_s", "kind")


class FlightRecorder:
    """Bounded ring + optional JSONL sink of structured fleet events.

    Each event carries a process-monotonic timestamp (``t_mono_s``, for
    ordering and intervals), a wall-clock one (``t_wall_s``, for humans), a
    monotonically increasing ``seq``, a ``kind``, and arbitrary extra fields
    -- including ``request_id`` where a request is implicated, so fleet
    events correlate with traced requests.

    The ring keeps the most recent ``capacity`` events in memory (what
    :meth:`events` and the abnormal-exit dump read); the optional sink
    appends every event as one JSON line the moment it is recorded, so a
    crash loses nothing that was sunk.
    """

    def __init__(self, capacity: int = 1024,
                 sink: Union[str, IO[str], None] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._lock = threading.Lock()
        self._ring: Deque[Dict[str, object]] = deque(maxlen=int(capacity))
        self._seq = 0
        self._clock = clock
        self._sink: Optional[IO[str]] = None
        self._owns_sink = False
        if isinstance(sink, str):
            self._sink = open(sink, "a", encoding="utf-8")  # noqa: SIM115
            self._owns_sink = True
        elif sink is not None:
            self._sink = sink

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def record(self, kind: str, request_id: Optional[str] = None,
               **fields: object) -> Dict[str, object]:
        """Append one event; returns it (already sealed with seq + stamps)."""
        with self._lock:
            self._seq += 1
            event: Dict[str, object] = {
                "seq": self._seq,
                "t_mono_s": round(self._clock(), 6),
                "t_wall_s": round(time.time(), 6),
                "kind": str(kind),
            }
            if request_id is not None:
                event["request_id"] = request_id
            event.update(fields)
            self._ring.append(event)
            sink = self._sink
            if sink is not None:
                try:
                    sink.write(json.dumps(event, sort_keys=True) + "\n")
                    sink.flush()
                except (OSError, ValueError):
                    self._sink = None  # a broken sink must not kill the fleet
        return event

    def events(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """The retained events, oldest first (optionally only the last N)."""
        with self._lock:
            events = list(self._ring)
        if limit is not None:
            events = events[-int(limit):]
        return [dict(event) for event in events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(self, stream: IO[str], limit: Optional[int] = None) -> int:
        """Write retained events as JSONL to ``stream``; returns the count."""
        events = self.events(limit)
        for event in events:
            stream.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)

    def close(self) -> None:
        with self._lock:
            if self._sink is not None and self._owns_sink:
                try:
                    self._sink.close()
                except OSError:
                    pass
            self._sink = None


# ------------------------------------------------------------ metric catalog
#: Every metric the serving stack registers, as ``(name, kind)`` -- the
#: operator-facing catalog, and what ``--lint`` checks in CI.
WELL_KNOWN_METRICS: Tuple[Tuple[str, str], ...] = (
    # HTTP layer (server.py)
    ("http_requests_total", "counter"),
    ("http_errors_total", "counter"),
    ("http_request_seconds", "histogram"),
    ("http_serialization_seconds", "histogram"),
    ("http_inflight_count", "gauge"),
    # Micro-batch scoring (scorer.py)
    ("scoring_requests_total", "counter"),
    ("scoring_samples_total", "counter"),
    ("scoring_batches_total", "counter"),
    ("scoring_queue_wait_seconds", "histogram"),
    ("scoring_batch_assembly_seconds", "histogram"),
    ("scoring_engine_seconds", "histogram"),
    ("scoring_shot_noise_seconds", "histogram"),
    # Async jobs (jobs.py)
    ("jobs_finished_total", "counter"),
    ("jobs_live_count", "gauge"),
    ("job_queue_wait_seconds", "histogram"),
    ("job_run_seconds", "histogram"),
    # Sessions (server scrape)
    ("sessions_live_count", "gauge"),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.serving.telemetry --lint``: check the catalog."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv != ["--lint"]:
        print("usage: python -m repro.serving.telemetry --lint",
              file=sys.stderr)
        return 2
    problems = lint_metric_names(WELL_KNOWN_METRICS)
    for problem in problems:
        print(f"metric-name lint: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"metric-name lint: {len(WELL_KNOWN_METRICS)} metric names OK")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI lint step
    sys.exit(main())
