"""Telemetry: metrics core, tracing headers, flight recorder, HTTP surface."""

import io
import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.core.detector import QuorumDetector
from repro.serving.artifact import save_model
from repro.serving.jobs import JobManager
from repro.serving.models import JobSubmitRequest
from repro.serving.proxy import RoundRobinProxy
from repro.serving.registry import ModelRegistry
from repro.serving.server import build_server
from repro.serving.telemetry import (
    DEFAULT_LATENCY_BUCKETS_S,
    WELL_KNOWN_METRICS,
    FlightRecorder,
    Histogram,
    MetricsRegistry,
    clean_request_id,
    format_timing_header,
    lint_metric_name,
    lint_metric_names,
    main as telemetry_main,
    new_request_id,
    parse_timing_header,
    percentile,
)

GOLDEN = Path(__file__).parent / "data" / "prometheus_golden.txt"


# ------------------------------------------------------------ naming lint
class TestMetricNameLint:
    def test_well_formed_names_pass(self):
        assert lint_metric_name("http_requests_total", "counter") == []
        assert lint_metric_name("scoring_engine_seconds", "histogram") == []
        assert lint_metric_name("jobs_live_count", "gauge") == []

    def test_snake_case_is_enforced(self):
        assert lint_metric_name("HttpRequests_total", "counter")
        assert lint_metric_name("http-requests_total", "counter")
        assert lint_metric_name("1http_total", "counter")

    def test_unit_suffix_is_enforced_per_kind(self):
        assert lint_metric_name("http_requests", "counter")
        assert lint_metric_name("engine_latency", "histogram")
        assert lint_metric_name("inflight", "gauge")
        # A counter suffix does not satisfy a histogram and vice versa.
        assert lint_metric_name("engine_total", "histogram")
        assert lint_metric_name("requests_seconds", "counter")

    def test_double_underscore_rejected(self):
        assert lint_metric_name("http__requests_total", "counter")

    def test_unknown_kind_rejected(self):
        assert lint_metric_name("x_total", "summary")

    def test_well_known_catalog_is_clean(self):
        assert lint_metric_names(WELL_KNOWN_METRICS) == []

    def test_cli_lint_entry_point(self, capsys):
        assert telemetry_main(["--lint"]) == 0
        assert "OK" in capsys.readouterr().out
        assert telemetry_main(["--nope"]) == 2

    def test_registry_rejects_bad_names_at_creation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("BadName")
        with pytest.raises(ValueError):
            registry.histogram("missing_suffix")


# ---------------------------------------------------------------- registry
class TestMetricsRegistry:
    def test_counter_labels_and_totals(self):
        registry = MetricsRegistry()
        counter = registry.counter("demo_requests_total")
        counter.inc(route="/a", status="200")
        counter.inc(2.0, route="/a", status="200")
        counter.inc(route="/b", status="503")
        assert counter.value(route="/a", status="200") == 3.0
        assert counter.total() == 4.0
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_get_or_create_is_idempotent_but_kind_clash_raises(self):
        registry = MetricsRegistry()
        first = registry.counter("demo_requests_total")
        assert registry.counter("demo_requests_total") is first
        with pytest.raises(ValueError):
            registry.gauge("demo_requests_total")

    def test_gauge_set_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("demo_queue_count")
        gauge.set(5)
        gauge.add(-2)
        assert gauge.value() == 3.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("demo_requests_total").inc()
        registry.histogram("demo_wait_seconds").observe(0.01)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["demo_requests_total"] == [
            {"labels": {}, "value": 1.0}]
        assert snapshot["histograms"]["demo_wait_seconds"]["count"] == 1


class TestHistogram:
    def test_bucket_counts_are_cumulative(self):
        histogram = Histogram("demo_wait_seconds", buckets=(0.25, 0.5, 1.0))
        for value in (0.25, 0.5, 2.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["buckets"] == {"0.25": 1, "0.5": 2, "1": 2, "+Inf": 3}
        assert snapshot["count"] == 3
        assert snapshot["sum"] == 2.75

    def test_buckets_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("demo_wait_seconds", buckets=(1.0, 0.5))
        with pytest.raises(ValueError):
            Histogram("demo_wait_seconds", buckets=())

    def test_percentiles_match_loadtest_percentile_exactly(self):
        """Server-side histogram percentiles interpolate exactly like
        :func:`percentile`, the function the loadtest's client-side
        percentiles use."""
        rng = np.random.default_rng(7)
        values = rng.exponential(scale=0.02, size=311).tolist()
        histogram = Histogram("demo_wait_seconds",
                              buckets=DEFAULT_LATENCY_BUCKETS_S)
        for value in values:
            histogram.observe(value)
        ordered = sorted(values)
        reported = histogram.percentiles((50.0, 95.0, 99.0))
        for q in (50.0, 95.0, 99.0):
            assert reported[f"p{q:g}"] == percentile(ordered, q)

    def test_reservoir_is_bounded(self):
        histogram = Histogram("demo_wait_seconds", reservoir_size=8)
        for value in range(100):
            histogram.observe(float(value))
        # Percentiles come from the last 8 observations only...
        assert histogram.percentiles((50.0,))["p50"] == pytest.approx(95.5)
        # ...but the Prometheus-facing count covers everything.
        assert histogram.count == 100

    def test_empty_percentiles_are_none(self):
        histogram = Histogram("demo_wait_seconds")
        assert histogram.percentiles((50.0,)) == {"p50": None}


class TestPrometheusExposition:
    def test_golden_file(self):
        registry = MetricsRegistry()
        registry.counter("demo_errors_total", "Errors by code")
        requests = registry.counter("demo_requests_total",
                                    "Requests by route and status")
        requests.inc(3, route="/v1/x", status="200")
        requests.inc(route="/v1/x", status="503")
        registry.gauge("demo_queue_count", "Queue depth").set(2)
        waits = registry.histogram("demo_wait_seconds", "Waits",
                                   buckets=(0.25, 0.5, 1.0))
        for value in (0.25, 0.5, 2.0):
            waits.observe(value)
        assert registry.render_prometheus() == GOLDEN.read_text()

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("demo_requests_total").inc(code='say "hi"\n')
        rendered = registry.render_prometheus()
        assert r'code="say \"hi\"\n"' in rendered


# ----------------------------------------------------------------- tracing
class TestTracingHelpers:
    def test_new_request_ids_are_unique_and_clean(self):
        first, second = new_request_id(), new_request_id()
        assert first != second
        assert clean_request_id(first) == first

    def test_clean_request_id_sanitizes_and_bounds(self):
        assert clean_request_id("abc-123.X_y") == "abc-123.X_y"
        assert clean_request_id("evil\r\nheader: x") == "evilheaderx"
        assert len(clean_request_id("a" * 500)) == 128
        # Absent or fully-invalid ids get a fresh one.
        assert clean_request_id(None)
        assert clean_request_id("\r\n")

    def test_timing_header_round_trip(self):
        timings = {"queue_wait": 0.0012, "engine_compute": 0.034,
                   "total": 0.0361}
        header = format_timing_header(timings)
        assert header == "queue_wait=1.200;engine_compute=34.000;total=36.100"
        parsed = parse_timing_header(header)
        for stage, seconds in timings.items():
            assert parsed[stage] == pytest.approx(seconds, abs=5e-7)

    def test_parse_timing_header_skips_garbage(self):
        assert parse_timing_header("a=1.0;junk;b=oops;c=2.0") == {
            "a": 0.001, "c": 0.002}


# ---------------------------------------------------------- flight recorder
class TestFlightRecorder:
    def test_ring_is_bounded_and_seq_monotonic(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", index=index)
        events = recorder.events()
        assert len(recorder) == 4
        assert [event["index"] for event in events] == [6, 7, 8, 9]
        assert [event["seq"] for event in events] == [7, 8, 9, 10]
        assert recorder.events(limit=2)[0]["index"] == 8

    def test_event_schema(self):
        recorder = FlightRecorder(capacity=4)
        event = recorder.record("transition", request_id="abc", slot=0,
                                to_state="ejected")
        assert {"seq", "t_mono_s", "t_wall_s", "kind"} <= set(event)
        assert event["kind"] == "transition"
        assert event["request_id"] == "abc"
        assert event["slot"] == 0

    def test_jsonl_sink_writes_every_event(self, tmp_path):
        sink = tmp_path / "events.jsonl"
        recorder = FlightRecorder(capacity=2, sink=str(sink))
        for index in range(5):
            recorder.record("tick", index=index)
        recorder.close()
        lines = sink.read_text().splitlines()
        # The sink outlives the ring: all 5 events, valid JSON each.
        assert len(lines) == 5
        parsed = [json.loads(line) for line in lines]
        assert [event["index"] for event in parsed] == list(range(5))
        for event in parsed:
            assert {"seq", "t_mono_s", "t_wall_s", "kind"} <= set(event)

    def test_broken_sink_does_not_raise(self):
        sink = io.StringIO()
        sink.close()
        recorder = FlightRecorder(capacity=2, sink=sink)
        recorder.record("tick")  # must not propagate the sink's ValueError
        assert len(recorder) == 1

    def test_dump(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("a")
        recorder.record("b")
        stream = io.StringIO()
        assert recorder.dump(stream) == 2
        kinds = [json.loads(line)["kind"]
                 for line in stream.getvalue().splitlines()]
        assert kinds == ["a", "b"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# -------------------------------------------------------------- job timing
class TestJobDurations:
    def test_queued_and_run_times_with_fake_clock(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(16, 4))
        detector = QuorumDetector(ensemble_groups=2, seed=3, shots=512)
        detector.fit(data)
        path = save_model(detector, tmp_path / "m.json")

        clock = {"now": 100.0}
        metrics = MetricsRegistry()
        with ModelRegistry() as registry:
            registry.load(path, model_id="m")
            # workers=0 is not allowed; serialize by submitting a no-op
            # through submit_fn with a manual gate instead.
            gate = threading.Event()
            with JobManager(registry, workers=1,
                            clock=lambda: clock["now"],
                            metrics=metrics) as manager:
                blocker = manager.submit_fn(
                    "score", lambda cancel: {"waited": gate.wait(30)})
                clock["now"] = 103.0  # the next job sits queued 3s
                job = manager.submit(JobSubmitRequest(
                    kind="score", model_id="m",
                    params={"samples": data[:2].tolist()}))
                clock["now"] = 110.0
                gate.set()
                deadline = 200
                import time as _time
                while manager.get(job.job_id).status not in (
                        "succeeded", "failed", "cancelled") and deadline:
                    _time.sleep(0.01)
                    deadline -= 1
                done = manager.get(job.job_id)
                assert done.status == "succeeded"
                # Queued from t=103 until the worker freed up at t=110.
                assert done.queued_s == pytest.approx(7.0)
                assert done.run_s == pytest.approx(0.0)
                info = done.info().to_json()
                assert info["queued_s"] == pytest.approx(7.0)
                assert info["run_s"] == pytest.approx(0.0)
                blocked = manager.get(blocker.job_id)
                assert blocked.run_s is not None
        finished = metrics.counter("jobs_finished_total")
        assert finished.value(status="succeeded") == 2.0
        queue_hist = metrics.histogram("job_queue_wait_seconds")
        assert queue_hist.count == 2


# ------------------------------------------------------------ HTTP surface
@pytest.fixture(scope="module")
def telemetry_server(tmp_path_factory):
    rng = np.random.default_rng(11)
    data = rng.normal(size=(24, 4))
    detector = QuorumDetector(ensemble_groups=2, seed=5, shots=512)
    detector.fit(data)
    path = save_model(detector,
                      tmp_path_factory.mktemp("telemetry") / "m.json")
    metrics = MetricsRegistry()
    server = build_server(path, port=0, metrics=metrics)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield {"base": f"http://{host}:{port}", "data": data,
           "metrics": metrics, "server": server,
           "default_id": server.runtime.registry.default_id()}
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _request(url, payload=None, headers=None, method=None):
    body = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=body, method=method,
                                     headers=dict(headers or {}))
    if body is not None:
        request.add_header("Content-Type", "application/json")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, response.read(), response.headers


class TestMetricsRoute:
    def test_json_snapshot_counts_requests(self, telemetry_server):
        base = telemetry_server["base"]
        _request(base + "/v1/healthz")
        status, body, headers = _request(base + "/v1/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        snapshot = json.loads(body)
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        requests_series = snapshot["counters"]["http_requests_total"]
        routes = {tuple(sorted(entry["labels"].items()))
                  for entry in requests_series}
        assert any(("route", "/v1/healthz") in key for key in routes)
        assert snapshot["histograms"]["http_request_seconds"]["count"] > 0

    def test_prometheus_exposition_via_query_and_accept(self,
                                                        telemetry_server):
        base = telemetry_server["base"]
        _request(base + "/v1/healthz")
        status, body, headers = _request(
            base + "/v1/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "# TYPE http_requests_total counter" in text
        assert "http_request_seconds_bucket{le=" in text
        assert "http_request_seconds_sum" in text
        status, body, _ = _request(base + "/v1/metrics",
                                   headers={"Accept": "text/plain"})
        assert body.decode().startswith("# ")

    def test_error_counter_by_code(self, telemetry_server):
        base = telemetry_server["base"]
        errors = telemetry_server["metrics"].counter("http_errors_total")
        before = errors.value(code="not_found")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _request(base + "/no/such/path")
        assert excinfo.value.code == 404
        assert errors.value(code="not_found") == before + 1

    def test_scoring_stage_histograms_populate(self, telemetry_server):
        base = telemetry_server["base"]
        model_id = telemetry_server["default_id"]
        samples = telemetry_server["data"][:3].tolist()
        _request(f"{base}/v1/models/{model_id}/score", {"samples": samples})
        metrics = telemetry_server["metrics"]
        assert metrics.histogram("scoring_queue_wait_seconds").count > 0
        assert metrics.histogram("scoring_engine_seconds").count > 0
        assert metrics.histogram("scoring_shot_noise_seconds").count > 0
        assert metrics.counter("scoring_requests_total").total() > 0
        assert metrics.counter("scoring_samples_total").total() >= 3


class TestRequestTracing:
    def test_request_id_is_minted_and_echoed(self, telemetry_server):
        _, _, headers = _request(telemetry_server["base"] + "/v1/healthz")
        assert headers["X-Request-Id"]

    def test_client_request_id_is_propagated(self, telemetry_server):
        _, _, headers = _request(telemetry_server["base"] + "/v1/healthz",
                                 headers={"X-Request-Id": "trace-me-42"})
        assert headers["X-Request-Id"] == "trace-me-42"

    def test_hostile_request_id_is_sanitized(self, telemetry_server):
        _, _, headers = _request(telemetry_server["base"] + "/v1/healthz",
                                 headers={"X-Request-Id": "a b<script>"})
        assert headers["X-Request-Id"] == "abscript"

    def test_x_timing_is_opt_in(self, telemetry_server):
        base = telemetry_server["base"]
        _, _, plain = _request(base + "/v1/healthz")
        assert plain.get("X-Timing") is None
        _, _, timed = _request(base + "/v1/healthz",
                               headers={"X-Timing": "1"})
        parsed = parse_timing_header(timed["X-Timing"])
        assert {"serialization", "total"} <= set(parsed)
        assert parsed["total"] >= parsed["serialization"]

    def test_score_timing_carries_stage_spans(self, telemetry_server):
        base = telemetry_server["base"]
        model_id = telemetry_server["default_id"]
        samples = telemetry_server["data"][:2].tolist()
        _, _, headers = _request(f"{base}/v1/models/{model_id}/score",
                                 {"samples": samples},
                                 headers={"X-Timing": "1"})
        parsed = parse_timing_header(headers["X-Timing"])
        assert {"queue_wait", "engine_compute", "shot_noise",
                "serialization", "total"} <= set(parsed)


class TestProxyPropagation:
    @pytest.fixture()
    def proxied(self, telemetry_server):
        host, port = telemetry_server["server"].server_address[:2]
        with RoundRobinProxy([(host, port)]) as proxy:
            yield {"proxy": proxy, "base": proxy.base_url,
                   "backend": f"{host}:{port}"}

    def test_proxy_mints_request_id_end_to_end(self, proxied):
        _, _, headers = _request(proxied["base"] + "/v1/healthz")
        # The replica echoes the id the proxy injected.
        assert headers["X-Request-Id"]

    def test_client_id_survives_proxy_and_replica(self, proxied,
                                                  telemetry_server):
        _, _, headers = _request(proxied["base"] + "/v1/healthz",
                                 headers={"X-Request-Id": "e2e-77"})
        assert headers["X-Request-Id"] == "e2e-77"

    def test_proxy_timing_header_injection(self, proxied):
        _, _, headers = _request(proxied["base"] + "/v1/healthz",
                                 headers={"X-Timing": "1"})
        assert "proxy" in parse_timing_header(headers["X-Proxy-Timing"])
        # The backend's own X-Timing passes through untouched.
        assert "total" in parse_timing_header(headers["X-Timing"])

    def test_backend_stats_report_rps_and_percentiles(self, proxied):
        for _ in range(5):
            _request(proxied["base"] + "/v1/healthz")
        stats = proxied["proxy"].backend_stats(window_s=60.0)
        entry = stats[proxied["backend"]]
        assert entry["requests"] >= 5
        assert entry["errors"] == 0
        assert entry["rps"] > 0
        assert entry["p50_ms"] is not None
        assert entry["p95_ms"] >= entry["p50_ms"]


class TestDrainBehavior:
    def test_metrics_stay_scrapeable_during_drain(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(16, 4))
        detector = QuorumDetector(ensemble_groups=2, seed=9, shots=512)
        detector.fit(data)
        path = save_model(detector, tmp_path / "m.json")
        metrics = MetricsRegistry()
        server = build_server(path, port=0, metrics=metrics)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            _request(base + "/v1/healthz")
            server.runtime.drain()
            # Scoring (and everything else) answers 503 shutting_down...
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _request(base + "/v1/healthz")
            assert excinfo.value.code == 503
            envelope = json.loads(excinfo.value.read())
            assert envelope["error"]["code"] == "shutting_down"
            assert excinfo.value.headers["Retry-After"]
            # ...but the metrics scrape still answers 200.
            status, body, _ = _request(base + "/v1/metrics")
            assert status == 200
            snapshot = json.loads(body)
            assert snapshot["counters"]["http_requests_total"]
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
