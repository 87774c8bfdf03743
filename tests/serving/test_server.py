"""HTTP-service tests driven through a real socket with stdlib clients only."""

import contextlib
import http.client
import io
import json
import socket
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.detector import QuorumDetector
from repro.serving.artifact import save_model
from repro.serving.server import MAX_BODY_BYTES, build_server


@pytest.fixture(scope="module")
def served_model(tmp_path_factory):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(30, 5))
    detector = QuorumDetector(ensemble_groups=3, seed=19, shots=512)
    detector.fit(data)
    path = save_model(detector, tmp_path_factory.mktemp("model") / "m.json")
    server = build_server(path, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield {"base": f"http://{host}:{port}", "data": data, "path": str(path),
           "detector": detector,
           "default_id": server.runtime.registry.default_id()}
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read()), response.headers


def _post(url, payload, raw=None):
    body = raw if raw is not None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, json.loads(response.read()), response.headers


def _delete(url):
    request = urllib.request.Request(url, method="DELETE")
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read()), response.headers


def _error_of(call):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        call()
    return (excinfo.value.code, json.loads(excinfo.value.read()),
            excinfo.value.headers)


def _wait_job(base, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, job, _ = _get(f"{base}/v1/jobs/{job_id}")
        if job["status"] in ("succeeded", "failed", "cancelled"):
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


class TestLegacyRoutes:
    """The pre-/v1 aliases stay byte-compatible and carry Deprecation."""

    def test_healthz(self, served_model):
        status, payload, headers = _get(served_model["base"] + "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["schema_version"] == 1
        assert payload["ensemble_groups"] == 3
        assert headers["Deprecation"] == "true"
        assert "successor-version" in headers["Link"]

    def test_model_diagnostics(self, served_model):
        status, payload, headers = _get(served_model["base"] + "/model")
        assert status == 200
        assert payload["model"]["format"] == "quorum-repro/model"
        assert payload["model"]["schema_version"] == 1
        assert {"compiles", "hits", "misses"} <= set(payload["compiler_cache"])
        assert "requests" in payload["serving"]
        assert headers["Deprecation"] == "true"

    def test_score_round_trip(self, served_model):
        data = served_model["data"]
        status, payload, headers = _post(served_model["base"] + "/score",
                                         {"samples": data[:4].tolist()})
        assert status == 200
        assert payload["mode"] == "reference"
        assert payload["num_samples"] == 4
        assert len(payload["scores"]) == 4
        assert payload["num_runs"] == 3 * 2
        assert payload["schema_version"] == 1
        # Byte-compatible: the legacy shape never grew a model_id field.
        assert set(payload) == {"scores", "num_runs", "num_samples", "mode",
                                "schema_version"}
        assert headers["Deprecation"] == "true"

    def test_score_is_deterministic_across_requests(self, served_model):
        base, data = served_model["base"], served_model["data"]
        _, first, _ = _post(base + "/score", {"samples": data[:3].tolist()})
        _, second, _ = _post(base + "/score", {"samples": data[:3].tolist()})
        assert first["scores"] == second["scores"]

    def test_concurrent_posts_match_sequential(self, served_model):
        base, data = served_model["base"], served_model["data"]
        requests = [data[i:i + 2].tolist() for i in range(6)]
        sequential = [_post(base + "/score", {"samples": r})[1]["scores"]
                      for r in requests]
        results = [None] * len(requests)

        def worker(index):
            results[index] = _post(base + "/score",
                                   {"samples": requests[index]})[1]["scores"]

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(requests))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert results == sequential

    def test_replay_mode_over_http(self, served_model):
        base, data = served_model["base"], served_model["data"]
        status, payload, _ = _post(base + "/score",
                                   {"samples": data.tolist(),
                                    "mode": "replay"})
        assert status == 200
        assert payload["mode"] == "replay"

    def test_legacy_score_matches_v1_minus_model_id(self, served_model):
        """Alias parity: /score == /v1/models/{id}/score minus model_id."""
        base, data = served_model["base"], served_model["data"]
        model_id = served_model["default_id"]
        _, legacy, _ = _post(base + "/score", {"samples": data[:3].tolist()})
        _, v1, headers = _post(f"{base}/v1/models/{model_id}/score",
                               {"samples": data[:3].tolist()})
        assert v1.pop("model_id") == model_id
        assert v1 == legacy
        assert "Deprecation" not in headers  # /v1 routes are not deprecated

    def test_cache_counters_grow_across_requests(self, served_model):
        base, data = served_model["base"], served_model["data"]
        _, before, _ = _get(base + "/model")
        _post(base + "/score", {"samples": data[:1].tolist()})
        _post(base + "/score", {"samples": data[:1].tolist()})
        _, after, _ = _get(base + "/model")
        assert after["compiler_cache"]["hits"] > before["compiler_cache"]["hits"]
        assert (after["compiler_cache"]["compiles"]
                == before["compiler_cache"]["compiles"])
        assert after["serving"]["requests"] >= before["serving"]["requests"] + 2


class TestV1Models:
    def test_health(self, served_model):
        status, payload, _ = _get(served_model["base"] + "/v1/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["api_version"] == "v1"
        assert served_model["default_id"] in payload["models"]
        assert payload["default_model"] == served_model["default_id"]
        assert set(payload["jobs"]) == {"queued", "running", "succeeded",
                                        "failed", "cancelled"}

    def test_list_and_get(self, served_model):
        base = served_model["base"]
        status, listing, _ = _get(base + "/v1/models")
        assert status == 200
        ids = [model["model_id"] for model in listing["models"]]
        assert served_model["default_id"] in ids
        default = next(m for m in listing["models"]
                       if m["model_id"] == served_model["default_id"])
        assert default["is_default"] is True
        assert len(default["sha256"]) == 64

        _, detail, _ = _get(f"{base}/v1/models/{served_model['default_id']}")
        assert detail["sha256"] == default["sha256"]
        assert "compiler_cache" in detail and "serving" in detail
        assert "compiles" in detail["compiler_cache"]
        assert {"requests", "batches", "coalesced_requests"} <= set(
            detail["serving"])

    def test_get_by_full_sha(self, served_model):
        base = served_model["base"]
        _, listing, _ = _get(base + "/v1/models")
        sha = listing["models"][0]["sha256"]
        status, detail, _ = _get(f"{base}/v1/models/{sha}")
        assert status == 200
        assert detail["sha256"] == sha

    def test_v1_score(self, served_model):
        base, data = served_model["base"], served_model["data"]
        model_id = served_model["default_id"]
        status, payload, _ = _post(f"{base}/v1/models/{model_id}/score",
                                   {"samples": data[:2].tolist()})
        assert status == 200
        assert payload["model_id"] == model_id
        assert len(payload["scores"]) == 2

    def test_load_score_unload_second_model_shares_cache(self, served_model):
        """Acceptance criterion over HTTP: a second registry entry for the
        same artifact adds hits, not compiles, to the shared cache."""
        base, data = served_model["base"], served_model["data"]
        probe = data[:2].tolist()
        # Warm the cache through the default model with this exact probe.
        _post(f"{base}/v1/models/{served_model['default_id']}/score",
              {"samples": probe})
        _, warm, _ = _get(f"{base}/v1/models/{served_model['default_id']}")

        status, loaded, _ = _post(base + "/v1/models",
                                  {"path": served_model["path"],
                                   "model_id": "twin"})
        assert status == 201
        assert loaded["model_id"] == "twin"
        assert loaded["is_default"] is False

        _post(f"{base}/v1/models/twin/score", {"samples": probe})
        _, after, _ = _get(base + "/v1/models/twin")
        assert (after["compiler_cache"]["compiles"]
                == warm["compiler_cache"]["compiles"])
        assert after["compiler_cache"]["hits"] > warm["compiler_cache"]["hits"]

        status, unloaded, _ = _delete(base + "/v1/models/twin")
        assert status == 200
        code, payload, _ = _error_of(lambda: _get(base + "/v1/models/twin"))
        assert code == 404
        assert payload["error"]["code"] == "model_not_found"

    def test_unknown_model_404s(self, served_model):
        base, data = served_model["base"], served_model["data"]
        code, payload, _ = _error_of(
            lambda: _post(f"{base}/v1/models/ghost/score",
                          {"samples": data[:1].tolist()}))
        assert code == 404
        assert payload["error"]["code"] == "model_not_found"

    def test_load_conflicting_id_is_409(self, served_model, tmp_path):
        base, data = served_model["base"], served_model["data"]
        other = QuorumDetector(ensemble_groups=2, seed=77, shots=256)
        other.fit(data)
        other_path = save_model(other, tmp_path / "other.json")
        code, payload, _ = _error_of(
            lambda: _post(base + "/v1/models",
                          {"path": str(other_path),
                           "model_id": served_model["default_id"]}))
        assert code == 409
        assert payload["error"]["code"] == "model_exists"

    def test_load_bad_bundle_is_400(self, served_model, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, payload, _ = _error_of(
            lambda: _post(served_model["base"] + "/v1/models",
                          {"path": str(bad)}))
        assert code == 400
        assert payload["error"]["code"] == "bad_request"


class TestV1Jobs:
    def test_replay_job_lifecycle_matches_sync_replay(self, served_model):
        base, data = served_model["base"], served_model["data"]
        status, job, _ = _post(base + "/v1/jobs",
                               {"kind": "replay_dataset",
                                "params": {"samples": data.tolist()}})
        assert status == 202
        assert job["status"] in ("queued", "running")

        done = _wait_job(base, job["job_id"])
        assert done["status"] == "succeeded"
        _, result, _ = _get(f"{base}/v1/jobs/{job['job_id']}/result")
        assert result["job_id"] == job["job_id"]
        assert result["kind"] == "replay_dataset"
        scores = np.array(result["result"]["scores"])
        assert np.array_equal(scores,
                              served_model["detector"].anomaly_scores())

    def test_result_while_pending_is_409(self, served_model):
        base, data = served_model["base"], served_model["data"]
        # A fit job is slow enough to catch in flight.
        _, job, _ = _post(base + "/v1/jobs",
                          {"kind": "fit",
                           "params": {"samples": data.tolist(),
                                      "config": {"ensemble_groups": 2,
                                                 "seed": 5, "shots": 128}}})
        try:
            _get(f"{base}/v1/jobs/{job['job_id']}/result")
        except urllib.error.HTTPError as error:
            assert error.code == 409
            assert json.loads(error.read())["error"]["code"] == "job_not_done"
        # else: the job finished before we polled -- fine on a fast machine.
        done = _wait_job(base, job["job_id"])
        assert done["status"] == "succeeded"
        _, result, _ = _get(f"{base}/v1/jobs/{job['job_id']}/result")
        fitted_id = result["result"]["model_id"]
        # The fit job registered a NEW servable model.
        _, scored, _ = _post(f"{base}/v1/models/{fitted_id}/score",
                             {"samples": data[:2].tolist()})
        assert scored["model_id"] == fitted_id
        _delete(f"{base}/v1/models/{fitted_id}")

    def test_cancel_finished_job_is_idempotent(self, served_model):
        base, data = served_model["base"], served_model["data"]
        _, job, _ = _post(base + "/v1/jobs",
                          {"kind": "score",
                           "params": {"samples": data[:1].tolist()}})
        _wait_job(base, job["job_id"])
        status, after, _ = _delete(f"{base}/v1/jobs/{job['job_id']}")
        assert status == 200
        assert after["status"] == "succeeded"

    def test_jobs_listing(self, served_model):
        base, data = served_model["base"], served_model["data"]
        _, job, _ = _post(base + "/v1/jobs",
                          {"kind": "score",
                           "params": {"samples": data[:1].tolist()}})
        _, listing, _ = _get(base + "/v1/jobs")
        assert job["job_id"] in [j["job_id"] for j in listing["jobs"]]

    def test_unknown_job_404s(self, served_model):
        code, payload, _ = _error_of(
            lambda: _get(served_model["base"] + "/v1/jobs/deadbeef"))
        assert code == 404
        assert payload["error"]["code"] == "job_not_found"

    def test_bad_submit_is_400_with_detail(self, served_model):
        code, payload, _ = _error_of(
            lambda: _post(served_model["base"] + "/v1/jobs",
                          {"kind": "replay_dataset", "params": {}}))
        assert code == 400
        assert payload["error"]["code"] == "bad_request"
        assert "samples" in payload["error"]["message"]


class TestV1Sessions:
    def test_dedicated_session_replay_matches_fit(self, served_model):
        base, data = served_model["base"], served_model["data"]
        status, session, _ = _post(base + "/v1/sessions",
                                   {"mode": "dedicated"})
        assert status == 201
        sid = session["session_id"]
        _, scored, _ = _post(f"{base}/v1/sessions/{sid}/score",
                             {"samples": data.tolist(), "mode": "replay"})
        assert np.array_equal(np.array(scored["scores"]),
                              served_model["detector"].anomaly_scores())
        _, info, _ = _get(f"{base}/v1/sessions/{sid}")
        assert info["requests"] == 1
        assert info["mode"] == "dedicated"
        _delete(f"{base}/v1/sessions/{sid}")

    def test_batch_session_round_trip(self, served_model):
        base, data = served_model["base"], served_model["data"]
        _, session, _ = _post(base + "/v1/sessions", {})
        sid = session["session_id"]
        assert session["mode"] == "batch"
        _, scored, _ = _post(f"{base}/v1/sessions/{sid}/score",
                             {"samples": data[:2].tolist()})
        _, direct, _ = _post(base + "/score", {"samples": data[:2].tolist()})
        assert scored["scores"] == direct["scores"]
        _, listing, _ = _get(base + "/v1/sessions")
        assert sid in [s["session_id"] for s in listing["sessions"]]
        status, closed, _ = _delete(f"{base}/v1/sessions/{sid}")
        assert status == 200
        code, payload, _ = _error_of(
            lambda: _get(f"{base}/v1/sessions/{sid}"))
        assert code == 404
        assert payload["error"]["code"] == "session_not_found"

    def test_unknown_session_404s(self, served_model):
        code, payload, _ = _error_of(
            lambda: _get(served_model["base"] + "/v1/sessions/deadbeef"))
        assert code == 404
        assert payload["error"]["code"] == "session_not_found"

    def test_session_for_unknown_model_404s(self, served_model):
        code, payload, _ = _error_of(
            lambda: _post(served_model["base"] + "/v1/sessions",
                          {"model_id": "ghost"}))
        assert code == 404
        assert payload["error"]["code"] == "model_not_found"


class TestErrors:
    def test_unknown_get_path(self, served_model):
        code, payload, _ = _error_of(
            lambda: _get(served_model["base"] + "/nope"))
        assert code == 404
        assert payload["error"]["code"] == "not_found"
        assert "unknown path" in payload["error"]["message"]

    def test_unknown_post_path(self, served_model):
        data = served_model["data"]
        code, payload, _ = _error_of(
            lambda: _post(served_model["base"] + "/detect",
                          {"samples": data[:1].tolist()}))
        assert code == 404
        assert payload["error"]["code"] == "not_found"

    def test_wrong_method_is_405_with_allow(self, served_model):
        """Satellite bugfix: a known path with the wrong method is 405."""
        code, payload, headers = _error_of(
            lambda: _delete(served_model["base"] + "/v1/healthz"))
        assert code == 405
        assert payload["error"]["code"] == "method_not_allowed"
        assert headers["Allow"] == "GET"

    def test_wrong_method_on_legacy_route(self, served_model):
        code, payload, headers = _error_of(
            lambda: _post(served_model["base"] + "/healthz", {}))
        assert code == 405
        assert headers["Allow"] == "GET"
        assert headers["Deprecation"] == "true"

    def test_invalid_json_body(self, served_model):
        code, payload, _ = _error_of(
            lambda: _post(served_model["base"] + "/score", None,
                          raw=b"{not json"))
        assert code == 400
        assert "invalid JSON" in payload["error"]["message"]

    def test_oversized_body_is_413(self, served_model):
        host, port = served_model["base"].removeprefix("http://").split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 413
        assert payload["error"]["code"] == "payload_too_large"

    def test_missing_samples_key(self, served_model):
        code, payload, _ = _error_of(
            lambda: _post(served_model["base"] + "/score", {}))
        assert code == 400
        assert "samples" in payload["error"]["message"]

    def test_unknown_request_field(self, served_model):
        code, payload, _ = _error_of(
            lambda: _post(served_model["base"] + "/score",
                          {"rows": [[1.0]]}))
        assert code == 400
        assert "unknown field" in payload["error"]["message"]

    def test_wrong_feature_width(self, served_model):
        code, payload, _ = _error_of(
            lambda: _post(served_model["base"] + "/score",
                          {"samples": [[1.0, 2.0]]}))
        assert code == 400
        assert "features" in payload["error"]["message"]

    def test_unknown_mode(self, served_model):
        data = served_model["data"]
        code, payload, _ = _error_of(
            lambda: _post(served_model["base"] + "/score",
                          {"samples": data[:1].tolist(),
                           "mode": "transduce"}))
        assert code == 400
        assert "mode" in payload["error"]["message"]

    def test_replay_with_wrong_count(self, served_model):
        data = served_model["data"]
        code, payload, _ = _error_of(
            lambda: _post(served_model["base"] + "/score",
                          {"samples": data[:2].tolist(), "mode": "replay"}))
        assert code == 400
        assert "replay mode requires" in payload["error"]["message"]

    def test_empty_body(self, served_model):
        code, _, _ = _error_of(
            lambda: _post(served_model["base"] + "/score", None, raw=b""))
        assert code == 400


class TestDraining:
    def test_draining_server_answers_503(self, tmp_path):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(12, 3))
        detector = QuorumDetector(ensemble_groups=2, seed=2, shots=128)
        detector.fit(data)
        path = save_model(detector, tmp_path / "m.json")
        server = build_server(path, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            status, _, _ = _get(base + "/v1/healthz")
            assert status == 200
            server.runtime.drain()
            code, payload, _ = _error_of(lambda: _get(base + "/v1/healthz"))
            assert code == 503
            assert payload["error"]["code"] == "shutting_down"
            code, payload, _ = _error_of(
                lambda: _post(base + "/score",
                              {"samples": data[:1].tolist()}))
            assert code == 503
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)

    def test_drain_503_carries_retry_after(self, tmp_path):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(12, 3))
        detector = QuorumDetector(ensemble_groups=2, seed=3, shots=128)
        detector.fit(data)
        path = save_model(detector, tmp_path / "m.json")
        server = build_server(path, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = "http://%s:%d" % server.server_address[:2]
        try:
            server.runtime.drain()
            code, payload, headers = _error_of(
                lambda: _get(base + "/v1/healthz"))
            assert code == 503
            assert payload["error"]["code"] == "shutting_down"
            assert int(headers["Retry-After"]) >= 1
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)


@pytest.fixture()
def debug_server(served_model):
    """A second server over the same artifact with debug hooks enabled."""
    server = build_server(served_model["path"], port=0, debug_hooks=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield {"base": "http://%s:%d" % server.server_address[:2],
           "server": server}
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)


class TestDebugHooks:
    def test_disabled_by_default(self, served_model):
        """Without debug_hooks the route 404s like any unknown path."""
        code, payload, _ = _error_of(
            lambda: _get(served_model["base"] + "/v1/_debug/delay"))
        assert code == 404
        assert payload["error"]["code"] == "not_found"

    def test_delay_hook_slows_and_clears(self, debug_server):
        base = debug_server["base"]
        status, payload, _ = _get(base + "/v1/_debug/delay")
        assert (status, payload) == (200, {"delay_s": 0.0})
        status, payload, _ = _post(base + "/v1/_debug/delay",
                                   {"delay_s": 0.3})
        assert (status, payload) == (200, {"delay_s": 0.3})
        started = time.monotonic()
        status, _, _ = _get(base + "/v1/healthz")
        elapsed = time.monotonic() - started
        assert status == 200
        assert elapsed >= 0.3
        # The hook itself must stay fast so the injector can always clear it.
        started = time.monotonic()
        _post(base + "/v1/_debug/delay", {"delay_s": 0.0})
        assert time.monotonic() - started < 0.3
        started = time.monotonic()
        _get(base + "/v1/healthz")
        assert time.monotonic() - started < 0.3

    def test_delay_validation(self, debug_server):
        base = debug_server["base"]
        for body in ({"delay_s": -1.0}, {"delay_s": 10_000.0},
                     {"delay_s": "slow"}, {"wrong_key": 1.0}):
            code, payload, _ = _error_of(
                lambda: _post(base + "/v1/_debug/delay", body))
            assert code == 400
            assert payload["error"]["code"] == "bad_request"
        status, payload, _ = _get(base + "/v1/_debug/delay")
        assert payload == {"delay_s": 0.0}  # rejected values never stick


class TestInFlightTracking:
    def test_wait_idle_immediate_when_quiet(self, debug_server):
        assert debug_server["server"].runtime.wait_idle(timeout_s=1.0)

    def test_drain_completes_inflight_requests(self, debug_server):
        """The server half of zero-dropped-drain: a request accepted before
        drain() finishes with a real response, and wait_idle blocks until
        it has."""
        base = debug_server["base"]
        runtime = debug_server["server"].runtime
        _post(base + "/v1/_debug/delay", {"delay_s": 0.5})
        outcome = {}

        def slow_request():
            try:
                status, payload, _ = _get(base + "/v1/healthz")
                outcome["status"] = status
            except urllib.error.HTTPError as error:
                outcome["status"] = error.code
            except Exception as error:  # pragma: no cover - the failure mode
                outcome["error"] = repr(error)

        thread = threading.Thread(target=slow_request)
        thread.start()
        time.sleep(0.15)  # the request is now sleeping inside the handler
        assert runtime.inflight >= 1
        runtime.drain()
        assert runtime.wait_idle(timeout_s=10.0)
        thread.join(timeout=10.0)
        assert outcome.get("status") == 200  # completed, not dropped
        # New arrivals after the drain flip are refused.
        code, _, _ = _error_of(lambda: _get(base + "/v1/healthz"))
        assert code == 503


def _host_port(served_model):
    host, port = served_model["base"].removeprefix("http://").rsplit(":", 1)
    return host, int(port)


def _raw_connection(served_model):
    sock = socket.create_connection(_host_port(served_model), timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def _read_response_bytes(sock):
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks.append(chunk)
        blob = b"".join(chunks)
        if b"\r\n\r\n" in blob:
            head, _, rest = blob.partition(b"\r\n\r\n")
            for line in head.decode("latin-1").split("\r\n")[1:]:
                if line.lower().startswith("content-length:"):
                    length = int(line.split(":", 1)[1])
                    if len(rest) >= length:
                        return blob
    return b"".join(chunks)


class TestHTTPRobustness:
    """Regressions for the bugs a load generator hits immediately: short
    reads, truncated bodies, client disconnects, HEAD, and keep-alive."""

    def test_dribbled_body_is_reassembled(self, served_model):
        """A body trickling in across many small sends scores normally."""
        data = served_model["data"]
        body = json.dumps({"samples": data[:2].tolist()}).encode()
        head = (f"POST /score HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        sock = _raw_connection(served_model)
        try:
            sock.sendall(head)
            for start in range(0, len(body), 7):
                sock.sendall(body[start:start + 7])
                time.sleep(0.002)
            response = _read_response_bytes(sock)
        finally:
            sock.close()
        assert b" 200 " in response.split(b"\r\n", 1)[0]
        payload = json.loads(response.partition(b"\r\n\r\n")[2])
        assert len(payload["scores"]) == 2

    def test_truncated_body_is_distinct_400(self, served_model):
        """EOF before Content-Length names the truncation, not 'bad JSON'."""
        body = json.dumps({"samples": [[0.0] * 5] * 4}).encode()
        head = (f"POST /score HTTP/1.1\r\nHost: x\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        sock = _raw_connection(served_model)
        try:
            sock.sendall(head + body[:10])
            sock.shutdown(socket.SHUT_WR)  # EOF with most of the body owed
            response = _read_response_bytes(sock)
        finally:
            sock.close()
        assert b" 400 " in response.split(b"\r\n", 1)[0]
        payload = json.loads(response.partition(b"\r\n\r\n")[2])
        assert payload["error"]["code"] == "bad_request"
        assert "truncated" in payload["error"]["message"]
        assert str(len(body)) in payload["error"]["message"]

    def test_client_disconnect_is_quiet_and_survivable(self, tmp_path):
        """A client resetting mid-request: one log line, no traceback, and
        the server keeps answering."""
        rng = np.random.default_rng(17)
        data = rng.normal(size=(12, 3))
        detector = QuorumDetector(ensemble_groups=2, seed=4, shots=128)
        detector.fit(data)
        path = save_model(detector, tmp_path / "m.json")
        server = build_server(path, port=0, quiet=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        captured = io.StringIO()
        try:
            body = json.dumps({"samples": data[:4].tolist()}).encode()
            request = (f"POST /score HTTP/1.1\r\nHost: x\r\n"
                       f"Content-Type: application/json\r\n"
                       f"Content-Length: {len(body)}\r\n\r\n"
                       ).encode() + body
            with contextlib.redirect_stderr(captured):
                sock = socket.create_connection((host, port), timeout=30)
                sock.sendall(request)
                # RST instead of FIN: the response write hits a dead socket.
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
                deadline = time.monotonic() + 10
                while ("disconnected" not in captured.getvalue()
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
            status, payload, _ = _get(f"http://{host}:{port}/v1/healthz")
        finally:
            server.shutdown()
            server.server_close()
            server.runtime.close()
            thread.join(timeout=10)
        stderr = captured.getvalue()
        assert "Traceback" not in stderr
        assert "disconnected" in stderr
        assert status == 200 and payload["status"] == "ok"

    def test_head_matches_get_across_routes(self, served_model):
        """HEAD == GET minus the body, byte-identical framing headers."""
        host, port = _host_port(served_model)
        for route in ("/v1/healthz", "/healthz", "/v1/models", "/model",
                      "/v1/jobs", "/v1/sessions"):
            get_status, _, get_headers = _get(served_model["base"] + route)
            connection = http.client.HTTPConnection(host, port, timeout=30)
            try:
                connection.request("HEAD", route)
                response = connection.getresponse()
                assert response.status == get_status, route
                assert response.read() == b"", route
                assert (response.headers["Content-Length"]
                        == get_headers["Content-Length"]), route
                assert response.headers["Content-Type"] == "application/json"
            finally:
                connection.close()

    def test_head_errors_suppress_body_too(self, served_model):
        host, port = _host_port(served_model)
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("HEAD", "/nope")
            response = connection.getresponse()
            assert response.status == 404
            assert response.read() == b""
            assert int(response.headers["Content-Length"]) > 0
            # POST-only route: HEAD routes like GET and reports 405.
            connection.request("HEAD", "/score")
            response = connection.getresponse()
            assert response.status == 405
            assert response.headers["Allow"] == "POST"
            assert response.read() == b""
        finally:
            connection.close()

    def test_keepalive_reuses_one_connection(self, served_model):
        """HTTP/1.1 default: several requests ride one TCP connection."""
        host, port = _host_port(served_model)
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            assert response.version == 11
            assert not response.will_close
            response.read()
            first_socket = connection.sock
            data = served_model["data"]
            connection.request(
                "POST", "/score",
                body=json.dumps({"samples": data[:1].tolist()}).encode(),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 200
            response.read()
            assert connection.sock is first_socket  # no reconnect happened
        finally:
            connection.close()

    def test_unread_body_closes_keepalive_connection(self, served_model):
        """A 413 leaves the body unread; the server must advertise and
        perform a close instead of parsing those bytes as a request."""
        host, port = _host_port(served_model)
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.putrequest("POST", "/v1/jobs")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert response.will_close  # Connection: close advertised
            response.read()
        finally:
            connection.close()
