"""Serving round trip: ``fit --save-model`` -> ``serve`` -> ``POST /v1/.../score``.

Run with::

    PYTHONPATH=src python examples/serve_roundtrip.py

Fits a small ensemble, persists it as a versioned model artifact, boots the
real ``quorum-repro serve`` CLI in a subprocess on an ephemeral localhost
port, and drives the HTTP API with nothing but the standard library:

1. ``GET /v1/healthz`` -- liveness and the default model's registry id,
2. ``POST /v1/models/{id}/score`` -- score three unseen samples,
3. the same route with ``"mode": "replay"`` -- bit-identical refit-free
   reproduction of the training-set scores,
4. ``GET /v1/models/{id}`` -- operator diagnostics (compiler cache counters),
5. ``POST /v1/jobs`` (``replay_dataset``) -- submit, poll, and fetch an async
   replay job whose result is again bitwise identical to the fit,
6. ``GET /v1/metrics`` -- the telemetry scrape (JSON and Prometheus text)
   shows non-zero request counters and per-stage latency histograms for all
   of the traffic above.

CI runs this script as the serving smoke test, so it fails loudly (non-zero
exit) on any schema or lifecycle regression.
"""

import json
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro import QuorumDetector, load_dataset
from repro.serving import load_model


def _post_json(url: str, payload: dict, timeout: float = 60.0) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _get_json(url: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.load(response)


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="quorum-serve-"))
    model_path = workdir / "model.json"

    # 1. Train once: fit the ensemble and persist it as a versioned artifact.
    dataset = load_dataset("power_plant", seed=0)
    detector = QuorumDetector(ensemble_groups=12, shots=2048, seed=7,
                              anomaly_fraction_estimate=0.03)
    detector.fit(dataset)
    expected_scores = detector.anomaly_scores()
    detector.save_model(model_path)
    artifact = load_model(model_path)
    print(f"model saved to {model_path} "
          f"(schema v{artifact.schema_version}, "
          f"{len(artifact.members)} members)")

    # 2. Serve: boot the real CLI on an ephemeral port (port 0) and scrape
    #    the bound port from its startup line.
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--model", str(model_path), "--port", "0"],
        stdout=subprocess.PIPE, text=True)
    try:
        startup = server.stdout.readline().strip()
        base_url = startup.split(" on ")[-1]
        print(f"server: {startup}")

        # 3. Score many: drive the JSON API with the standard library only.
        health = _get_json(base_url + "/v1/healthz")
        assert health["status"] == "ok", health
        assert health["api_version"] == "v1", health
        model_id = health["default_model"]
        score_url = f"{base_url}/v1/models/{model_id}/score"

        unseen = dataset.features_only()[:3]
        response = _post_json(score_url, {"samples": unseen.tolist()})
        assert response["num_samples"] == 3, response
        assert len(response["scores"]) == 3, response
        assert response["mode"] == "reference", response
        assert response["model_id"] == model_id, response
        assert response["schema_version"] == artifact.schema_version, response
        print(f"POST /v1/models/{model_id}/score -> "
              f"{[round(s, 2) for s in response['scores']]} "
              f"({response['num_runs']} runs)")

        replay = _post_json(score_url,
                            {"samples": dataset.features_only().tolist(),
                             "mode": "replay"})
        replayed = np.asarray(replay["scores"])
        assert np.array_equal(replayed, expected_scores), (
            "replay scores diverged from the in-process fit")
        print(f"POST /v1/models/{model_id}/score mode=replay -> bitwise "
              f"identical to fit ({replayed.shape[0]} samples)")

        diagnostics = _get_json(f"{base_url}/v1/models/{model_id}")
        cache = diagnostics["compiler_cache"]
        assert {"compiles", "hits", "misses"} <= set(cache), diagnostics
        print(f"GET /v1/models/{model_id} -> compiler cache: "
              f"{cache['compiles']} compiles, {cache['hits']} hits over "
              f"{diagnostics['serving']['requests']} requests")

        # 4. Async replay job: submit, poll to completion, fetch the result.
        job = _post_json(base_url + "/v1/jobs",
                         {"kind": "replay_dataset",
                          "params": {"samples":
                                     dataset.features_only().tolist()}})
        job_id = job["job_id"]
        deadline = time.monotonic() + 300
        while job["status"] in ("queued", "running"):
            assert time.monotonic() < deadline, f"job {job_id} stalled"
            time.sleep(0.1)
            job = _get_json(f"{base_url}/v1/jobs/{job_id}")
        assert job["status"] == "succeeded", job
        result = _get_json(f"{base_url}/v1/jobs/{job_id}/result")
        job_scores = np.asarray(result["result"]["scores"])
        assert np.array_equal(job_scores, expected_scores), (
            "async replay job diverged from the in-process fit")
        print(f"POST /v1/jobs replay_dataset -> job {job_id[:8]}... "
              f"succeeded, bitwise identical to fit")
        assert job["queued_s"] is not None and job["run_s"] is not None, job

        # 5. Telemetry: everything above left its mark on /v1/metrics.
        metrics = _get_json(base_url + "/v1/metrics")
        requests_total = sum(
            entry["value"]
            for entry in metrics["counters"]["http_requests_total"])
        assert requests_total > 0, metrics["counters"]
        scoring = metrics["histograms"]["scoring_engine_seconds"]
        queue_wait = metrics["histograms"]["scoring_queue_wait_seconds"]
        assert scoring["count"] > 0 and queue_wait["count"] > 0, (
            metrics["histograms"])
        assert metrics["counters"]["jobs_finished_total"], metrics["counters"]
        prometheus = urllib.request.urlopen(
            base_url + "/v1/metrics?format=prometheus", timeout=30).read()
        assert b"# TYPE http_requests_total counter" in prometheus
        assert b"http_request_seconds_bucket{le=" in prometheus
        print(f"GET /v1/metrics -> {int(requests_total)} requests counted, "
              f"{scoring['count']} engine spans "
              f"(p95 {scoring['p95'] * 1e3:.1f} ms), "
              f"Prometheus exposition OK")
    finally:
        # 6. Shut down cleanly: SIGTERM closes the socket and the scorer.
        server.terminate()
        server.wait(timeout=15)
    assert server.returncode == 0, f"server exited with {server.returncode}"
    print("server shut down cleanly")


if __name__ == "__main__":
    main()
