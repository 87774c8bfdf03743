"""Replica-fleet loadtest benchmark: closed-loop throughput through the proxy.

One end-to-end pass of the fleet story on CI-safe scale: two real
``quorum-repro serve`` subprocesses on ephemeral ports behind the in-process
round-robin proxy, measured by the closed-loop worker pool.  The tracked
number is dominated by actual request/score throughput (fleet startup happens
outside the timed section), so a regression here means the serving hot path
-- HTTP handling, keep-alive, micro-batching, or the proxy -- got slower.
"""

import json
import urllib.request

import numpy as np
import pytest
from _harness import run_once

from repro.core.detector import QuorumDetector
from repro.serving.artifact import save_model
from repro.serving.loadtest import ReplicaFleet, run_closed_loop
from repro.serving.proxy import RoundRobinProxy

MEMBERS = 8
TRAIN_SAMPLES = 64
FEATURES = 6

REPLICAS = 2
CONCURRENCY = 4
DURATION_S = 1.5
WARMUP_S = 0.3


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    rng = np.random.default_rng(29)
    detector = QuorumDetector(ensemble_groups=MEMBERS, seed=31, shots=1024)
    detector.fit(rng.normal(size=(TRAIN_SAMPLES, FEATURES)))
    return save_model(detector, tmp_path_factory.mktemp("loadtest") / "m.json")


def _fleet_throughput(fleet, proxy, score_path):
    """The timed section: closed-loop load against an already-warm fleet."""
    probes = np.random.default_rng(3).normal(size=(2, FEATURES))
    body = json.dumps({"samples": probes.tolist()}).encode()
    result = run_closed_loop(proxy.base_url, score_path, body,
                             concurrency=CONCURRENCY, duration_s=DURATION_S,
                             warmup_s=WARMUP_S)
    result["per_replica_requests"] = proxy.request_counts()
    return result


def test_loadtest_fleet_throughput(benchmark, model_path):
    fleet = ReplicaFleet(model_path, replicas=REPLICAS, batch_window_ms=2.0)
    exit_codes = None
    try:
        fleet.start()
        with RoundRobinProxy(fleet.addresses) as proxy:
            health = proxy.check_backends()
            assert all(health.values()), health
            # Warm every replica's compiled-program cache outside the timing.
            with urllib.request.urlopen(proxy.base_url + "/v1/healthz",
                                        timeout=30) as response:
                model_id = json.load(response)["default_model"]
            result = run_once(benchmark, _fleet_throughput, fleet, proxy,
                              f"/v1/models/{model_id}/score")
    finally:
        exit_codes = fleet.close()

    counts = result["per_replica_requests"]
    print(f"\n[Loadtest] {REPLICAS} replicas x {MEMBERS} members, "
          f"concurrency {CONCURRENCY}: {result['throughput_rps']:.1f} req/s, "
          f"p50 {result['latency_ms']['p50']:.1f} ms, "
          f"p99 {result['latency_ms']['p99']:.1f} ms, "
          f"split {sorted(counts.values())}")
    assert exit_codes == [0] * REPLICAS  # every replica shut down cleanly
    assert result["errors"] == 0
    assert result["requests"] > 0
    # Round-robin must have spread the load across both replicas.
    assert all(count > 0 for count in counts.values())
