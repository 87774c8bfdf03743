"""Online-serving benchmarks: cold start, warm latency, micro-batch speedup.

The serving subsystem's contract is train-once / score-many: a fitted ensemble
is persisted once and then serves scoring requests whose marginal cost is the
sample-dependent work only (the compiled encoder unitaries and reference
statistics are frozen in the artifact and reused across requests).  These
benchmarks measure that contract:

* cold path -- ``load_model`` + scorer construction + the first request
  (includes the one-time compiles);
* warm path -- amortized per-request latency at request sizes 1 / 8 / 64;
* micro-batching -- many concurrent single-sample requests coalesced into
  fused batches vs the same requests scored one at a time;
* job overhead -- the async ``submit -> poll -> result`` lifecycle of the
  runtime service's JobManager vs the same work scored synchronously.
"""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from _harness import run_once

from repro.core.detector import QuorumDetector
from repro.experiments.common import markdown_table
from repro.quantum.compiler import CircuitCompiler
from repro.serving.artifact import load_model, save_model
from repro.serving.jobs import JobManager
from repro.serving.models import JobSubmitRequest
from repro.serving.registry import ModelRegistry
from repro.serving.scorer import OnlineScorer

#: One mid-sized frozen ensemble shared by every benchmark in this module.
MEMBERS = 32
TRAIN_SAMPLES = 192
FEATURES = 9


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    rng = np.random.default_rng(7)
    detector = QuorumDetector(ensemble_groups=MEMBERS, seed=23, shots=4096)
    detector.fit(rng.normal(size=(TRAIN_SAMPLES, FEATURES)))
    return save_model(detector, tmp_path_factory.mktemp("serving") / "m.json")


def _probes(samples, seed=1):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(samples, FEATURES))


def _cold_start(model_path):
    """Fresh artifact load + scorer build + first single-sample request."""
    start = time.perf_counter()
    scorer = OnlineScorer(load_model(model_path))
    loaded = time.perf_counter() - start
    start = time.perf_counter()
    scorer.score(_probes(1))
    first_score = time.perf_counter() - start
    scorer.close()
    return {"load_seconds": loaded, "first_score_seconds": first_score}


def test_serving_cold_load_first_score(benchmark, model_path):
    results = run_once(benchmark, _cold_start, model_path)
    print(f"\n[Serving] cold start ({MEMBERS} members): "
          f"load {results['load_seconds'] * 1e3:.1f} ms, "
          f"first score {results['first_score_seconds'] * 1e3:.1f} ms")
    assert results["load_seconds"] > 0
    assert results["first_score_seconds"] > 0


def _warm_latencies(model_path):
    """Amortized per-request latency at request sizes 1 / 8 / 64."""
    scorer = OnlineScorer(load_model(model_path))
    scorer.score(_probes(1))  # warm the compiled-program cache
    timings = {}
    for size, repeats in ((1, 40), (8, 20), (64, 10)):
        probes = _probes(size, seed=size)
        start = time.perf_counter()
        for _ in range(repeats):
            scorer.score(probes)
        elapsed = time.perf_counter() - start
        timings[size] = {
            "per_request_ms": elapsed / repeats * 1e3,
            "per_sample_ms": elapsed / (repeats * size) * 1e3,
        }
    scorer.close()
    return timings


def test_serving_warm_latency(benchmark, model_path):
    timings = run_once(benchmark, _warm_latencies, model_path)
    print(f"\n[Serving] warm request latency ({MEMBERS} members)\n")
    print(markdown_table(
        ["Batch size", "ms / request", "ms / sample"],
        [(size, f"{stats['per_request_ms']:.2f}",
          f"{stats['per_sample_ms']:.3f}")
         for size, stats in timings.items()]))
    # Batching must amortize: per-sample cost at 64 clearly below size-1 cost.
    # Wall-clock comparison, so asserted only where timings are the job's
    # purpose (tier-1 runs this file with --benchmark-disable under coverage
    # tracing, where it would just add flake).
    if benchmark.enabled:
        assert timings[64]["per_sample_ms"] < timings[1]["per_sample_ms"]


def _microbatch_vs_sequential(model_path):
    """64 single-sample requests: coalesced micro-batches vs one at a time."""
    scorer = OnlineScorer(load_model(model_path), max_batch_samples=256,
                          batch_window_s=0.004)
    requests = [_probes(1, seed=100 + i) for i in range(64)]
    scorer.score(requests[0])  # warm the compiled-program cache

    sequential_seconds = batched_seconds = float("inf")
    for _ in range(2):  # best-of-two damps scheduler jitter on shared CI hosts
        start = time.perf_counter()
        sequential = [scorer.score(request).scores[0] for request in requests]
        sequential_seconds = min(sequential_seconds,
                                 time.perf_counter() - start)

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=16) as pool:
            futures = list(pool.map(scorer.submit, requests))
        batched = [future.result(timeout=120).scores[0] for future in futures]
        batched_seconds = min(batched_seconds, time.perf_counter() - start)

    diagnostics = scorer.diagnostics()
    scorer.close()
    # Determinism gate: coalescing must not change a single score.
    assert sequential == batched
    return {
        "sequential_seconds": sequential_seconds,
        "batched_seconds": batched_seconds,
        "batches": diagnostics["serving"]["batches"],
        "coalesced_requests": diagnostics["serving"]["coalesced_requests"],
    }


def _job_overhead(model_path, cycles=48):
    """Full async job lifecycles (submit -> poll -> result) vs direct scoring.

    Each cycle runs one single-sample ``score`` job through the JobManager's
    worker pool and polls it to completion the way an HTTP client would; the
    direct pass scores the identical probes through the scorer's micro-batch
    queue.  The difference is the bookkeeping the runtime service adds per
    job (uuid allocation, table locking, worker handoff, poll latency).
    """
    probes = [_probes(1, seed=300 + i).tolist() for i in range(cycles)]
    with ModelRegistry(compiler=CircuitCompiler()) as registry:
        entry = registry.load(model_path, model_id="bench")
        entry.scorer.submit(probes[0]).result(timeout=120)  # warm the cache

        start = time.perf_counter()
        for probe in probes:
            entry.scorer.submit(probe).result(timeout=120)
        direct_seconds = time.perf_counter() - start

        with JobManager(registry, workers=2) as manager:
            start = time.perf_counter()
            for probe in probes:
                job = manager.submit(JobSubmitRequest(
                    kind="score", model_id="bench",
                    params={"samples": probe}))
                while manager.get(job.job_id).status not in (
                        "succeeded", "failed", "cancelled"):
                    time.sleep(0.0005)
                manager.result(job.job_id)
            job_seconds = time.perf_counter() - start

    return {
        "cycles": cycles,
        "direct_seconds": direct_seconds,
        "job_seconds": job_seconds,
        "overhead_ms_per_job": (job_seconds - direct_seconds) / cycles * 1e3,
    }


def test_serving_job_overhead(benchmark, model_path):
    results = run_once(benchmark, _job_overhead, model_path)
    print(f"\n[Serving] {results['cycles']} submit->poll->result job cycles "
          f"({MEMBERS} members): direct {results['direct_seconds'] * 1e3:.0f} "
          f"ms, via jobs {results['job_seconds'] * 1e3:.0f} ms "
          f"(+{results['overhead_ms_per_job']:.2f} ms/job)")
    # The job machinery must add bookkeeping, not re-scoring: per-job overhead
    # stays far below one member sweep (hundreds of ms for this ensemble).
    assert results["overhead_ms_per_job"] < 100.0


def test_serving_microbatch_speedup(benchmark, model_path):
    results = run_once(benchmark, _microbatch_vs_sequential, model_path)
    speedup = results["sequential_seconds"] / results["batched_seconds"]
    per_request = results["coalesced_requests"] / max(results["batches"], 1)
    print(f"\n[Serving] 64 single-sample requests x {MEMBERS} members: "
          f"sequential {results['sequential_seconds'] * 1e3:.0f} ms, "
          f"micro-batched {results['batched_seconds'] * 1e3:.0f} ms "
          f"({speedup:.1f}x, ~{per_request:.1f} requests/batch)")
    # Requests must actually have been coalesced, not trickled one per batch.
    assert per_request > 1.0
    # The wall-clock claim is asserted only where timings are the job's
    # purpose: tier-1 runs this file with --benchmark-disable (and coverage
    # tracing), where a wall-clock assert would just add flake.
    if benchmark.enabled:
        assert speedup >= 1.5
