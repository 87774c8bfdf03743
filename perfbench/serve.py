"""The ``serve-mixed`` workload and the serving-layer probe.

One ``quorum-repro serve`` replica (started with
``repro.serving.loadtest.spawn_replica``) serves a model fitted in set-up.
Two closed-loop clients, one per core, each wait for their reply before
sending the next request over a keep-alive connection.  Requests walk a
seeded pool in reference mode: nine 1-row requests, then one 64-row request.
The 1-row requests measure the fixed cost per request; the 64-row requests
carry most of the rows, so ``rows_per_s`` follows engine compute.

Every served response is checked bitwise against ``OnlineScorer.score`` in
this process on the same rows, computed before the window opens.
"""

from __future__ import annotations

import http.client
import itertools
import json
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import QuorumConfig, QuorumDetector
from repro.data import load_dataset
from repro.serving import OnlineScorer, load_model, save_model, spawn_replica
from repro.serving.telemetry import parse_timing_header

from common import Result, bitwise_equal, median, p99, roc_auc
from fitlayers import trace_fit_layers
from spans import Span, Tracer

DATASET = "power_plant"
CONFIG = QuorumConfig(ensemble_groups=50, shots=4096)
CONNECTIONS = 2
SINGLES_PER_CYCLE = 9
BULK_ROWS = 64
#: Ten cycles use 730 of the 1,000 rows; every row is served at most once
#: per pass through the pool.
CYCLES = 10
SETUP_REPEATS = 3
REQUEST_TIMEOUT_S = 60.0
#: How long the traced run traces fits of the served model's configuration.
FIT_TRACE_SECONDS = 3.0


@dataclass
class Body:
    rows: np.ndarray
    payload: bytes
    expected: Optional[np.ndarray] = None


@dataclass
class Reply:
    start: float
    end: float
    rows: int
    ok: bool
    stages: Optional[Dict[str, float]] = None


def request_pool(features: np.ndarray, seed: int, cycles: int) -> List[Body]:
    """``cycles`` x (nine 1-row bodies, one 64-row body), rows drawn without
    replacement from a seeded permutation of the dataset."""
    order = np.random.default_rng([seed, 5]).permutation(features.shape[0])
    bulk = order[:cycles * BULK_ROWS].reshape(cycles, BULK_ROWS)
    singles = order[cycles * BULK_ROWS:
                    cycles * (BULK_ROWS + SINGLES_PER_CYCLE)]
    pool: List[Body] = []
    for cycle in range(cycles):
        groups = [singles[cycle * SINGLES_PER_CYCLE + j:
                          cycle * SINGLES_PER_CYCLE + j + 1]
                  for j in range(SINGLES_PER_CYCLE)] + [bulk[cycle]]
        for rows in groups:
            payload = json.dumps({"samples": features[rows].tolist(),
                                  "mode": "reference"}).encode("utf-8")
            pool.append(Body(rows=rows, payload=payload))
    return pool


def _request(address: Tuple[str, int], method: str, path: str
             ) -> Dict[str, object]:
    connection = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request(method, path)
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"{method} {path} answered {response.status}")
        return json.loads(body)
    finally:
        connection.close()


class Replica:
    """A spawned replica plus the model id and readiness time it reported."""

    def __init__(self, model_path: Path) -> None:
        start = time.perf_counter()
        self.process = spawn_replica(model_path)
        self.address = (self.process.host, self.process.port)
        try:
            self.model_id = str(_request(self.address, "GET", "/v1/healthz")
                                ["default_model"])
        except BaseException:
            self.process.close()
            raise
        self.ready_s = time.perf_counter() - start
        self.score_path = f"/v1/models/{self.model_id}/score"

    def counters(self) -> Dict[str, float]:
        counters = _request(self.address, "GET", "/v1/metrics")["counters"]
        return {name: sum(entry["value"] for entry in counters.get(name, []))
                for name in ("scoring_requests_total", "scoring_batches_total")}

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("replica status has no VmHWM line")

    def close(self) -> None:
        self.process.close()


def drive(replica: Replica, pool: Sequence[Body], *,
          seconds: Optional[float] = None, requests: Optional[int] = None,
          timing: bool = False) -> Tuple[List[Reply], float, float]:
    """Closed loop over ``CONNECTIONS`` keep-alive connections.

    Stops after ``seconds`` (requests started later are not sent) or after
    ``requests`` requests.  Returns the replies, the window in seconds (first
    send to last reply) and the seconds the clients spent off the wire:
    choosing the body, decoding and checking the reply.
    """
    counter = itertools.count()
    headers = {"Content-Type": "application/json"}
    if timing:
        headers["X-Timing"] = "1"
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")
    replies: List[List[Reply]] = [[] for _ in range(CONNECTIONS)]
    busy = [0.0] * CONNECTIONS
    errors: List[BaseException] = []

    def connect() -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(*replica.address,
                                                timeout=REQUEST_TIMEOUT_S)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return connection

    def client(slot: int) -> None:
        connection = connect()
        try:
            while True:
                prepare = time.perf_counter()
                index = next(counter)
                if prepare >= deadline or (requests is not None
                                           and index >= requests):
                    return
                body = pool[index % len(pool)]
                begin = time.perf_counter()
                busy[slot] += begin - prepare
                try:
                    connection.request("POST", replica.score_path,
                                       body=body.payload, headers=headers)
                    response = connection.getresponse()
                    data = response.read()
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = connect()
                    replies[slot].append(Reply(begin, time.perf_counter(),
                                               len(body.rows), False))
                    continue
                end = time.perf_counter()
                ok = response.status == 200
                if ok and body.expected is not None:
                    scores = np.asarray(json.loads(data)["scores"], dtype=float)
                    ok = bitwise_equal(scores, body.expected)
                stages = None
                if timing:
                    stages = parse_timing_header(
                        response.getheader("X-Timing") or "")
                replies[slot].append(Reply(begin, end, len(body.rows), ok,
                                           stages))
                busy[slot] += time.perf_counter() - end
        except Exception as error:  # re-raised by the caller after join
            errors.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(slot,), daemon=True)
               for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    merged = sorted((reply for slot in replies for reply in slot),
                    key=lambda reply: reply.start)
    window = max((reply.end for reply in merged), default=start) - start
    return merged, window, sum(busy)


def compute_expected(model_path: Path, features: np.ndarray,
                     pool: Sequence[Body]) -> Tuple[float, List[float]]:
    """Fill ``pool[i].expected`` from an in-process ``OnlineScorer``.

    Returns the artifact load time and the in-process time of each 1-row
    request.
    """
    start = time.perf_counter()
    artifact = load_model(model_path)
    load_s = time.perf_counter() - start
    one_row_s: List[float] = []
    with OnlineScorer(artifact) as scorer:
        for body in pool:
            begin = time.perf_counter()
            body.expected = scorer.score(features[body.rows]).scores
            if len(body.rows) == 1:
                one_row_s.append(time.perf_counter() - begin)
    return load_s, one_row_s


def check_replies(result: Result, replies: Sequence[Reply]) -> None:
    for index, reply in enumerate(replies):
        result.check(reply.ok, f"request {index} ({reply.rows} rows) failed "
                               "or mismatched")


def serve_layer_metrics(result: Result, tracer: Tracer,
                        replies: Sequence[Reply], window_s: float,
                        busy_s: float, before: Dict[str, float],
                        after: Dict[str, float], save_s: Sequence[float],
                        load_s: float, ready_s: Sequence[float],
                        inproc_s: Sequence[float]) -> None:
    """Per-layer serving metrics from ``X-Timing`` replies and counters."""
    for index, reply in enumerate(replies):
        tracer.add(Span("http.request", reply.start, reply.end,
                        request_id=f"r{index}",
                        attrs={"rows": reply.rows, "ok": reply.ok,
                               "server_stages_s": reply.stages}))
    timed = [reply for reply in replies if reply.stages]

    def stage_ms(name: str, rows: Optional[int] = None) -> Tuple[float, int]:
        values = [reply.stages[name] * 1e3 for reply in timed
                  if name in reply.stages
                  and (rows is None or reply.rows == rows)]
        return (median(values) if values else float("nan")), len(values)

    for metric, stage in (("scorer.queue_wait_ms", "queue_wait"),
                          ("scorer.batch_assembly_ms", "batch_assembly"),
                          ("server.serialization_ms", "serialization")):
        value, count = stage_ms(stage)
        result.metric(metric, value, "ms", count)
    for rows, label in ((1, "1row"), (BULK_ROWS, "64row")):
        for metric, stage in (("scorer.engine_ms", "engine_compute"),
                              ("scorer.shot_noise_ms", "shot_noise")):
            value, count = stage_ms(stage, rows)
            result.metric(f"{metric}.{label}", value, "ms", count)
    overhead = [((reply.end - reply.start) - reply.stages["total"]) * 1e3
                for reply in timed if "total" in reply.stages]
    result.metric("http.overhead_ms", median(overhead), "ms", len(overhead))
    result.metric("scorer.inproc_ms.1row", median(inproc_s) * 1e3, "ms",
                  len(inproc_s))
    batches = after["scoring_batches_total"] - before["scoring_batches_total"]
    served = after["scoring_requests_total"] - before["scoring_requests_total"]
    result.metric("scorer.coalesce_ratio", served / batches, "ratio",
                  int(batches))
    result.metric("artifact.save_ms", median(save_s) * 1e3, "ms", len(save_s))
    result.metric("artifact.load_ms", load_s * 1e3, "ms", 1)
    result.metric("server.ready_s", median(ready_s), "s", len(ready_s))
    result.metric("loadgen.busy_share", busy_s / (window_s * CONNECTIONS),
                  "ratio", len(replies))


def probe_layers(result: Result, tracer: Tracer, detector: QuorumDetector,
                 features: np.ndarray, seed: int, workdir: Path) -> None:
    """Serve ``detector`` from a replica for two passes over one request
    cycle and report the serving layers (used by the fit workloads' traced
    run, where no serving window exists)."""
    model_path = workdir / f"probe-{seed}.json"
    start = time.perf_counter()
    save_model(detector, model_path)
    save_s = time.perf_counter() - start
    pool = request_pool(features, seed, 1)
    load_s, inproc_s = compute_expected(model_path, features, pool)
    replica = Replica(model_path)
    try:
        before = replica.counters()
        replies, window, busy = drive(replica, pool, requests=2 * len(pool),
                                      timing=True)
        after = replica.counters()
    finally:
        replica.close()
        model_path.unlink()
    check_replies(result, replies)
    serve_layer_metrics(result, tracer, replies, window, busy, before, after,
                        [save_s], load_s, [replica.ready_s], inproc_s)


def _setup(seed: int, fit_seed: int, model_path: Path):
    """One full set-up: dataset, fit, save, replica start, one warm cycle.

    Returns ``(setup_s, save_s, replica, dataset)``.
    """
    start = time.perf_counter()
    dataset = load_dataset(DATASET, seed=seed)
    detector = QuorumDetector(CONFIG.with_overrides(seed=fit_seed)).fit(dataset)
    save_start = time.perf_counter()
    save_model(detector, model_path)
    save_s = time.perf_counter() - save_start
    replica = Replica(model_path)
    warm = request_pool(dataset.features_only(), seed, 1)
    replies, _, _ = drive(replica, warm, requests=len(warm))
    if not all(reply.ok for reply in replies):
        replica.close()
        raise RuntimeError("warm-up requests failed")
    return time.perf_counter() - start, save_s, replica, dataset


def run(seed: int, seconds: float, trace: bool, workdir: Path,
        tracer: Tracer) -> Result:
    result = Result()
    seeds = np.random.default_rng([seed, 3]).integers(0, 2 ** 31 - 1, size=64)
    fit_seed = int(seeds[0])
    model_path = workdir / f"serve-{seed}.json"
    setups: List[float] = []
    saves: List[float] = []
    readies: List[float] = []
    replica: Optional[Replica] = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if replica is not None:
                replica.close()
                replica = None
            setup_s, save_s, replica, dataset = _setup(seed, fit_seed,
                                                       model_path)
            setups.append(setup_s)
            saves.append(save_s)
            readies.append(replica.ready_s)
        features = dataset.features_only()
        pool = request_pool(features, seed, CYCLES)
        load_s, inproc_s = compute_expected(model_path, features, pool)
        if trace:
            trace_fit_layers(result, tracer, dataset, CONFIG,
                             [int(value) for value in seeds[1:]],
                             seconds=FIT_TRACE_SECONDS)
            before = replica.counters()
        replies, window, busy = drive(replica, pool, seconds=seconds,
                                      timing=trace)
        if trace:
            after = replica.counters()
        replica_rss = replica.peak_rss_mb()
    finally:
        if replica is not None:
            replica.close()
        model_path.unlink(missing_ok=True)
    check_replies(result, replies)
    if trace:
        serve_layer_metrics(result, tracer, replies, window, busy, before,
                            after, saves, load_s, readies, inproc_s)
        return result

    latencies_ms = [(reply.end - reply.start) * 1e3 for reply in replies]
    good_rows = sum(reply.rows for reply in replies if reply.ok)
    pool_rows = np.concatenate([body.rows for body in pool])
    pool_scores = np.concatenate([body.expected for body in pool])
    auc = roc_auc(pool_scores, dataset.labels[pool_rows])
    result.check(bool(np.all(np.isfinite(pool_scores))) and auc > 0.5,
                 f"served scores non-finite or AUC {auc:.4f} <= 0.5")
    result.metric("setup_s", median(setups), "s", len(setups))
    result.metric("rows_per_s", good_rows / window, "1/s", len(replies))
    result.metric("p50_ms", median(latencies_ms), "ms", len(latencies_ms))
    result.metric("p99_ms", p99(latencies_ms), "ms", len(latencies_ms))
    result.metric("detect_auc", auc, "ratio", len(pool_rows))
    result.metric("peak_rss_mb", replica_rss, "MB", 1)
    return result
