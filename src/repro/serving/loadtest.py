"""Closed-loop load testing of one ``serve`` process or a replica fleet.

The ROADMAP's "millions of users" story needs numbers, not adjectives.  This
module is the measuring instrument, stdlib + numpy only:

* :func:`run_closed_loop` -- a pool of N concurrent **closed-loop** workers
  (each issues its next request only after the previous one completed, the
  standard saturation-measurement discipline) over persistent HTTP
  connections, capturing per-request latency and errors and reducing them to
  throughput + p50/p95/p99.
* :class:`ReplicaFleet` -- spawns K real ``quorum-repro serve`` subprocesses
  on ephemeral ports (scraping the bound port from the startup line) and
  tears them down deterministically; every replica loads the same frozen
  artifact, which is exactly the shared-nothing state a fleet needs.
* :func:`run_loadtest` -- the orchestrator behind the ``quorum-repro
  loadtest`` CLI verb: sweeps concurrency levels (and optionally
  ``--batch-window-ms`` values) against a 1-replica baseline and the
  K-replica fleet behind a :class:`~repro.serving.proxy.RoundRobinProxy`,
  records the saturation curve into a JSON report, computes the 1->K
  scale-out efficiency, and derives batching suggestions from the measured
  saturation knee (:func:`find_knee` / :func:`suggest_batching`).

Everything is CI-safe by construction: ephemeral ports, bounded startup
waits, and subprocess cleanup in ``finally`` (the integration-test style of
runtime-server projects).
"""

from __future__ import annotations

import collections
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serving.artifact import ModelArtifact, load_model
from repro.serving.proxy import RoundRobinProxy
from repro.serving.telemetry import percentile

__all__ = [
    "summarize_latencies",
    "run_closed_loop",
    "ReplicaProcess",
    "ReplicaSpawnError",
    "spawn_replica",
    "ReplicaFleet",
    "find_knee",
    "suggest_batching",
    "run_loadtest",
    "REPORT_VERSION",
]

#: Schema marker of the JSON report produced by :func:`run_loadtest`.
REPORT_VERSION = 1

#: How many trailing stderr lines each replica keeps for post-mortems.
STDERR_TAIL_LINES = 40

#: Marginal-throughput gain below which added concurrency has saturated the
#: service: the knee of the saturation curve.
KNEE_GAIN_THRESHOLD = 0.10

#: Bounds on the auto-suggested micro-batch sample budget.
MIN_SUGGESTED_BATCH = 32
MAX_SUGGESTED_BATCH = 4096


# --------------------------------------------------------------------- metrics
def summarize_latencies(latencies_s: Sequence[float]) -> Dict[str, float]:
    """``{mean, p50, p95, p99, max}`` in milliseconds."""
    ordered = sorted(latencies_s)
    if not ordered:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    return {
        "mean": sum(ordered) / len(ordered) * 1e3,
        "p50": percentile(ordered, 50.0) * 1e3,
        "p95": percentile(ordered, 95.0) * 1e3,
        "p99": percentile(ordered, 99.0) * 1e3,
        "max": ordered[-1] * 1e3,
    }


# ----------------------------------------------------------- closed-loop pool
class _WorkerStats:
    __slots__ = ("latencies", "errors", "last_completion")

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.errors = 0
        self.last_completion = 0.0


def run_closed_loop(base_url: str, path: str, body: bytes, *,
                    concurrency: int, duration_s: float,
                    warmup_s: float = 0.0, method: str = "POST",
                    timeout_s: float = 120.0) -> Dict[str, object]:
    """Drive ``method path`` with N closed-loop workers for ``duration_s``.

    Workers reuse one persistent connection each (reconnecting on failure)
    and only requests *started* after the warmup window count.  Returns a
    run record: request/error counts, throughput, and the latency summary.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be at least 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    host, _, port = base_url.split("//", 1)[-1].rstrip("/").rpartition(":")
    headers = {"Content-Type": "application/json"}
    start_event = threading.Event()
    clock_box: Dict[str, float] = {}
    stats = [_WorkerStats() for _ in range(concurrency)]

    def worker(my_stats: _WorkerStats) -> None:
        connection = http.client.HTTPConnection(host, int(port),
                                                timeout=timeout_s)
        start_event.wait()
        measure_start = clock_box["measure_start"]
        deadline = clock_box["deadline"]
        try:
            while True:
                begin = time.perf_counter()
                if begin >= deadline:
                    return
                measured = begin >= measure_start
                try:
                    connection.request(method, path, body=body,
                                       headers=headers)
                    response = connection.getresponse()
                    response.read()
                    ok = 200 <= response.status < 300
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, int(port), timeout=timeout_s)
                    if measured:
                        my_stats.errors += 1
                    continue
                end = time.perf_counter()
                if not measured:
                    continue
                if ok:
                    my_stats.latencies.append(end - begin)
                    my_stats.last_completion = end
                else:
                    my_stats.errors += 1
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, args=(stat,), daemon=True)
               for stat in stats]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    clock_box["measure_start"] = start + warmup_s
    clock_box["deadline"] = start + warmup_s + duration_s
    start_event.set()
    for thread in threads:
        thread.join(timeout=warmup_s + duration_s + timeout_s + 30.0)

    latencies = [value for stat in stats for value in stat.latencies]
    errors = sum(stat.errors for stat in stats)
    last = max((stat.last_completion for stat in stats), default=0.0)
    window = max(last - clock_box["measure_start"], 1e-9)
    return {
        "concurrency": concurrency,
        "duration_s": round(window, 4),
        "requests": len(latencies),
        "errors": errors,
        "throughput_rps": (len(latencies) / window) if latencies else 0.0,
        "latency_ms": summarize_latencies(latencies),
    }


# -------------------------------------------------------------- replica fleet
class ReplicaSpawnError(RuntimeError):
    """A replica failed to come up.

    Distinguishes *crashed on boot* (``exit_code`` is set and ``stderr_tail``
    carries the subprocess's last stderr lines) from *slow start* (neither is
    set; the startup deadline simply elapsed) -- the fleet supervisor feeds
    the former into its crash-loop circuit breaker.
    """

    def __init__(self, message: str, exit_code: Optional[int] = None,
                 stderr_tail: str = "") -> None:
        super().__init__(message)
        self.exit_code = exit_code
        self.stderr_tail = stderr_tail


def _replica_environment() -> Dict[str, str]:
    """The parent's environment with the repro package importable."""
    import repro

    package_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not existing
                         else os.pathsep.join([package_root, existing]))
    return env


class ReplicaProcess:
    """One live ``quorum-repro serve`` subprocess plus its watchdog readers.

    Owns the pipes: a daemon thread drains stdout (so a chatty server can
    never fill the pipe and stall) and another keeps a bounded tail of
    stderr for post-mortems.  Use :func:`spawn_replica` to create one.
    """

    def __init__(self, process: subprocess.Popen, host: str,
                 port: int) -> None:
        self.process = process
        self.host = host
        self.port = int(port)
        self._stderr_tail: Deque[str] = collections.deque(
            maxlen=STDERR_TAIL_LINES)
        self._readers: List[threading.Thread] = []
        for stream, sink in ((process.stdout, None),
                             (process.stderr, self._stderr_tail)):
            if stream is None:
                continue
            thread = threading.Thread(target=self._pump,
                                      args=(stream, sink), daemon=True)
            thread.start()
            self._readers.append(thread)

    @staticmethod
    def _pump(stream, sink: Optional[Deque[str]]) -> None:
        try:
            for line in stream:
                if sink is not None:
                    sink.append(line.rstrip("\n"))
        except (OSError, ValueError):
            pass  # pipe closed during reaping

    # ------------------------------------------------------------- observation
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def pid(self) -> int:
        return self.process.pid

    def poll(self) -> Optional[int]:
        """The exit code if the replica has died, else ``None``."""
        return self.process.poll()

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def stderr_tail(self) -> str:
        """The last captured stderr lines (joined), for diagnostics."""
        return "\n".join(self._stderr_tail)

    def exit_summary(self) -> Dict[str, object]:
        """``{"exit_code", "stderr_tail"}`` for a dead (or dying) replica."""
        return {"exit_code": self.process.poll(),
                "stderr_tail": self.stderr_tail()}

    # --------------------------------------------------------------- lifecycle
    def send_signal(self, signum: int) -> None:
        """Deliver a signal (SIGSTOP/SIGCONT/SIGKILL...) to the replica."""
        self.process.send_signal(signum)

    def terminate(self) -> None:
        self.process.terminate()

    def kill(self) -> None:
        self.process.kill()

    def wait(self, timeout_s: Optional[float] = None) -> int:
        return self.process.wait(timeout=timeout_s)

    def close(self, term_timeout_s: float = 15.0,
              kill_timeout_s: float = 10.0) -> int:
        """Graceful stop: SIGTERM, bounded wait, then SIGKILL; returns the
        exit code.

        SIGTERM triggers the server's drain path (finish in-flight requests,
        then exit 0); SIGKILL is the backstop for a wedged process.  A
        SIGSTOP-ped replica cannot run its SIGTERM handler, so it is resumed
        first -- otherwise "close a hung replica" would always escalate to
        SIGKILL and report a dirty exit for a process that was merely paused.
        """
        try:
            if self.alive:
                try:
                    self.process.send_signal(signal.SIGCONT)
                except (OSError, ProcessLookupError):
                    pass
                self.process.terminate()
                try:
                    self.process.wait(timeout=term_timeout_s)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=kill_timeout_s)
            else:
                self.process.wait(timeout=kill_timeout_s)
        finally:
            for stream in (self.process.stdout, self.process.stderr):
                if stream is not None:
                    try:
                        stream.close()
                    except OSError:
                        pass
            for thread in self._readers:
                thread.join(timeout=5.0)
        return self.process.returncode


def spawn_replica(model_path: Union[str, Path], *,
                  host: str = "127.0.0.1",
                  batch_window_ms: float = 0.0,
                  max_batch_samples: int = 512,
                  startup_timeout_s: float = 120.0,
                  debug_hooks: bool = False,
                  extra_args: Sequence[str] = ()) -> ReplicaProcess:
    """Spawn one ``quorum-repro serve`` subprocess on an ephemeral port.

    Scrapes the bound port from the CLI's ``serving ... on http://host:port``
    startup line.  A replica that dies *before* printing it is reported
    immediately -- :class:`ReplicaSpawnError` carries the exit code and the
    stderr tail -- instead of burning the whole startup deadline, so callers
    can distinguish "crashed on boot" from "slow start".
    """
    command = [
        sys.executable, "-m", "repro.cli", "serve",
        "--model", str(model_path),
        "--host", host, "--port", "0",
        "--batch-window-ms", str(batch_window_ms),
        "--max-batch-samples", str(max_batch_samples),
    ]
    if debug_hooks:
        command.append("--debug-hooks")
    command.extend(extra_args)
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               env=_replica_environment())
    stderr_tail: Deque[str] = collections.deque(maxlen=STDERR_TAIL_LINES)
    stderr_thread = threading.Thread(
        target=ReplicaProcess._pump, args=(process.stderr, stderr_tail),
        daemon=True)
    stderr_thread.start()

    box: Dict[str, str] = {}

    def read_startup_line() -> None:
        box["line"] = process.stdout.readline()

    reader = threading.Thread(target=read_startup_line, daemon=True)
    reader.start()

    def fail(message: str, exit_code: Optional[int] = None
             ) -> ReplicaSpawnError:
        if process.poll() is None:
            process.kill()
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        stderr_thread.join(timeout=5.0)
        for stream in (process.stdout, process.stderr):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        tail = "\n".join(stderr_tail)
        suffix = f"; stderr tail:\n{tail}" if tail else ""
        return ReplicaSpawnError(message + suffix, exit_code=exit_code,
                                 stderr_tail=tail)

    deadline = time.monotonic() + startup_timeout_s
    while True:
        reader.join(timeout=0.05)
        if not reader.is_alive():
            break
        exit_code = process.poll()
        if exit_code is not None:
            # Crashed on boot: readline will deliver EOF momentarily; give
            # it a beat so a raced startup line is not misreported.
            reader.join(timeout=1.0)
            if box.get("line", "").strip():
                break
            raise fail(f"replica crashed on boot with exit code {exit_code}",
                       exit_code=exit_code)
        if time.monotonic() >= deadline:
            raise fail(f"replica startup exceeded {startup_timeout_s:.0f}s "
                       f"(process still running: slow start, not a crash)")
    line = box.get("line", "")
    if " on http://" not in line:
        # EOF (or garbage) on stdout: the process is dying or broken.  Give
        # the exit code a moment to materialize -- it is the diagnosis.
        try:
            exit_code: Optional[int] = process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            exit_code = process.poll()
        raise fail(f"replica did not report a bound port (got {line!r}, "
                   f"exit code {exit_code})", exit_code=exit_code)
    address = line.rsplit(" on http://", 1)[1].strip()
    bound_host, _, bound_port = address.rpartition(":")
    return ReplicaProcess(process, bound_host, int(bound_port))


class ReplicaFleet:
    """K real ``quorum-repro serve`` subprocesses on ephemeral ports.

    Every replica serves the same frozen model artifact -- the shared-nothing
    scale-out unit.  ``start`` spawns each replica via :func:`spawn_replica`;
    ``close`` sends SIGTERM and reaps (killing only on a missed shutdown
    deadline), returning the exit codes so callers can assert clean shutdown.
    The fleet supervisor builds on the same :class:`ReplicaProcess` handles
    for per-replica lifecycle control.
    """

    def __init__(self, model_path: Union[str, Path], replicas: int = 1, *,
                 batch_window_ms: float = 0.0, max_batch_samples: int = 512,
                 host: str = "127.0.0.1",
                 startup_timeout_s: float = 120.0,
                 debug_hooks: bool = False) -> None:
        if replicas < 1:
            raise ValueError("a fleet needs at least one replica")
        self.model_path = Path(model_path)
        self.replicas = int(replicas)
        self.batch_window_ms = float(batch_window_ms)
        self.max_batch_samples = int(max_batch_samples)
        self.host = host
        self.startup_timeout_s = float(startup_timeout_s)
        self.debug_hooks = bool(debug_hooks)
        self._replicas: List[ReplicaProcess] = []

    @property
    def addresses(self) -> List[Tuple[str, int]]:
        return [(replica.host, replica.port) for replica in self._replicas]

    @property
    def handles(self) -> List[ReplicaProcess]:
        """The live replica handles (for fault injection and supervision)."""
        return list(self._replicas)

    def spawn_one(self) -> ReplicaProcess:
        """One more replica with this fleet's settings (not yet tracked)."""
        return spawn_replica(
            self.model_path, host=self.host,
            batch_window_ms=self.batch_window_ms,
            max_batch_samples=self.max_batch_samples,
            startup_timeout_s=self.startup_timeout_s,
            debug_hooks=self.debug_hooks)

    def start(self) -> "ReplicaFleet":
        if self._replicas:
            raise RuntimeError("the fleet is already started")
        try:
            for _ in range(self.replicas):
                self._replicas.append(self.spawn_one())
        except Exception:
            self.close()
            raise
        return self

    def close(self) -> List[int]:
        """Terminate every replica; returns their exit codes (0 = clean)."""
        exit_codes = [replica.close() for replica in self._replicas]
        self._replicas = []
        return exit_codes

    def __enter__(self) -> "ReplicaFleet":
        if not self._replicas:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------- knee + batch suggestions
def find_knee(points: Sequence[Tuple[int, float]]) -> Tuple[int, float]:
    """The saturation knee of ``[(concurrency, throughput)]`` (ascending).

    Walking the curve in concurrency order, the knee is the last point before
    the marginal throughput gain drops below :data:`KNEE_GAIN_THRESHOLD`
    (additional closed-loop clients now only add queueing latency).  A curve
    that never flattens returns its last point.
    """
    if not points:
        raise ValueError("cannot find the knee of an empty curve")
    knee = points[0]
    for previous, current in zip(points, points[1:]):
        _, previous_tp = previous
        _, current_tp = current
        if previous_tp > 0 and (current_tp / previous_tp - 1.0
                                ) < KNEE_GAIN_THRESHOLD:
            return previous
        knee = current
    return knee


def _next_power_of_two(value: int) -> int:
    return 1 << max(int(value) - 1, 0).bit_length() if value > 1 else 1


def suggest_batching(runs: Sequence[Dict[str, object]],
                     samples_per_request: int) -> Dict[str, object]:
    """Derive batching knobs from measured saturation curves.

    For the largest fleet in ``runs``, each swept ``batch_window_ms`` value
    yields one saturation curve; the window whose knee throughput is highest
    wins.  The suggested ``max_batch_samples`` is the sample volume in
    flight at the knee (knee concurrency x samples per request, rounded up
    to a power of two) -- a smaller budget would split saturated batches,
    a much larger one only adds queueing.
    """
    fleet = max(int(run["replicas"]) for run in runs)
    best: Optional[Dict[str, object]] = None
    for window in sorted({float(run["batch_window_ms"]) for run in runs}):
        curve = sorted(
            (int(run["concurrency"]), float(run["throughput_rps"]))
            for run in runs
            if int(run["replicas"]) == fleet
            and float(run["batch_window_ms"]) == window)
        if not curve:
            continue
        knee_concurrency, knee_throughput = find_knee(curve)
        if best is None or knee_throughput > best["peak_throughput_rps"]:
            best = {
                "knee_concurrency": knee_concurrency,
                "batch_window_ms": window,
                "peak_throughput_rps": knee_throughput,
            }
    assert best is not None  # runs is non-empty by contract
    in_flight = int(best["knee_concurrency"]) * int(samples_per_request)
    best["max_batch_samples"] = min(
        max(_next_power_of_two(in_flight), MIN_SUGGESTED_BATCH),
        MAX_SUGGESTED_BATCH)
    return best


# ---------------------------------------------------------------- orchestrator
def _fetch_json(url: str, timeout_s: float = 30.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout_s) as response:
        return json.load(response)


#: The server-side stage histograms the loadtest scrapes per replica (from
#: ``/v1/metrics``) to split observed latency into batching delay vs engine
#: saturation.
_STAGE_METRICS = (("queue_wait", "scoring_queue_wait_seconds"),
                  ("engine", "scoring_engine_seconds"))


def _scrape_stage_totals(addresses: Sequence[Tuple[str, int]]
                         ) -> Dict[str, Optional[Dict[str, float]]]:
    """Per-replica ``sum``/``count`` of the stage histograms right now.

    ``{"host:port": {queue_wait_sum, queue_wait_count, engine_sum,
    engine_count}}``; a replica whose scrape fails maps to ``None`` (the
    split is then computed over the replicas that did answer).
    """
    totals: Dict[str, Optional[Dict[str, float]]] = {}
    for host, port in addresses:
        address = f"{host}:{port}"
        try:
            snapshot = _fetch_json(f"http://{host}:{port}/v1/metrics")
        except (OSError, ValueError):
            totals[address] = None
            continue
        histograms = snapshot.get("histograms", {})
        entry: Dict[str, float] = {}
        for key, name in _STAGE_METRICS:
            histogram = histograms.get(name) or {}
            entry[f"{key}_sum"] = float(histogram.get("sum") or 0.0)
            entry[f"{key}_count"] = float(histogram.get("count") or 0)
        totals[address] = entry
    return totals


def _server_side_split(before: Dict[str, Optional[Dict[str, float]]],
                       after: Dict[str, Optional[Dict[str, float]]]
                       ) -> Dict[str, object]:
    """Aggregate stage-histogram deltas into the queue-vs-compute split.

    ``queue_wait_share`` near 1 means requests spend the run waiting on the
    micro-batcher (batching delay: widen the window or grow the fleet);
    near 0 means the engine itself is the bottleneck (compute saturation).
    """
    deltas = {f"{key}_{field}": 0.0
              for key, _ in _STAGE_METRICS for field in ("sum", "count")}
    for address, end in after.items():
        start = before.get(address)
        if end is None or start is None:
            continue
        for field in deltas:
            deltas[field] += max(0.0, end[field] - start[field])
    queue_sum, engine_sum = deltas["queue_wait_sum"], deltas["engine_sum"]
    busy = queue_sum + engine_sum
    return {
        "scored_requests": int(deltas["queue_wait_count"]),
        "queue_wait_ms_mean": (
            round(queue_sum / deltas["queue_wait_count"] * 1e3, 4)
            if deltas["queue_wait_count"] else None),
        "engine_ms_mean": (
            round(engine_sum / deltas["engine_count"] * 1e3, 4)
            if deltas["engine_count"] else None),
        "queue_wait_share": (round(queue_sum / busy, 4) if busy > 0
                             else None),
    }


def run_loadtest(model_path: Union[str, Path], *,
                 replicas: int = 1,
                 concurrencies: Sequence[int] = (8,),
                 duration_s: float = 2.0,
                 mode: str = "reference",
                 samples_per_request: int = 4,
                 batch_windows_ms: Sequence[float] = (2.0,),
                 max_batch_samples: int = 512,
                 warmup_s: float = 0.25,
                 seed: int = 0,
                 replay_samples: Optional[np.ndarray] = None,
                 single_replica_baseline: bool = True,
                 request_timeout_s: float = 120.0) -> Dict[str, object]:
    """Measure a replica fleet under closed-loop load; return the report.

    Spawns a 1-replica baseline (when ``single_replica_baseline`` and
    ``replicas > 1``) and the K-replica fleet behind an in-process
    round-robin proxy, sweeps every ``(batch_window_ms, concurrency)``
    combination for ``duration_s`` each, and reduces the measurements to a
    JSON-serializable report: the saturation curve, per-replica request
    distribution, 1->K scale-out efficiency, and knee-derived batching
    suggestions.
    """
    if mode not in ("reference", "replay"):
        raise ValueError(f"unknown loadtest mode {mode!r}")
    artifact: ModelArtifact = load_model(model_path)
    if mode == "replay":
        if replay_samples is None:
            raise ValueError("replay mode needs the training set "
                             "(replay_samples)")
        samples = np.asarray(replay_samples, dtype=float)
        if samples.shape[0] != artifact.num_samples:
            raise ValueError(
                f"replay mode requires the full training set of "
                f"{artifact.num_samples} samples (got {samples.shape[0]})")
    else:
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(int(samples_per_request),
                                   artifact.num_features))
    request_samples = samples.shape[0]
    body = json.dumps({"samples": samples.tolist(),
                       "mode": mode}).encode("utf-8")

    concurrencies = sorted({int(value) for value in concurrencies})
    if not concurrencies or concurrencies[0] < 1:
        raise ValueError("concurrencies must be positive integers")
    batch_windows_ms = sorted({float(value) for value in batch_windows_ms})
    replica_counts = [replicas]
    if single_replica_baseline and replicas > 1:
        replica_counts = [1, replicas]

    runs: List[Dict[str, object]] = []
    exit_codes: List[int] = []
    for window in batch_windows_ms:
        for count in replica_counts:
            fleet = ReplicaFleet(model_path, count, batch_window_ms=window,
                                 max_batch_samples=max_batch_samples)
            try:
                fleet.start()
                with RoundRobinProxy(fleet.addresses) as proxy:
                    health = proxy.check_backends()
                    unhealthy = [address for address, ok in health.items()
                                 if not ok]
                    if unhealthy:
                        raise RuntimeError(
                            f"replicas failed their health check: {unhealthy}")
                    liveness = _fetch_json(proxy.base_url + "/v1/healthz")
                    score_path = (f"/v1/models/{liveness['default_model']}"
                                  f"/score")
                    for concurrency in concurrencies:
                        before = proxy.request_counts()
                        stage_before = _scrape_stage_totals(fleet.addresses)
                        result = run_closed_loop(
                            proxy.base_url, score_path, body,
                            concurrency=concurrency, duration_s=duration_s,
                            warmup_s=warmup_s, timeout_s=request_timeout_s)
                        after = proxy.request_counts()
                        stage_after = _scrape_stage_totals(fleet.addresses)
                        result.update({
                            "replicas": count,
                            "batch_window_ms": window,
                            "per_replica_requests": {
                                address: after[address] - before[address]
                                for address in after},
                            # Server-side queue-wait vs compute split over
                            # the run (scraped from each replica's
                            # /v1/metrics), so knee detection can tell
                            # batching delay from engine saturation.
                            "server_side": _server_side_split(stage_before,
                                                              stage_after),
                        })
                        runs.append(result)
            finally:
                exit_codes.extend(fleet.close())

    report: Dict[str, object] = {
        "version": REPORT_VERSION,
        "generated_at": time.time(),
        "config": {
            "model_path": str(model_path),
            "replicas": replicas,
            "concurrencies": concurrencies,
            "duration_s": duration_s,
            "warmup_s": warmup_s,
            "mode": mode,
            "samples_per_request": request_samples,
            "batch_windows_ms": batch_windows_ms,
            "max_batch_samples": max_batch_samples,
            "seed": seed,
        },
        "runs": runs,
        "scale_out": _scale_out(runs, replicas),
        "suggestion": suggest_batching(runs, request_samples),
        "replica_exits": {
            "exit_codes": exit_codes,
            "clean": all(code == 0 for code in exit_codes),
        },
    }
    return report


def _scale_out(runs: Sequence[Dict[str, object]],
               replicas: int) -> Optional[Dict[str, object]]:
    """1->K efficiency at the heaviest measured load, when both were run."""
    if replicas <= 1:
        return None
    single = [run for run in runs if int(run["replicas"]) == 1]
    fleet = [run for run in runs if int(run["replicas"]) == replicas]
    if not single or not fleet:
        return None

    def best(records: Sequence[Dict[str, object]]) -> Dict[str, object]:
        peak = max(int(run["concurrency"]) for run in records)
        candidates = [run for run in records
                      if int(run["concurrency"]) == peak]
        return max(candidates, key=lambda run: float(run["throughput_rps"]))

    single_best, fleet_best = best(single), best(fleet)
    single_tp = float(single_best["throughput_rps"])
    fleet_tp = float(fleet_best["throughput_rps"])
    return {
        "baseline_replicas": 1,
        "fleet_replicas": replicas,
        "concurrency": int(fleet_best["concurrency"]),
        "throughput_single_rps": single_tp,
        "throughput_fleet_rps": fleet_tp,
        "speedup": (fleet_tp / single_tp) if single_tp > 0 else 0.0,
        "efficiency": (fleet_tp / (replicas * single_tp)
                       if single_tp > 0 else 0.0),
    }
