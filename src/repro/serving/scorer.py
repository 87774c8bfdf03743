"""Online scoring of unseen samples against a frozen Quorum ensemble.

:class:`OnlineScorer` wraps a loaded :class:`~repro.serving.artifact.ModelArtifact`
and answers score requests without refitting.  Two scoring modes exist:

* ``"reference"`` (default, the online mode): each member's SWAP-test outputs
  for the new samples are compared against the *fit-time* bucket reference
  statistics frozen in the artifact
  (:class:`repro.core.scoring.StackedReference`, bitwise the per-member
  :func:`repro.core.scoring.reference_deviations`).
* ``"replay"``: the request must contain exactly the training set (same
  sample count and order); deviations are computed with the saved bucket
  partitions by the fit's own kernel
  (:func:`repro.core.ensemble.chunk_bucket_scores`), reproducing
  ``QuorumDetector.anomaly_scores()`` **bitwise** for fixed seeds.

Execution
---------
A request runs the way the fit runs a member chunk: members go in chunks of
:func:`~repro.core.ensemble.members_per_chunk` of the request's rows, and
each chunk is one gather plus one amplitude encoding, then one exact sweep
(:func:`~repro.core.ensemble.exact_chunk_p1`: a single
``exact_levels_stack`` call for the analytic engine, one ``p1_levels_batch``
per member for density matrices), then shot noise and one stacked scoring
pass.  Everything per member that does not depend on the request -- the
feature-selection matrix, the encoder stack, the reference statistics, the
bucket labels, the post-planning RNG state -- is built once at load.

Determinism and micro-batching
------------------------------
For the analytic and density-matrix engines, shot noise is a single binomial
draw applied *after* the exact probability sweep.  The scorer exploits this:
the expensive linear algebra runs **exactly** (``shots=None``), and each
request's shot noise is drawn afterwards, one member at a time, from that
member's generator reset to its persisted post-planning state (the
generators are shared, so resets and draws happen under the engine lock).
Two consequences:

* a request's scores depend only on its own samples -- concurrent submissions
  coalesced into one batch are bitwise identical to serial submission;
* one request containing the whole training set consumes the RNG exactly as
  ``fit`` did, which is what makes the replay mode bitwise.

The micro-batching queue (:meth:`OnlineScorer.submit`) dispatches a request
at once when the worker is idle; requests that arrive while a batch runs
coalesce into the next one, whose rows share every chunk's exact sweep.

The trajectory-sampled statevector engine consumes randomness *during*
evolution, so its requests are executed one at a time, one engine call per
member on the member's reset generator; they still flow through the same
queue.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.ansatz import encoder_unitaries
from repro.core.config import QuorumConfig
from repro.core.ensemble import (EXACT_BACKENDS, chunk_amplitudes,
                                 chunk_bucket_scores, config_engine,
                                 exact_chunk_p1, members_per_chunk)
from repro.core.execution import apply_shot_noise
from repro.core.scoring import BucketStatistics, StackedReference
from repro.quantum.compiler import CircuitCompiler, default_compiler
from repro.serving.artifact import ModelArtifact
from repro.serving.telemetry import MetricsRegistry, default_registry

__all__ = ["ScoreResult", "OnlineScorer", "SCORING_MODES"]

#: Modes accepted by :meth:`OnlineScorer.score` / :meth:`OnlineScorer.submit`.
SCORING_MODES = ("reference", "replay")


@dataclass
class ScoreResult:
    """Scores for one request.

    Attributes
    ----------
    scores:
        Per-sample anomaly scores (higher = more anomalous), summed over every
        (member x compression level) run exactly like the detector does.
    num_runs:
        Number of runs accumulated into each score.
    mode:
        Scoring mode that produced the result.
    num_samples:
        Number of scored samples.
    timings:
        Per-stage wall-clock spans in seconds (``queue_wait``,
        ``batch_assembly``, ``engine_compute``, ``shot_noise``) where the
        execution path measured them; the HTTP layer renders these into the
        opt-in ``X-Timing`` response header.  Batch-level stages carry the
        whole batch's duration for every coalesced request in it.
    """

    scores: np.ndarray
    num_runs: int
    mode: str
    num_samples: int
    timings: Optional[Dict[str, float]] = None


class _Request:
    """One queued scoring request (normalized rows + completion future)."""

    __slots__ = ("normalized", "mode", "future", "enqueued_at")

    def __init__(self, normalized: np.ndarray, mode: str) -> None:
        self.normalized = normalized
        self.mode = mode
        self.future: "Future[ScoreResult]" = Future()
        self.enqueued_at = time.perf_counter()


def _add_members(total: np.ndarray, deviations: np.ndarray) -> np.ndarray:
    """``total`` plus each row of ``deviations``, one member after another.

    The detector adds member deviations one at a time, in member order; a
    cumulative sum is that sequential order, which a reduction over the
    member axis does not promise (float addition is not associative).
    """
    return np.cumsum(np.concatenate([total[None], deviations]), axis=0)[-1]


class OnlineScorer:
    """Score unseen samples against a loaded model artifact.

    Parameters
    ----------
    artifact:
        A loaded :class:`~repro.serving.artifact.ModelArtifact`.
    simulation_backend / compile_circuits:
        Optional overrides of the artifact's config (e.g. score on a different
        kernel backend than the model was fitted on).
    compiler:
        Compiled-program cache the engines should use; defaults to the
        process-wide shared instance.  Tests pass a private compiler so cache
        hit/miss counters can be asserted in isolation.
    max_batch_samples:
        Upper bound on the number of samples one coalesced micro-batch may
        contain; requests beyond it wait for the next batch.
    batch_window_s:
        How long the worker waits after the first queued request for more
        requests to arrive before executing the batch.  The default 0
        dispatches at once when the worker is idle; requests that arrive
        while a batch runs still coalesce into the next batch.
    metrics:
        Telemetry registry the stage-latency histograms and serving counters
        land in; defaults to the process-global registry (what
        ``GET /v1/metrics`` serves).  Tests inject private instances.
    """

    def __init__(self, artifact: ModelArtifact,
                 simulation_backend: Optional[str] = None,
                 compile_circuits: Optional[bool] = None,
                 compiler: Optional[CircuitCompiler] = None,
                 max_batch_samples: int = 512,
                 batch_window_s: float = 0.0,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        if max_batch_samples < 1:
            raise ValueError("max_batch_samples must be positive")
        if batch_window_s < 0:
            raise ValueError("batch_window_s cannot be negative")
        config = artifact.config
        overrides: Dict[str, object] = {}
        if simulation_backend is not None:
            overrides["simulation_backend"] = simulation_backend
        if compile_circuits is not None:
            overrides["compile_circuits"] = compile_circuits
        if overrides:
            config = config.with_overrides(**overrides)
        self.artifact = artifact
        self.config: QuorumConfig = config
        self.levels: Tuple[int, ...] = tuple(artifact.levels)
        self.normalizer = artifact.build_normalizer()
        self.compiler = compiler if compiler is not None else default_compiler()
        self.max_batch_samples = int(max_batch_samples)
        self.batch_window_s = float(batch_window_s)

        # Per-member state, built once and stacked member-major.
        members = artifact.members
        self._ansatzes = [member.build_ansatz(config) for member in members]
        self._features = np.stack([
            np.asarray(member.selected_features, dtype=int)
            for member in members])
        self._labels = np.stack([member.bucket_assignment().labels
                                 for member in members])
        self._num_buckets = np.array([len(member.buckets)
                                      for member in members])
        self._references = [
            StackedReference([BucketStatistics(*member.reference[level])
                              for member in members])
            for level in self.levels
        ]
        # One generator per member plus its pristine post-planning state; a
        # request resets the generator instead of decoding the artifact's
        # state again.
        self._rngs = [member.restored_rng() for member in members]
        self._rng_states = [rng.bit_generator.state for rng in self._rngs]
        self._fusable = config.backend in EXACT_BACKENDS
        # Exact probabilities only -- per-request shot noise is applied
        # afterwards from each member's reset generator, which is what makes
        # coalesced and serial submission bitwise identical.
        self._exact_engine = (config_engine(config, None,
                                            compiler=self.compiler)
                              if self._fusable else None)
        self._encoders = (encoder_unitaries(self._ansatzes)
                          if config.backend == "analytic" else None)

        self._lock = threading.Lock()
        # Serializes the shared exact engine and the shared member
        # generators: the micro-batch worker thread and stateful callers
        # (dedicated sessions, job workers) may score concurrently, and
        # neither engine-internal caches nor generators are synchronized.
        self._engine_lock = threading.Lock()
        self._queue: List[_Request] = []
        self._queue_cond = threading.Condition(self._lock)
        self._worker: Optional[threading.Thread] = None
        self._closed = False
        self._stats = {"requests": 0, "samples": 0, "batches": 0,
                       "coalesced_requests": 0}
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_requests = self.metrics.counter(
            "scoring_requests_total", "scoring requests completed")
        self._m_samples = self.metrics.counter(
            "scoring_samples_total", "samples scored")
        self._m_batches = self.metrics.counter(
            "scoring_batches_total", "micro-batches executed")
        self._h_queue_wait = self.metrics.histogram(
            "scoring_queue_wait_seconds",
            "submit-to-batch-start wait in the micro-batch queue")
        self._h_assembly = self.metrics.histogram(
            "scoring_batch_assembly_seconds",
            "stacking coalesced requests into one fused batch")
        self._h_engine = self.metrics.histogram(
            "scoring_engine_seconds",
            "exact probability sweep (the engine compute)")
        self._h_shot_noise = self.metrics.histogram(
            "scoring_shot_noise_seconds",
            "per-member shot-noise draws + deviation scoring")

    # ---------------------------------------------------------------- scoring
    def _normalize(self, features: Union[np.ndarray, Sequence]) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.ndim == 1:
            features = features.reshape(1, -1)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError(
                "expected a (samples, features) matrix with at least one row")
        if features.shape[1] != self.artifact.num_features:
            raise ValueError(
                f"the model was fitted on {self.artifact.num_features} "
                f"features, got {features.shape[1]}"
            )
        return self.normalizer.transform(features)

    def _member_rng(self, index: int,
                    rngs: Optional[List[np.random.Generator]]
                    ) -> np.random.Generator:
        """Member ``index``'s generator: the caller's, or the shared one
        reset to its post-planning state (call under the engine lock)."""
        if rngs is not None:
            return rngs[index]
        rng = self._rngs[index]
        rng.bit_generator.state = self._rng_states[index]
        return rng

    def _chunk_p1(self, normalized: np.ndarray, start: int, stop: int,
                  rngs: Optional[List[np.random.Generator]]) -> np.ndarray:
        """``(members, levels, rows)`` P(1) of members ``start .. stop``.

        Exact for the fusable engines; trajectory engines draw their shots
        during evolution, from each member's generator.
        """
        amplitudes = chunk_amplitudes(normalized, self._features[start:stop],
                                      self.config.num_qubits)
        ansatzes = self._ansatzes[start:stop]
        if self._fusable:
            encoders = (None if self._encoders is None
                        else self._encoders[start:stop])
            return exact_chunk_p1(self._exact_engine, amplitudes, ansatzes,
                                  self.levels, encoders)
        return np.stack([
            config_engine(self.config, self.config.shots,
                          rng=self._member_rng(start + offset, rngs),
                          compiler=self.compiler).p1_levels_batch(
                member_amplitudes, ansatz, self.levels)
            for offset, (member_amplitudes, ansatz)
            in enumerate(zip(amplitudes, ansatzes))
        ])

    def _shot_noise(self, exact: np.ndarray, start: int,
                    rngs: Optional[List[np.random.Generator]]) -> np.ndarray:
        """One binomial draw per member, each on the member's own stream."""
        shots = self.config.shots
        if shots is None:
            return exact
        return np.stack([
            apply_shot_noise(member_exact, shots,
                             self._member_rng(start + offset, rngs))
            for offset, member_exact in enumerate(exact)
        ])

    def _deviations(self, p1_values: np.ndarray, start: int,
                    mode: str) -> np.ndarray:
        """``(members, rows)`` deviations, each member's levels summed from
        zero in level order, as the fit sums them."""
        if mode == "replay":
            stop = start + p1_values.shape[0]
            return chunk_bucket_scores(p1_values, self._labels[start:stop],
                                       self._num_buckets[start:stop])[1]
        deviations = np.zeros((p1_values.shape[0], p1_values.shape[2]))
        for position, reference in enumerate(self._references):
            deviations += reference.deviations(p1_values[:, position], start)
        return deviations

    def _run(self, normalized: np.ndarray,
             requests: Sequence[Tuple[slice, str]],
             rngs: Optional[List[np.random.Generator]] = None
             ) -> List[ScoreResult]:
        """Score each ``(row window, mode)`` request of ``normalized``.

        One pass over member chunks serves every request: the requests share
        each chunk's sweep, and each draws its own shot noise and scores its
        own rows.  Trajectory engines take exactly one request.
        """
        num_members = len(self._ansatzes)
        totals = [np.zeros(window.stop - window.start)
                  for window, _ in requests]
        scoring_s = [0.0] * len(requests)
        engine_s = 0.0
        size = members_per_chunk(normalized.shape[0])
        with self._engine_lock:
            for start in range(0, num_members, size):
                stop = min(start + size, num_members)
                begin = time.perf_counter()
                p1_values = self._chunk_p1(normalized, start, stop, rngs)
                engine_s += time.perf_counter() - begin
                for index, (window, mode) in enumerate(requests):
                    begin = time.perf_counter()
                    request_p1 = p1_values[:, :, window]
                    if self._fusable:
                        request_p1 = self._shot_noise(request_p1, start, rngs)
                    totals[index] = _add_members(
                        totals[index],
                        self._deviations(request_p1, start, mode))
                    scoring_s[index] += time.perf_counter() - begin
        self._h_engine.observe(engine_s)
        results = []
        for (_, mode), total, noise_s in zip(requests, totals, scoring_s):
            self._h_shot_noise.observe(noise_s)
            results.append(ScoreResult(
                scores=total, num_runs=num_members * len(self.levels),
                mode=mode, num_samples=total.shape[0],
                timings={"engine_compute": engine_s, "shot_noise": noise_s}))
        return results

    @staticmethod
    def _merge_timings(result: ScoreResult,
                       extra: Dict[str, float]) -> ScoreResult:
        merged = dict(extra)
        merged.update(result.timings or {})
        result.timings = merged
        return result

    def _count_request(self, result: ScoreResult) -> ScoreResult:
        with self._lock:
            self._stats["requests"] += 1
            self._stats["samples"] += result.num_samples
        self._m_requests.inc()
        self._m_samples.inc(result.num_samples)
        return result

    def _score_rows(self, normalized: np.ndarray, mode: str,
                    rngs: Optional[List[np.random.Generator]] = None
                    ) -> ScoreResult:
        result, = self._run(normalized,
                            [(slice(0, normalized.shape[0]), mode)], rngs)
        return self._count_request(result)

    def score(self, features: Union[np.ndarray, Sequence],
              mode: str = "reference") -> ScoreResult:
        """Score a batch of raw feature rows synchronously (no coalescing)."""
        self._check_mode(mode)
        normalized = self._normalize(features)
        self._check_replay_size(normalized.shape[0], mode)
        return self._score_rows(normalized, mode)

    # ------------------------------------------------------- stateful scoring
    def fresh_member_rngs(self) -> List[np.random.Generator]:
        """One restored post-planning generator per member.

        The seed state a *dedicated session* holds: passing these generators
        to :meth:`score_stateful` for every sequential request makes the
        member RNG streams advance across the session exactly as one long
        fit-time sweep would.
        """
        return [member.restored_rng() for member in self.artifact.members]

    def score_stateful(self, features: Union[np.ndarray, Sequence],
                       rngs: List[np.random.Generator],
                       mode: str = "reference") -> ScoreResult:
        """Score with caller-owned per-member generators, consumed in place.

        Unlike :meth:`score` (which resets each member's generator to its
        post-planning state *per request*, making requests independent),
        this advances the supplied generators -- the contract dedicated
        sessions build on:

        * the **first** request of a fresh generator set consumes the RNG
          exactly like :meth:`score`, so a full-training-set ``replay`` as
          the opening request is bitwise identical to the detector's fit;
        * two generator sets fed the same request sequence produce
          bitwise-identical score sequences (sticky determinism).

        The caller is responsible for sequencing: concurrent calls sharing
        one generator set would interleave draws nondeterministically.
        """
        self._check_mode(mode)
        if len(rngs) != len(self._ansatzes):
            raise ValueError(
                f"expected {len(self._ansatzes)} member generators, "
                f"got {len(rngs)}")
        normalized = self._normalize(features)
        self._check_replay_size(normalized.shape[0], mode)
        return self._score_rows(normalized, mode, rngs=rngs)

    # ----------------------------------------------------------- micro-batching
    def submit(self, features: Union[np.ndarray, Sequence],
               mode: str = "reference") -> "Future[ScoreResult]":
        """Queue a request for micro-batched execution; returns a future.

        Concurrent submissions are coalesced into one batch that shares each
        member chunk's sweep; results are bitwise identical to calling
        :meth:`score` per request.
        """
        self._check_mode(mode)
        normalized = self._normalize(features)
        self._check_replay_size(normalized.shape[0], mode)
        request = _Request(normalized, mode)
        with self._queue_cond:
            if self._closed:
                raise RuntimeError("the scorer has been closed")
            self._queue.append(request)
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(target=self._worker_loop,
                                                name="quorum-scorer",
                                                daemon=True)
                self._worker.start()
            self._queue_cond.notify_all()
        return request.future

    @staticmethod
    def _check_mode(mode: str) -> None:
        if mode not in SCORING_MODES:
            raise ValueError(
                f"unknown scoring mode {mode!r}; expected one of {SCORING_MODES}")

    def _check_replay_size(self, num_samples: int, mode: str) -> None:
        """Reject a wrong-sized replay request *before* any simulation runs."""
        if mode == "replay" and num_samples != self.artifact.num_samples:
            raise ValueError(
                f"replay mode requires the full training set of "
                f"{self.artifact.num_samples} samples (got {num_samples}); "
                "use mode='reference' for unseen data"
            )

    def _drain_batch(self) -> List[_Request]:
        """Pop queued requests up to the sample budget (at least one)."""
        batch: List[_Request] = []
        budget = self.max_batch_samples
        while self._queue:
            pending = self._queue[0]
            rows = pending.normalized.shape[0]
            if batch and rows > budget:
                break
            batch.append(self._queue.pop(0))
            budget -= rows
        return batch

    def _worker_loop(self) -> None:
        while True:
            with self._queue_cond:
                while not self._queue and not self._closed:
                    self._queue_cond.wait()
                if self._closed and not self._queue:
                    return
            # An optional window lets a concurrent burst accumulate before
            # draining; without it, requests that arrive while a batch runs
            # form the next batch.
            if self.batch_window_s:
                time.sleep(self.batch_window_s)
            with self._queue_cond:
                batch = self._drain_batch()
            if batch:
                self._execute_batch(batch)

    def _execute_batch(self, batch: List[_Request]) -> None:
        batch = [request for request in batch
                 if not request.future.cancelled()]
        if not batch:
            return
        batch_start = time.perf_counter()
        queue_waits = {id(request): batch_start - request.enqueued_at
                       for request in batch}
        for wait_s in queue_waits.values():
            self._h_queue_wait.observe(wait_s)
        with self._lock:
            self._stats["batches"] += 1
            self._stats["coalesced_requests"] += len(batch)
        self._m_batches.inc()
        if not self._fusable:
            # Trajectory engines draw during evolution: one request at a time.
            for request in batch:
                self._resolve(
                    request,
                    lambda req=request: self._merge_timings(
                        self._score_rows(req.normalized, req.mode),
                        {"queue_wait": queue_waits[id(req)]}))
            return
        try:
            assembly_start = time.perf_counter()
            stacked = np.concatenate([request.normalized for request in batch])
            windows = []
            offset = 0
            for request in batch:
                rows = request.normalized.shape[0]
                windows.append((slice(offset, offset + rows), request.mode))
                offset += rows
            assembly_s = time.perf_counter() - assembly_start
            self._h_assembly.observe(assembly_s)
            results = self._run(stacked, windows)
        except Exception as error:  # pragma: no cover - defensive
            for request in batch:
                if not request.future.cancelled():
                    try:
                        request.future.set_exception(error)
                    except Exception:
                        pass
            return
        for request, result in zip(batch, results):
            # Batch-level spans (assembly, engine) are shared by every
            # coalesced request; queue wait is each request's own.
            stages = {"queue_wait": queue_waits[id(request)],
                      "batch_assembly": assembly_s}
            self._resolve(request,
                          lambda r=result, t=stages: self._count_request(
                              self._merge_timings(r, t)))

    @staticmethod
    def _resolve(request: _Request, producer) -> None:
        future = request.future
        if future.cancelled():
            # The client gave up (e.g. an HTTP timeout); skip the work.
            return
        try:
            result = producer()
        except Exception as error:
            if not future.cancelled():
                try:
                    future.set_exception(error)
                except Exception:  # racing cancel between check and set
                    pass
            return
        if not future.cancelled():
            try:
                future.set_result(result)
            except Exception:  # racing cancel between check and set
                pass

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Stop the micro-batch worker; queued requests are still completed."""
        with self._queue_cond:
            self._closed = True
            self._queue_cond.notify_all()
            worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout=10.0)

    def __enter__(self) -> "OnlineScorer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------- diagnostics
    def diagnostics(self) -> Dict[str, object]:
        """Operator diagnostics: model summary, serving counters, cache stats.

        ``GET /v1/models/{id}`` serves the ``serving`` and
        ``compiler_cache`` blocks so operators can verify warm-cache serving
        (``compiler_cache.hits`` growing while ``compiles`` stays flat across
        requests).
        """
        with self._lock:
            serving = dict(self._stats)
        stats = self.compiler.stats
        return {
            "model": self.artifact.summary(),
            "serving": {
                **serving,
                "max_batch_samples": self.max_batch_samples,
                "batch_window_s": self.batch_window_s,
                "micro_batch_fusion": self._fusable,
            },
            "compiler_cache": {
                "compiles": stats.compiles,
                "hits": stats.hits,
                "misses": stats.misses,
                "fallbacks": stats.fallbacks,
                "entries": self.compiler.cache_size(),
                "bytes": self.compiler.cache_bytes(),
            },
        }
