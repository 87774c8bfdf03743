"""Serving subsystem: artifacts, online scoring, and the runtime service.

The batch pipeline (``QuorumDetector.fit``) is a train-once step; this package
is the score-many half:

* :mod:`repro.serving.artifact` -- ``save_model`` / ``load_model`` persist a
  fitted ensemble (member plans, RNG snapshots, bucket reference statistics)
  as a versioned JSON bundle that restores in a fresh process without
  refitting.
* :mod:`repro.serving.scorer` -- :class:`OnlineScorer` scores unseen samples
  against the frozen ensemble in stacked member chunks, coalescing
  concurrent requests into micro-batches while keeping results bitwise
  independent of batching.
* :mod:`repro.serving.models` -- typed request/response models and the
  stable error codes of the versioned ``/v1`` HTTP API.
* :mod:`repro.serving.registry` -- :class:`ModelRegistry`: several loaded
  artifacts keyed by id/sha256, all sharing one compiler cache.
* :mod:`repro.serving.jobs` -- :class:`JobManager`: async long-running work
  (``replay_dataset``, ``score``, ``fit``) with polling, cancellation, and
  TTL-based garbage collection.
* :mod:`repro.serving.sessions` -- :class:`SessionManager`: sticky scoring
  sessions (``dedicated`` sequential-deterministic vs ``batch``
  micro-batched) with idle TTL expiry.
* :mod:`repro.serving.server` -- the stdlib-only ``quorum-repro serve``
  HTTP service fronting all of the above under ``/v1/``; see
  ``docs/API.md``.
* :mod:`repro.serving.proxy` -- :class:`RoundRobinProxy`: a request-level
  round-robin HTTP proxy fanning one client-facing port across K replica
  backends, with health checks, failover, and per-replica request counts.
* :mod:`repro.serving.loadtest` -- closed-loop load generation
  (:func:`run_closed_loop`), subprocess replica fleets
  (:class:`ReplicaFleet` over :class:`ReplicaProcess` handles), and the
  ``quorum-repro loadtest`` orchestrator (:func:`run_loadtest`) producing
  saturation curves, 1->K scale-out efficiency, and knee-derived batching
  suggestions.
* :mod:`repro.serving.supervisor` -- :class:`FleetSupervisor`: the
  self-healing control loop behind ``quorum-repro fleet`` (health-based
  eject/re-admit, crash restarts with backoff + circuit breaker, graceful
  drain on scale-in, machine-readable status).
* :mod:`repro.serving.faults` -- :class:`FaultInjector` and
  :class:`ChaosGate`: process signals, connection-refused and mid-response
  network faults, and the server's delay hook -- the chaos-suite toolkit
  that proves the supervisor's recovery paths.
* :mod:`repro.serving.telemetry` -- :class:`MetricsRegistry` (thread-safe
  counters/gauges/histograms behind ``GET /v1/metrics``, JSON + Prometheus),
  request tracing (``X-Request-Id`` / ``X-Timing``), and the supervisor's
  :class:`FlightRecorder` event ring.
"""

from repro.serving.artifact import (
    ARTIFACT_FORMAT,
    SCHEMA_VERSION,
    ArtifactCorruptError,
    ArtifactDtypeError,
    ArtifactError,
    ArtifactVersionError,
    MemberArtifact,
    ModelArtifact,
    load_model,
    save_model,
)
from repro.serving.faults import ChaosGate, FaultInjector
from repro.serving.jobs import Job, JobManager
from repro.serving.loadtest import (
    ReplicaFleet,
    ReplicaProcess,
    ReplicaSpawnError,
    run_closed_loop,
    run_loadtest,
    spawn_replica,
)
from repro.serving.models import (
    ERROR_STATUS,
    JOB_KINDS,
    SESSION_MODES,
    ApiError,
    ErrorEnvelope,
    JobInfo,
    JobSubmitRequest,
    ModelInfo,
    ModelLoadRequest,
    ScoreRequest,
    ScoreResponse,
    SessionCreateRequest,
    SessionInfo,
)
from repro.serving.proxy import ProxyError, RoundRobinProxy
from repro.serving.registry import ModelRegistry, RegisteredModel
from repro.serving.scorer import SCORING_MODES, OnlineScorer, ScoreResult
from repro.serving.server import (
    QuorumHTTPServer,
    ServerRuntime,
    build_server,
    run_server,
)
from repro.serving.sessions import Session, SessionManager
from repro.serving.supervisor import (
    REPLICA_STATES,
    FleetSupervisor,
    ReplicaSlot,
    SupervisorPolicy,
)
from repro.serving.telemetry import (
    WELL_KNOWN_METRICS,
    Counter,
    FlightRecorder,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    new_request_id,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "SCHEMA_VERSION",
    "ArtifactError",
    "ArtifactCorruptError",
    "ArtifactVersionError",
    "ArtifactDtypeError",
    "MemberArtifact",
    "ModelArtifact",
    "save_model",
    "load_model",
    "ERROR_STATUS",
    "JOB_KINDS",
    "SESSION_MODES",
    "ApiError",
    "ErrorEnvelope",
    "JobInfo",
    "JobSubmitRequest",
    "ModelInfo",
    "ModelLoadRequest",
    "ScoreRequest",
    "ScoreResponse",
    "SessionCreateRequest",
    "SessionInfo",
    "Job",
    "JobManager",
    "ModelRegistry",
    "RegisteredModel",
    "Session",
    "SessionManager",
    "SCORING_MODES",
    "OnlineScorer",
    "ScoreResult",
    "ServerRuntime",
    "QuorumHTTPServer",
    "build_server",
    "run_server",
    "ProxyError",
    "RoundRobinProxy",
    "ReplicaFleet",
    "ReplicaProcess",
    "ReplicaSpawnError",
    "spawn_replica",
    "run_closed_loop",
    "run_loadtest",
    "REPLICA_STATES",
    "FleetSupervisor",
    "ReplicaSlot",
    "SupervisorPolicy",
    "ChaosGate",
    "FaultInjector",
    "WELL_KNOWN_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FlightRecorder",
    "default_registry",
    "new_request_id",
]
