"""Typed request/response models for the versioned serving API.

Every ``/v1`` route speaks one of these dataclasses -- the HTTP layer
(:mod:`repro.serving.server`) is a thin router that decodes a request body
with ``from_json`` (strict validation, unknown keys rejected), hands the
typed object to a manager, and encodes the manager's typed reply with
``to_json``.  No handler builds a response dict by hand.

Failures are uniform: anything a client can cause raises :class:`ApiError`
carrying a **stable error code** from :data:`ERROR_STATUS`; the server
serializes it as the one error envelope::

    {"error": {"code": "model_not_found", "message": "...", "detail": ...}}

The codes (not the messages) are the contract -- clients branch on
``error.code``, messages are free to improve.  ``docs/API.md`` documents the
code <-> HTTP-status mapping per route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "ERROR_STATUS",
    "JOB_KINDS",
    "JOB_STATES",
    "SESSION_MODES",
    "ApiError",
    "ErrorEnvelope",
    "ScoreRequest",
    "ScoreResponse",
    "ModelLoadRequest",
    "ModelInfo",
    "ModelListResponse",
    "JobSubmitRequest",
    "JobInfo",
    "JobListResponse",
    "JobResultResponse",
    "SessionCreateRequest",
    "SessionInfo",
    "SessionListResponse",
    "HealthResponse",
]

#: Stable error codes -> HTTP status.  Codes are the client contract; adding a
#: code is backward compatible, changing a mapping is not.
ERROR_STATUS: Dict[str, int] = {
    "bad_request": 400,
    "not_found": 404,
    "method_not_allowed": 405,
    "model_not_found": 404,
    "model_exists": 409,
    "job_not_found": 404,
    "job_not_done": 409,
    "session_not_found": 404,
    "session_expired": 410,
    "payload_too_large": 413,
    "shutting_down": 503,
    "timeout": 504,
    "internal": 500,
}

#: Work kinds `POST /v1/jobs` accepts (see repro.serving.jobs).
JOB_KINDS = ("replay_dataset", "score", "fit")

#: Lifecycle states a job moves through (terminal: succeeded/failed/cancelled).
JOB_STATES = ("queued", "running", "succeeded", "failed", "cancelled")

#: Session execution modes (see repro.serving.sessions).
SESSION_MODES = ("dedicated", "batch")


class ApiError(Exception):
    """A client-visible failure with a stable code and an HTTP status.

    Raised by the managers (registry/jobs/sessions) and by request
    validation; the server turns it into the uniform error envelope.
    """

    def __init__(self, code: str, message: str, detail: object = None) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown API error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.detail = detail

    @property
    def http_status(self) -> int:
        return ERROR_STATUS[self.code]

    def envelope(self) -> "ErrorEnvelope":
        return ErrorEnvelope(code=self.code, message=self.message,
                             detail=self.detail)


@dataclass
class ErrorEnvelope:
    """The single error shape every route emits on failure."""

    code: str
    message: str
    detail: object = None

    def to_json(self) -> Dict[str, object]:
        return {"error": {"code": self.code, "message": self.message,
                          "detail": self.detail}}

    @classmethod
    def from_json(cls, payload: Mapping) -> "ErrorEnvelope":
        body = _require_mapping(payload, "error envelope").get("error")
        body = _require_mapping(body, "error")
        return cls(code=str(body.get("code", "internal")),
                   message=str(body.get("message", "")),
                   detail=body.get("detail"))


# --------------------------------------------------------------------- helpers
def _bad(message: str, detail: object = None) -> ApiError:
    return ApiError("bad_request", message, detail)


def _require_mapping(payload, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise _bad(f"{what} must be a JSON object, got "
                   f"{type(payload).__name__}")
    return payload


def _reject_unknown(payload: Mapping, allowed: Tuple[str, ...],
                    what: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise _bad(f"unknown field(s) {unknown} in {what}",
                   detail={"allowed": list(allowed)})


def _optional_str(payload: Mapping, key: str, what: str) -> Optional[str]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, str) or not value:
        raise _bad(f"{what}.{key} must be a non-empty string")
    return value


def _choice(value: str, choices: Tuple[str, ...], what: str) -> str:
    if value not in choices:
        raise _bad(f"unknown {what} {value!r}; expected one of {choices}")
    return value


# ------------------------------------------------------------------- requests
@dataclass
class ScoreRequest:
    """Body of ``POST /v1/models/{id}/score``.

    ``samples`` stays the raw nested-list payload -- numeric/shape validation
    belongs to the scorer, which knows the model's feature width.
    """

    samples: List
    mode: str = "reference"

    _FIELDS = ("samples", "mode")

    @classmethod
    def from_json(cls, payload) -> "ScoreRequest":
        payload = _require_mapping(payload, "score request")
        _reject_unknown(payload, cls._FIELDS, "score request")
        if "samples" not in payload:
            raise _bad('score request must carry a "samples" matrix')
        samples = payload["samples"]
        if not isinstance(samples, list) or not samples:
            raise _bad("samples must be a non-empty list of feature rows")
        mode = payload.get("mode", "reference")
        if not isinstance(mode, str):
            raise _bad("mode must be a string")
        return cls(samples=samples,
                   mode=_choice(mode, ("reference", "replay"), "scoring mode"))

    def to_json(self) -> Dict[str, object]:
        return {"samples": self.samples, "mode": self.mode}


@dataclass
class ModelLoadRequest:
    """Body of ``POST /v1/models``: load an artifact from a server-side path."""

    path: str
    model_id: Optional[str] = None

    _FIELDS = ("path", "model_id")

    @classmethod
    def from_json(cls, payload) -> "ModelLoadRequest":
        payload = _require_mapping(payload, "model load request")
        _reject_unknown(payload, cls._FIELDS, "model load request")
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise _bad('model load request must carry a non-empty "path"')
        return cls(path=path,
                   model_id=_optional_str(payload, "model_id",
                                          "model load request"))

    def to_json(self) -> Dict[str, object]:
        return {"path": self.path, "model_id": self.model_id}


@dataclass
class JobSubmitRequest:
    """Body of ``POST /v1/jobs``.

    ``params`` is kind-specific and validated by the job manager (it owns the
    kind registry); this model only guarantees the shape of the wrapper.
    """

    kind: str
    model_id: Optional[str] = None
    params: Dict[str, object] = field(default_factory=dict)

    _FIELDS = ("kind", "model_id", "params")

    @classmethod
    def from_json(cls, payload) -> "JobSubmitRequest":
        payload = _require_mapping(payload, "job request")
        _reject_unknown(payload, cls._FIELDS, "job request")
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise _bad('job request must carry a "kind" string')
        params = payload.get("params", {})
        params = dict(_require_mapping(params, "job request params"))
        return cls(kind=_choice(kind, JOB_KINDS, "job kind"),
                   model_id=_optional_str(payload, "model_id", "job request"),
                   params=params)

    def to_json(self) -> Dict[str, object]:
        return {"kind": self.kind, "model_id": self.model_id,
                "params": self.params}


@dataclass
class SessionCreateRequest:
    """Body of ``POST /v1/sessions``."""

    model_id: Optional[str] = None
    mode: str = "batch"
    ttl_s: Optional[float] = None

    _FIELDS = ("model_id", "mode", "ttl_s")

    @classmethod
    def from_json(cls, payload) -> "SessionCreateRequest":
        payload = _require_mapping(payload, "session request")
        _reject_unknown(payload, cls._FIELDS, "session request")
        mode = payload.get("mode", "batch")
        if not isinstance(mode, str):
            raise _bad("mode must be a string")
        ttl = payload.get("ttl_s")
        if ttl is not None:
            if isinstance(ttl, bool) or not isinstance(ttl, (int, float)):
                raise _bad("ttl_s must be a number of seconds")
            if ttl <= 0:
                raise _bad("ttl_s must be positive")
            ttl = float(ttl)
        return cls(model_id=_optional_str(payload, "model_id",
                                          "session request"),
                   mode=_choice(mode, SESSION_MODES, "session mode"),
                   ttl_s=ttl)

    def to_json(self) -> Dict[str, object]:
        return {"model_id": self.model_id, "mode": self.mode,
                "ttl_s": self.ttl_s}


# ------------------------------------------------------------------ responses
@dataclass
class ScoreResponse:
    """Scores for one request, tagged with the model that produced them."""

    scores: List[float]
    num_runs: int
    num_samples: int
    mode: str
    model_id: str
    schema_version: int

    def to_json(self) -> Dict[str, object]:
        return {
            "scores": list(self.scores),
            "num_runs": self.num_runs,
            "num_samples": self.num_samples,
            "mode": self.mode,
            "schema_version": self.schema_version,
            "model_id": self.model_id,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "ScoreResponse":
        payload = _require_mapping(payload, "score response")
        return cls(scores=[float(s) for s in payload["scores"]],
                   num_runs=int(payload["num_runs"]),
                   num_samples=int(payload["num_samples"]),
                   mode=str(payload["mode"]),
                   model_id=str(payload.get("model_id", "")),
                   schema_version=int(payload["schema_version"]))


@dataclass
class ModelInfo:
    """One registry entry (``GET /v1/models`` items, ``POST /v1/models`` reply)."""

    model_id: str
    sha256: str
    path: Optional[str]
    loaded_at: float
    is_default: bool
    summary: Dict[str, object]

    def to_json(self) -> Dict[str, object]:
        return {
            "model_id": self.model_id,
            "sha256": self.sha256,
            "path": self.path,
            "loaded_at": self.loaded_at,
            "is_default": self.is_default,
            "summary": dict(self.summary),
        }


@dataclass
class ModelListResponse:
    models: List[ModelInfo]
    default_model: Optional[str]

    def to_json(self) -> Dict[str, object]:
        return {"models": [model.to_json() for model in self.models],
                "default_model": self.default_model}


@dataclass
class JobInfo:
    """Job status (``GET /v1/jobs/{id}``); ``result`` only via ``/result``."""

    job_id: str
    kind: str
    status: str
    model_id: Optional[str]
    created_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[Dict[str, object]] = None
    #: Submit-to-start wait and start-to-finish run time in seconds (None
    #: until the corresponding lifecycle edge has happened).
    queued_s: Optional[float] = None
    run_s: Optional[float] = None

    def to_json(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "model_id": self.model_id,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "queued_s": self.queued_s,
            "run_s": self.run_s,
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "JobInfo":
        payload = _require_mapping(payload, "job info")
        return cls(job_id=str(payload["job_id"]),
                   kind=str(payload["kind"]),
                   status=str(payload["status"]),
                   model_id=payload.get("model_id"),
                   created_at=float(payload["created_at"]),
                   started_at=payload.get("started_at"),
                   finished_at=payload.get("finished_at"),
                   error=payload.get("error"),
                   queued_s=payload.get("queued_s"),
                   run_s=payload.get("run_s"))


@dataclass
class JobListResponse:
    jobs: List[JobInfo]

    def to_json(self) -> Dict[str, object]:
        return {"jobs": [job.to_json() for job in self.jobs]}


@dataclass
class JobResultResponse:
    """``GET /v1/jobs/{id}/result`` -- the payload of a succeeded job."""

    job_id: str
    kind: str
    result: Dict[str, object]

    def to_json(self) -> Dict[str, object]:
        return {"job_id": self.job_id, "kind": self.kind,
                "result": dict(self.result)}


@dataclass
class SessionInfo:
    """Session state (``POST /v1/sessions`` reply, ``GET /v1/sessions/{id}``)."""

    session_id: str
    model_id: str
    mode: str
    ttl_s: float
    created_at: float
    last_used_at: float
    requests: int

    def to_json(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "model_id": self.model_id,
            "mode": self.mode,
            "ttl_s": self.ttl_s,
            "created_at": self.created_at,
            "last_used_at": self.last_used_at,
            "requests": self.requests,
        }


@dataclass
class SessionListResponse:
    sessions: List[SessionInfo]

    def to_json(self) -> Dict[str, object]:
        return {"sessions": [session.to_json() for session in self.sessions]}


@dataclass
class HealthResponse:
    """``GET /v1/healthz`` -- liveness plus registry/job/session counts."""

    status: str
    api_version: str
    models: List[str]
    default_model: Optional[str]
    jobs: Dict[str, int]
    sessions: int

    def to_json(self) -> Dict[str, object]:
        return {
            "status": self.status,
            "api_version": self.api_version,
            "models": list(self.models),
            "default_model": self.default_model,
            "jobs": dict(self.jobs),
            "sessions": self.sessions,
        }
