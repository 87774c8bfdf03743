"""Multi-model registry: several loaded artifacts, one compiler cache.

:class:`ModelRegistry` is the process-wide table of served models.  Each
entry pairs a loaded :class:`~repro.serving.artifact.ModelArtifact` with a
live :class:`~repro.serving.scorer.OnlineScorer`, keyed by a **model id**
(caller-chosen, or derived from the artifact's canonical sha256) and
resolvable by the full sha256 as well.

Every scorer the registry builds shares ONE :class:`CircuitCompiler`: the
compiled-program LRU is keyed by (circuit signature, noise fingerprint,
backend dtype), so two registered artifacts that share members -- e.g. the
same bundle loaded under two ids, or a replica fleet's common model -- reuse
each other's compiled circuit programs and suffix observables (analytic
models compile nothing).  The registry's
``diagnostics`` exposes the shared cache counters so tests (and operators)
can prove the reuse.

All mutating and reading methods are lock-protected; entries are handed out
as :class:`RegisteredModel` references whose scorers are themselves
thread-safe.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.quantum.compiler import CircuitCompiler, default_compiler
from repro.serving.artifact import ArtifactError, ModelArtifact, load_model
from repro.serving.models import ApiError, ModelInfo
from repro.serving.scorer import OnlineScorer

__all__ = ["RegisteredModel", "ModelRegistry"]

#: Leading hex digits of the canonical sha256 used as a derived model id.
ID_DIGEST_CHARS = 12


@dataclass
class RegisteredModel:
    """One served model: artifact + live scorer + identity metadata."""

    model_id: str
    sha256: str
    artifact: ModelArtifact
    scorer: OnlineScorer
    path: Optional[str] = None
    loaded_at: float = field(default_factory=time.time)

    def info(self, is_default: bool = False) -> ModelInfo:
        return ModelInfo(
            model_id=self.model_id,
            sha256=self.sha256,
            path=self.path,
            loaded_at=self.loaded_at,
            is_default=is_default,
            summary=self.artifact.summary(),
        )


class ModelRegistry:
    """Thread-safe table of loaded models sharing one compiler cache.

    Parameters
    ----------
    compiler:
        The compiled-program cache every scorer uses; defaults to the
        process-wide shared instance.  Tests pass a private compiler so the
        hit/miss counters can be asserted in isolation.
    scorer_kwargs:
        Extra keyword arguments applied to every :class:`OnlineScorer` the
        registry builds (batching knobs from the CLI).
    clock:
        Injectable time source for ``loaded_at`` stamps (tests).
    """

    def __init__(self, compiler: Optional[CircuitCompiler] = None,
                 scorer_kwargs: Optional[dict] = None,
                 clock: Callable[[], float] = time.time) -> None:
        self.compiler = compiler if compiler is not None else default_compiler()
        self._scorer_kwargs = dict(scorer_kwargs or {})
        self._clock = clock
        self._lock = threading.RLock()
        self._models: "OrderedDict[str, RegisteredModel]" = OrderedDict()
        self._closed = False

    # ----------------------------------------------------------------- loading
    def load(self, path: Union[str, Path],
             model_id: Optional[str] = None) -> RegisteredModel:
        """Load an artifact bundle from ``path`` and register it.

        Raises ``ApiError(bad_request)`` when the bundle fails validation and
        ``ApiError(model_exists)`` when ``model_id`` is already taken by a
        *different* artifact.  Re-loading identical content under the same
        (or derived) id is idempotent and returns the existing entry.
        """
        try:
            artifact = load_model(path)
        except ArtifactError as error:
            raise ApiError("bad_request",
                           f"cannot load model artifact: {error}",
                           detail={"path": str(path)}) from None
        return self.register(artifact, model_id=model_id, path=str(path))

    def register(self, artifact: ModelArtifact,
                 model_id: Optional[str] = None,
                 path: Optional[str] = None) -> RegisteredModel:
        """Register an in-memory artifact (the fit-as-a-job entry point)."""
        sha256 = artifact.content_sha256()
        with self._lock:
            if self._closed:
                raise ApiError("shutting_down", "the registry is closed")
            resolved_id = model_id or sha256[:ID_DIGEST_CHARS]
            existing = self._models.get(resolved_id)
            if existing is not None:
                if existing.sha256 == sha256:
                    return existing  # idempotent re-load of identical content
                raise ApiError(
                    "model_exists",
                    f"model id {resolved_id!r} is already registered with "
                    f"different content",
                    detail={"model_id": resolved_id,
                            "registered_sha256": existing.sha256,
                            "offered_sha256": sha256},
                )
            scorer = OnlineScorer(artifact, compiler=self.compiler,
                                  **self._scorer_kwargs)
            entry = RegisteredModel(model_id=resolved_id, sha256=sha256,
                                    artifact=artifact, scorer=scorer,
                                    path=path, loaded_at=self._clock())
            self._models[resolved_id] = entry
            return entry

    def adopt_scorer(self, scorer: OnlineScorer,
                     model_id: Optional[str] = None,
                     path: Optional[str] = None) -> RegisteredModel:
        """Register a prebuilt scorer (keeps its compiler/batching setup).

        Back-compat path for callers that construct an :class:`OnlineScorer`
        themselves; the scorer's compiler may differ from the registry's.
        """
        sha256 = scorer.artifact.content_sha256()
        with self._lock:
            if self._closed:
                raise ApiError("shutting_down", "the registry is closed")
            resolved_id = model_id or sha256[:ID_DIGEST_CHARS]
            if resolved_id in self._models:
                raise ApiError("model_exists",
                               f"model id {resolved_id!r} is already "
                               "registered",
                               detail={"model_id": resolved_id})
            entry = RegisteredModel(model_id=resolved_id, sha256=sha256,
                                    artifact=scorer.artifact, scorer=scorer,
                                    path=path, loaded_at=self._clock())
            self._models[resolved_id] = entry
            return entry

    def unload(self, model_id: str) -> RegisteredModel:
        """Remove a model and close its scorer (in-flight requests finish)."""
        with self._lock:
            entry = self._resolve(model_id)
            del self._models[entry.model_id]
        entry.scorer.close()
        return entry

    # ---------------------------------------------------------------- lookups
    def _resolve(self, key: Optional[str]) -> RegisteredModel:
        """Entry for an id or full sha256; ``None`` means the default model."""
        if key is None:
            if not self._models:
                raise ApiError("model_not_found", "no model is loaded")
            return next(iter(self._models.values()))
        entry = self._models.get(key)
        if entry is not None:
            return entry
        for candidate in self._models.values():
            if candidate.sha256 == key:
                return candidate
        raise ApiError("model_not_found", f"no model with id {key!r}",
                       detail={"model_id": key,
                               "loaded": list(self._models)})

    def get(self, model_id: Optional[str] = None) -> RegisteredModel:
        """Entry by id/sha256 (``None`` -> the default: first loaded model)."""
        with self._lock:
            return self._resolve(model_id)

    def default_id(self) -> Optional[str]:
        with self._lock:
            return next(iter(self._models), None)

    def ids(self) -> List[str]:
        with self._lock:
            return list(self._models)

    def list(self) -> List[RegisteredModel]:
        with self._lock:
            return list(self._models.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    # ------------------------------------------------------------ diagnostics
    def diagnostics(self) -> Dict[str, object]:
        """Registry-wide view incl. the shared compiler-cache counters."""
        stats = self.compiler.stats
        with self._lock:
            models = [entry.info(is_default=(index == 0)).to_json()
                      for index, entry in enumerate(self._models.values())]
        return {
            "models": models,
            "compiler_cache": {
                "compiles": stats.compiles,
                "hits": stats.hits,
                "misses": stats.misses,
                "fallbacks": stats.fallbacks,
                "entries": self.compiler.cache_size(),
                "bytes": self.compiler.cache_bytes(),
            },
        }

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close every scorer; subsequent loads raise ``shutting_down``."""
        with self._lock:
            self._closed = True
            entries = list(self._models.values())
            self._models.clear()
        for entry in entries:
            entry.scorer.close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
