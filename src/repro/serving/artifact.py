"""Persistent model artifacts: save a fitted detector, restore a scorer.

The Quorum detector is transductive -- ``fit`` scores the dataset it is given
-- but everything an ensemble member *is* (feature subset, bucket partition,
random ansatz angles, post-planning RNG state, fit-time bucket statistics) is
frozen the moment planning finishes.  This module serializes that frozen state
into a versioned on-disk bundle so a fresh process can score new samples (or
bit-identically replay the training set) without refitting:

* :func:`save_model` writes a fitted :class:`~repro.core.detector.QuorumDetector`
  (or a prebuilt :class:`ModelArtifact`) to one JSON file.
* :func:`load_model` reads the bundle back with strict validation -- corrupt
  files, schema-version mismatches, and dtype mismatches raise dedicated
  errors instead of producing silently wrong scores.
* :class:`ModelArtifact` is the in-memory form: it rebuilds the fitted
  normalizer, each member's :class:`~repro.core.ensemble.MemberPlan`, and each
  member's frozen per-level bucket reference statistics for the online scorer
  (:mod:`repro.serving.scorer`).

The bundle also records the noise-model fingerprint the ensemble was fitted
under and the library versions that produced it.  The fingerprint is
re-derived from the stored config at load time and compared, so a noisy model
saved under one calibration cannot silently serve under another.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.bucketing import BucketAssignment
from repro.core.config import QuorumConfig
from repro.core.detector import QuorumDetector
from repro.core.ensemble import MemberPlan
from repro.encoding.normalization import QuorumNormalizer
from repro.utils.serialization import (
    coerce_float_array,
    coerce_int_array,
    to_jsonable,
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
    "noise_fingerprint_hex",
]

#: Format marker written into (and required from) every bundle.
ARTIFACT_FORMAT = "quorum-repro/model"

#: Bump on any change to the bundle layout that an old loader cannot read.
SCHEMA_VERSION = 1


class ArtifactError(Exception):
    """Base class for every model-artifact failure."""


class ArtifactCorruptError(ArtifactError):
    """The bundle is unreadable or structurally broken (bad JSON, missing keys)."""


class ArtifactVersionError(ArtifactError):
    """The bundle's schema version is not one this loader understands."""


class ArtifactDtypeError(ArtifactError):
    """A stored array failed strict dtype/shape validation."""


def noise_fingerprint_hex(config: QuorumConfig) -> Optional[str]:
    """Content hash of the noise model ``config`` fits under (``None`` if noiseless).

    Serialized into the bundle and re-derived at load time: a mismatch means
    the noise calibration changed between save and load, which would silently
    shift every noisy probability the scorer produces.
    """
    if not config.noisy:
        return None
    from repro.quantum.backends import FakeBrisbane

    model = FakeBrisbane(num_qubits=config.total_circuit_qubits).to_noise_model()
    return hashlib.sha256(repr(model.fingerprint()).encode()).hexdigest()


def _library_versions() -> Dict[str, str]:
    import repro

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "quorum-repro": repro.__version__,
    }


def _require(payload: Mapping, key: str, context: str):
    if not isinstance(payload, Mapping):
        raise ArtifactCorruptError(f"model artifact field {context} is not an "
                                   "object")
    if key not in payload:
        raise ArtifactCorruptError(f"model artifact is missing {context}.{key}")
    return payload[key]


def _float_array(value, name: str, shape=None) -> np.ndarray:
    try:
        return coerce_float_array(value, name=name, shape=shape)
    except TypeError as error:
        raise ArtifactDtypeError(str(error)) from None
    except ValueError as error:
        raise ArtifactDtypeError(str(error)) from None


def _int_array(value, name: str, shape=None) -> np.ndarray:
    try:
        return coerce_int_array(value, name=name, shape=shape)
    except TypeError as error:
        raise ArtifactDtypeError(str(error)) from None
    except ValueError as error:
        raise ArtifactDtypeError(str(error)) from None


def _int_scalar(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ArtifactDtypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass
class MemberArtifact:
    """One frozen ensemble member: plan state plus fit-time reference statistics.

    Attributes
    ----------
    member_index / member_seed:
        Position and seed of the member (diagnostics; the stored state is
        authoritative, the seed is never re-derived from).
    selected_features:
        Feature indices of the member's random projection.
    bucket_size / buckets:
        The member's fit-time random partition of training-sample indices.
    angles:
        The random ansatz angles drawn at planning time.
    rng_state:
        Bit-generator state of the member RNG immediately after planning --
        restoring a generator from it replays fit-time shot noise bit for bit.
    reference:
        Per-compression-level per-bucket ``(means, stds)`` of the fit-time
        SWAP-test outputs; the frozen statistics unseen samples are scored
        against.
    """

    member_index: int
    member_seed: int
    selected_features: np.ndarray
    bucket_size: int
    buckets: Tuple[Tuple[int, ...], ...]
    angles: np.ndarray
    rng_state: Dict[str, object]
    reference: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict)

    def bucket_assignment(self) -> BucketAssignment:
        """The member's fit-time bucket partition."""
        return BucketAssignment(buckets=self.buckets)

    def build_ansatz(self, config: QuorumConfig) -> RandomAutoencoderAnsatz:
        """Rebuild the member's ansatz from the stored angles (never re-drawn)."""
        return RandomAutoencoderAnsatz(
            num_qubits=config.num_qubits,
            num_layers=config.num_layers,
            entanglement=config.entanglement,
            angles_=self.angles,
        )

    def restored_rng(self) -> np.random.Generator:
        """A fresh generator positioned exactly after the member's planning draws."""
        state = json.loads(json.dumps(self.rng_state))  # defensive deep copy
        bit_generator_name = state.get("bit_generator", "PCG64")
        bit_generator_cls = getattr(np.random, str(bit_generator_name), None)
        # The subclass check matters: np.random holds plenty of callables
        # (seed, normal, ...) besides bit generators, and a corrupt artifact
        # must not be able to invoke an arbitrary one of them.
        if not (isinstance(bit_generator_cls, type)
                and issubclass(bit_generator_cls, np.random.BitGenerator)):
            raise ArtifactCorruptError(
                f"unknown bit generator {bit_generator_name!r} in member "
                f"{self.member_index}"
            )
        rng = np.random.Generator(bit_generator_cls())
        try:
            rng.bit_generator.state = state
        except (KeyError, TypeError, ValueError) as error:
            raise ArtifactCorruptError(
                f"invalid RNG state for member {self.member_index}: {error}"
            ) from None
        return rng

    def build_plan(self, config: QuorumConfig) -> MemberPlan:
        """The member as an executable :class:`~repro.core.ensemble.MemberPlan`."""
        return MemberPlan(
            member_index=self.member_index,
            member_seed=self.member_seed,
            selected_features=self.selected_features,
            bucket_size=self.bucket_size,
            buckets=self.bucket_assignment(),
            ansatz=self.build_ansatz(config),
            rng=self.restored_rng(),
            rng_state=dict(self.rng_state),
        )


@dataclass
class ModelArtifact:
    """Everything needed to restore a fitted Quorum ensemble in a new process."""

    config: QuorumConfig
    normalizer_mode: str
    normalizer_target_max: Optional[float]
    feature_min: np.ndarray
    feature_max: np.ndarray
    num_features: int
    num_samples: int
    num_runs: int
    bucket_size: int
    levels: Tuple[int, ...]
    members: List[MemberArtifact]
    noise_fingerprint: Optional[str] = None
    library_versions: Dict[str, str] = field(default_factory=_library_versions)
    created_at: str = ""
    schema_version: int = SCHEMA_VERSION

    # ------------------------------------------------------------ construction
    @classmethod
    def from_detector(cls, detector: QuorumDetector) -> "ModelArtifact":
        """Snapshot a fitted detector (raises if it has not been fit)."""
        scores = detector.scores()
        normalizer = detector.normalizer
        if normalizer is None or normalizer.feature_min_ is None:
            raise ArtifactError("the detector has no fitted normalizer")
        plans = detector.member_plans()
        results = detector.member_results()
        members: List[MemberArtifact] = []
        for plan, result in zip(plans, results):
            if plan.rng_state is None:
                raise ArtifactError(
                    f"member {plan.member_index} carries no RNG snapshot; "
                    "refit with this version to save the model"
                )
            reference = {
                int(level): (np.array(means, dtype=float),
                             np.array(stds, dtype=float))
                for level, (means, stds) in result.bucket_statistics.items()
            }
            members.append(MemberArtifact(
                member_index=plan.member_index,
                member_seed=plan.member_seed,
                selected_features=np.asarray(plan.selected_features, dtype=int),
                bucket_size=plan.bucket_size,
                buckets=plan.buckets.buckets,
                angles=np.asarray(plan.ansatz.angles_, dtype=float),
                rng_state=dict(plan.rng_state),
                reference=reference,
            ))
        metadata = scores.metadata
        return cls(
            config=detector.config,
            normalizer_mode=normalizer.mode,
            normalizer_target_max=normalizer.target_max,
            feature_min=np.asarray(normalizer.feature_min_, dtype=float),
            feature_max=np.asarray(normalizer.feature_max_, dtype=float),
            num_features=int(normalizer.num_features_),
            num_samples=int(scores.num_samples),
            num_runs=int(scores.num_runs),
            bucket_size=int(metadata.get("bucket_size", 0)),
            levels=tuple(detector.config.effective_compression_levels),
            members=members,
            noise_fingerprint=noise_fingerprint_hex(detector.config),
            library_versions=_library_versions(),
            created_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )

    # -------------------------------------------------------------- restoring
    def build_normalizer(self) -> QuorumNormalizer:
        """The fitted normalizer, ready to ``transform`` unseen raw features."""
        normalizer = QuorumNormalizer(mode=self.normalizer_mode,
                                      target_max=self.normalizer_target_max)
        normalizer.feature_min_ = self.feature_min.copy()
        normalizer.feature_max_ = self.feature_max.copy()
        normalizer.num_features_ = self.num_features
        return normalizer

    def build_plans(self) -> List[MemberPlan]:
        """Executable plans for every member, with restored RNGs."""
        return [member.build_plan(self.config) for member in self.members]

    def summary(self) -> Dict[str, object]:
        """Operator-facing summary (served by ``GET /model``)."""
        return {
            "format": ARTIFACT_FORMAT,
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "library_versions": dict(self.library_versions),
            "noise_fingerprint": self.noise_fingerprint,
            "ensemble_groups": len(self.members),
            "compression_levels": list(self.levels),
            "bucket_size": self.bucket_size,
            "num_samples_fit": self.num_samples,
            "num_runs": self.num_runs,
            "num_features": self.num_features,
            "backend": self.config.backend,
            "simulation_backend": self.config.simulation_backend,
            "compile_circuits": self.config.compile_circuits,
            "noisy": self.config.noisy,
            "shots": self.config.shots,
        }

    def content_sha256(self) -> str:
        """Canonical sha256 of the bundle content (the registry's model key).

        Hashes the JSON payload with sorted keys, so the digest is stable
        across file formatting (indentation, key order) and identical for an
        artifact loaded from disk and the same artifact still in memory --
        which is what lets :class:`~repro.serving.registry.ModelRegistry` key
        fit-as-a-job results and ``load_model`` results uniformly.  The
        ``created_at`` stamp is left out: it records when a snapshot was
        taken, not what the model is, so two snapshots of one fit share a
        digest whatever the clock said.
        """
        payload = self.to_payload()
        del payload["created_at"]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------- (de)coding
    def to_payload(self) -> Dict[str, object]:
        """The bundle as plain JSON types."""
        members = []
        for member in self.members:
            members.append({
                "member_index": member.member_index,
                "member_seed": member.member_seed,
                "selected_features": to_jsonable(member.selected_features),
                "bucket_size": member.bucket_size,
                "buckets": [np.asarray(bucket, dtype=np.int64).tolist()
                            for bucket in member.buckets],
                "angles": to_jsonable(member.angles),
                "rng_state": to_jsonable(member.rng_state),
                "reference": {
                    str(level): {"bucket_means": to_jsonable(means),
                                 "bucket_stds": to_jsonable(stds)}
                    for level, (means, stds) in member.reference.items()
                },
            })
        return {
            "format": ARTIFACT_FORMAT,
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "library_versions": dict(self.library_versions),
            "config": to_jsonable(self.config.to_dict()),
            "noise_fingerprint": self.noise_fingerprint,
            "normalizer": {
                "mode": self.normalizer_mode,
                "target_max": self.normalizer_target_max,
                "feature_min": to_jsonable(self.feature_min),
                "feature_max": to_jsonable(self.feature_max),
                "num_features": self.num_features,
            },
            "fit": {
                "num_samples": self.num_samples,
                "num_runs": self.num_runs,
                "bucket_size": self.bucket_size,
                "compression_levels": list(self.levels),
            },
            "members": members,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "ModelArtifact":
        """Decode and strictly validate a bundle payload."""
        if not isinstance(payload, Mapping):
            raise ArtifactCorruptError("model artifact root is not an object")
        fmt = _require(payload, "format", "artifact")
        if fmt != ARTIFACT_FORMAT:
            raise ArtifactCorruptError(
                f"not a quorum-repro model artifact (format={fmt!r})"
            )
        version = _require(payload, "schema_version", "artifact")
        if not isinstance(version, int):
            raise ArtifactCorruptError("schema_version must be an integer")
        if version != SCHEMA_VERSION:
            raise ArtifactVersionError(
                f"model artifact uses schema version {version}; this loader "
                f"supports version {SCHEMA_VERSION}"
            )
        try:
            config = QuorumConfig.from_dict(_require(payload, "config",
                                                     "artifact"))
        except (TypeError, ValueError) as error:
            raise ArtifactCorruptError(f"invalid config: {error}") from None

        normalizer = _require(payload, "normalizer", "artifact")
        fit = _require(payload, "fit", "artifact")
        num_features = _int_scalar(_require(normalizer, "num_features",
                                            "normalizer"), "num_features")
        feature_min = _float_array(_require(normalizer, "feature_min",
                                            "normalizer"),
                                   "normalizer.feature_min", (num_features,))
        feature_max = _float_array(_require(normalizer, "feature_max",
                                            "normalizer"),
                                   "normalizer.feature_max", (num_features,))
        levels = tuple(
            _int_scalar(level, "fit.compression_levels[*]")
            for level in _require(fit, "compression_levels", "fit")
        )
        if not levels:
            raise ArtifactCorruptError("fit.compression_levels is empty")
        num_samples = _int_scalar(_require(fit, "num_samples", "fit"),
                                  "fit.num_samples")
        if num_samples < 1:
            raise ArtifactCorruptError("fit.num_samples must be positive")

        raw_members = _require(payload, "members", "artifact")
        if not isinstance(raw_members, list) or not raw_members:
            raise ArtifactCorruptError("artifact holds no ensemble members")
        members: List[MemberArtifact] = []
        for position, raw in enumerate(raw_members):
            context = f"members[{position}]"
            if not isinstance(raw, Mapping):
                raise ArtifactCorruptError(f"{context} is not an object")
            buckets_raw = _require(raw, "buckets", context)
            if not isinstance(buckets_raw, list) or not buckets_raw:
                raise ArtifactCorruptError(f"{context}.buckets is empty")
            if not all(isinstance(bucket, list) for bucket in buckets_raw):
                raise ArtifactCorruptError(
                    f"{context}.buckets holds an entry that is not a list")
            # One int-array decode for all of the member's buckets, split back
            # by the bucket lengths.
            flat = _int_array(list(itertools.chain.from_iterable(buckets_raw)),
                              f"{context}.buckets")
            if flat.ndim != 1:
                raise ArtifactDtypeError(
                    f"{context}.buckets must hold flat lists of indices")
            bounds = np.cumsum([len(bucket) for bucket in buckets_raw])[:-1]
            buckets = tuple(tuple(part.tolist())
                            for part in np.split(flat, bounds))
            num_buckets = len(buckets)
            # Buckets must partition the training samples exactly once: a
            # negative, out-of-range, or duplicated index would not fail
            # loudly at scoring time -- it would silently shift replay-mode
            # z-scores (Python negative indexing) or crash mid-request.
            if (flat.shape[0] != num_samples
                    or not np.array_equal(np.sort(flat),
                                          np.arange(num_samples))):
                raise ArtifactCorruptError(
                    f"{context}.buckets is not a partition of the "
                    f"{num_samples} training samples"
                )
            reference_raw = _require(raw, "reference", context)
            reference: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            for level in levels:
                level_raw = _require(reference_raw, str(level),
                                     f"{context}.reference")
                means = _float_array(
                    _require(level_raw, "bucket_means",
                             f"{context}.reference[{level}]"),
                    f"{context}.reference[{level}].bucket_means",
                    (num_buckets,))
                stds = _float_array(
                    _require(level_raw, "bucket_stds",
                             f"{context}.reference[{level}]"),
                    f"{context}.reference[{level}].bucket_stds",
                    (num_buckets,))
                reference[int(level)] = (means, stds)
            rng_state = _require(raw, "rng_state", context)
            if not isinstance(rng_state, Mapping):
                raise ArtifactCorruptError(f"{context}.rng_state is not an object")
            angles = _float_array(_require(raw, "angles", context),
                                  f"{context}.angles")
            expected_angles = 2 * config.num_qubits * config.num_layers
            if angles.shape != (expected_angles,):
                raise ArtifactDtypeError(
                    f"{context}.angles has shape {angles.shape}, expected "
                    f"({expected_angles},)"
                )
            selected = _int_array(_require(raw, "selected_features", context),
                                  f"{context}.selected_features")
            if (selected.size == 0 or selected.min() < 0
                    or selected.max() >= num_features):
                raise ArtifactCorruptError(
                    f"{context}.selected_features holds indices outside "
                    f"[0, {num_features})"
                )
            if np.unique(selected).size != selected.size:
                raise ArtifactCorruptError(
                    f"{context}.selected_features holds duplicate indices")
            if selected.size > config.features_per_circuit:
                raise ArtifactCorruptError(
                    f"{context}.selected_features holds {selected.size} "
                    f"indices but the register fits "
                    f"{config.features_per_circuit}"
                )
            member = MemberArtifact(
                member_index=_int_scalar(_require(raw, "member_index", context),
                                         f"{context}.member_index"),
                member_seed=_int_scalar(_require(raw, "member_seed", context),
                                        f"{context}.member_seed"),
                selected_features=selected,
                bucket_size=_int_scalar(_require(raw, "bucket_size", context),
                                        f"{context}.bucket_size"),
                buckets=buckets,
                angles=angles,
                rng_state=dict(rng_state),
                reference=reference,
            )
            # Restoring the RNG is the only consumer of rng_state, so proving
            # it restorable *now* keeps the contract that corrupt bundles fail
            # at load time, not on the first scoring request.
            member.restored_rng()
            members.append(member)

        # The member list and level sweep must agree with the stored config --
        # a truncated bundle would otherwise load cleanly and silently serve
        # scores from a smaller ensemble than the config claims.
        if len(members) != config.ensemble_groups:
            raise ArtifactCorruptError(
                f"artifact holds {len(members)} members but the stored config "
                f"says ensemble_groups={config.ensemble_groups}"
            )
        if levels != config.effective_compression_levels:
            raise ArtifactCorruptError(
                f"artifact levels {levels} disagree with the stored config's "
                f"compression sweep {config.effective_compression_levels}"
            )

        stored_fingerprint = payload.get("noise_fingerprint")
        expected_fingerprint = noise_fingerprint_hex(config)
        if stored_fingerprint != expected_fingerprint:
            raise ArtifactError(
                "noise-model fingerprint mismatch: the artifact was saved "
                f"under {stored_fingerprint!r} but this process derives "
                f"{expected_fingerprint!r} from the stored config -- the noise "
                "calibration changed between save and load"
            )

        versions = payload.get("library_versions") or {}
        return cls(
            config=config,
            normalizer_mode=str(_require(normalizer, "mode", "normalizer")),
            normalizer_target_max=normalizer.get("target_max"),
            feature_min=feature_min,
            feature_max=feature_max,
            num_features=num_features,
            num_samples=num_samples,
            num_runs=_int_scalar(_require(fit, "num_runs", "fit"),
                                 "fit.num_runs"),
            bucket_size=_int_scalar(_require(fit, "bucket_size", "fit"),
                                    "fit.bucket_size"),
            levels=levels,
            members=members,
            noise_fingerprint=stored_fingerprint,
            library_versions={str(k): str(v) for k, v in versions.items()},
            created_at=str(payload.get("created_at", "")),
            schema_version=version,
        )


def save_model(model: Union[QuorumDetector, ModelArtifact],
               path: Union[str, Path]) -> Path:
    """Write a fitted detector (or prebuilt artifact) as one JSON bundle."""
    artifact = (model if isinstance(model, ModelArtifact)
                else ModelArtifact.from_detector(model))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Compact separators keep json on its C encoder (any indent falls back
    # to the pure-Python one); the bundle is written in one call.
    text = json.dumps(artifact.to_payload(), separators=(",", ":"))
    with path.open("w", encoding="utf-8") as handle:
        handle.write(text + "\n")
    return path


def load_model(path: Union[str, Path]) -> ModelArtifact:
    """Read a bundle written by :func:`save_model`, validating strictly.

    Raises
    ------
    ArtifactCorruptError
        Unreadable file, invalid JSON, wrong format marker, or missing keys.
    ArtifactVersionError
        The bundle's schema version differs from :data:`SCHEMA_VERSION`.
    ArtifactDtypeError
        A stored array holds the wrong dtype or shape.
    ArtifactError
        The re-derived noise-model fingerprint does not match the stored one.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ArtifactCorruptError(f"cannot read model artifact: {error}") from None
    except UnicodeDecodeError as error:
        raise ArtifactCorruptError(
            f"model artifact is not valid UTF-8: {error}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ArtifactCorruptError(
            f"model artifact is not valid JSON: {error}") from None
    try:
        return ModelArtifact.from_payload(payload)
    except ArtifactError:
        raise
    except (TypeError, KeyError, AttributeError, IndexError) as error:
        # Backstop for structurally bizarre payloads (e.g. a scalar where an
        # object is expected deep in a member): the strict-error contract says
        # every corrupt bundle surfaces as an ArtifactError, never a raw
        # traceback.
        raise ArtifactCorruptError(
            f"model artifact is structurally invalid: "
            f"{type(error).__name__}: {error}") from None
