"""Ensemble members as plan/execute pairs.

Each ensemble member is one complete random "quantum projection" of the data:
it draws its own feature subset, bucket assignment, and random ansatz angles,
runs every sample through every compression level, and converts the SWAP-test
outputs into per-bucket absolute z-scores.  Members are independent of one
another -- the "embarrassingly parallel" property the paper highlights -- so the
detector simply sums their deviation vectors.

The member lifecycle is split in two:

* :func:`plan_member` performs the *cheap, data-independent* setup -- feature
  subset, bucket assignment, ansatz construction -- and captures it in a small
  picklable :class:`MemberPlan`.  Planning only needs the dataset's *shape*, so
  every plan is built up front in the parent process and a process pool ships
  plans (not datasets) to its workers.
* :func:`execute_member` performs the *heavy, data-dependent* work: amplitude
  encoding, one fused ``(levels x samples)`` batched SWAP-test sweep through the
  engine's ``p1_levels_batch``, and bucket scoring.  For noisy members this
  sweep is checkpointed: the engine walks the shared circuit prefix (encoding +
  encoder) exactly once and replays only the per-level suffix from the
  post-prefix density batch.  With ``config.compile_circuits`` (the default)
  the member's fixed circuit structure is additionally lowered ahead of time
  through the shared :mod:`repro.quantum.compiler` cache -- the encoder
  becomes one fused unitary, the noisy suffix one cached Heisenberg-picture
  observable per level -- so the sweep executes as a handful of batched
  matmuls.  :func:`repro.core.parallel.run_ensemble_members` calls this in
  the calling process or, with ``n_jobs > 1``, in pool workers against a
  shared-memory dataset view.

The plan carries the member RNG *after* its planning draws, so execution
consumes shot-noise randomness in exactly the order the historical single-pass
implementation did -- fixed-seed results are bit-identical whether the plan
runs in the calling process or in a pool worker.  :func:`run_ensemble_member` remains as the one-call
convenience wrapper (plan + execute).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.bucketing import BucketAssignment, assign_buckets, bucket_size_for_probability
from repro.core.config import QuorumConfig
from repro.core.execution import SwapTestEngine, make_engine
from repro.core.feature_selection import select_feature_subset
from repro.core.scoring import (BucketStatistics, bucket_deviations,
                                bucket_statistics)

__all__ = [
    "EnsembleMemberResult",
    "MemberPlan",
    "batch_amplitudes",
    "plan_member",
    "execute_member",
    "run_ensemble_member",
]


def batch_amplitudes(values: np.ndarray, num_qubits: int) -> np.ndarray:
    """Amplitude-encode every row of ``values`` (normalized feature subsets).

    Vectorized equivalent of calling
    :func:`repro.encoding.amplitude.amplitudes_from_features` row by row.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("values must be 2-D (samples, selected features)")
    dim = 2 ** num_qubits
    if values.shape[1] > dim - 1:
        raise ValueError("too many features for the register size")
    probabilities = np.zeros((values.shape[0], dim), dtype=float)
    probabilities[:, : values.shape[1]] = np.clip(values, 0.0, None) ** 2
    overflow = 1.0 - probabilities.sum(axis=1)
    if np.any(overflow < -1e-6):
        raise ValueError("squared features exceed 1; normalize the data first")
    probabilities[:, -1] += np.clip(overflow, 0.0, None)
    probabilities /= probabilities.sum(axis=1, keepdims=True)
    return np.sqrt(probabilities)


@dataclass
class EnsembleMemberResult:
    """Outcome of one ensemble member.

    Attributes
    ----------
    member_index:
        Position of the member in the ensemble.
    deviations:
        Per-sample absolute z-scores summed over this member's compression levels.
    selected_features:
        Feature indices used by this member.
    bucket_size:
        Bucket size used (shared across members of one detector run).
    num_buckets:
        Number of buckets in this member's assignment.
    num_runs:
        Number of (compression level) runs contributing to ``deviations``.
    p1_statistics:
        Per-compression-level mean/std of the raw SWAP-test outputs (diagnostics).
    bucket_statistics:
        Per-compression-level :class:`~repro.core.scoring.BucketStatistics`
        (per-bucket means, stds, and the degenerate-bucket mask) of the raw
        SWAP-test outputs -- the frozen reference a serving artifact scores
        unseen samples against (see :mod:`repro.serving.artifact`).
    """

    member_index: int
    deviations: np.ndarray
    selected_features: np.ndarray
    bucket_size: int
    num_buckets: int
    num_runs: int
    p1_statistics: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    bucket_statistics: Dict[int, BucketStatistics] = field(
        default_factory=dict)


@dataclass
class MemberPlan:
    """Everything one ensemble member needs besides the dataset itself.

    Plans are cheap (a few index arrays, the ansatz angles, and an RNG state)
    and picklable, so a process executor ships plans to workers while the
    dataset travels once through shared memory.  ``rng`` holds the member
    generator *after* the planning draws; :func:`execute_member` hands it to the
    engine so shot noise continues the member's deterministic stream.

    Attributes
    ----------
    member_index:
        Position of the member in the ensemble.
    member_seed:
        Seed the plan was derived from (diagnostics / re-planning).
    selected_features:
        Feature indices of this member's random projection.
    bucket_size:
        Bucket size used for the assignment.
    buckets:
        The member's random partition of sample indices.
    ansatz:
        The member's random encoder/decoder pair (angles drawn at planning time).
    rng:
        Member RNG positioned immediately after the planning draws.
    rng_state:
        Immutable snapshot of ``rng``'s bit-generator state taken at planning
        time.  Execution advances ``rng`` in place (shot noise), so this
        snapshot is what a serving artifact persists: restoring a generator
        from it replays the member's shot-noise stream bit for bit.
    """

    member_index: int
    member_seed: int
    selected_features: np.ndarray
    bucket_size: int
    buckets: BucketAssignment
    ansatz: RandomAutoencoderAnsatz
    rng: np.random.Generator
    rng_state: Optional[Dict[str, object]] = None


def plan_member(num_samples: int, num_features: int, config: QuorumConfig,
                member_index: int, member_seed: int,
                bucket_size: Optional[int] = None) -> MemberPlan:
    """Draw one member's random configuration from the dataset's *shape* only.

    The draw order (feature subset, buckets, ansatz seed) matches the seed
    implementation exactly, so a plan executed by any strategy reproduces the
    historical single-pass results bit for bit.
    """
    if num_samples < 1 or num_features < 1:
        raise ValueError("the dataset needs at least one sample and one feature")
    rng = np.random.default_rng(member_seed)

    selected = select_feature_subset(num_features, config.features_per_circuit, rng)

    if bucket_size is None:
        bucket_size = bucket_size_for_probability(
            num_samples, config.effective_anomaly_fraction, config.bucket_probability
        )
    bucket_size = min(bucket_size, num_samples)
    buckets = assign_buckets(num_samples, bucket_size, rng)

    ansatz = RandomAutoencoderAnsatz(
        num_qubits=config.num_qubits,
        num_layers=config.num_layers,
        entanglement=config.entanglement,
        seed=int(rng.integers(0, 2 ** 31 - 1)),
    )
    return MemberPlan(
        member_index=member_index,
        member_seed=member_seed,
        selected_features=selected,
        bucket_size=bucket_size,
        buckets=buckets,
        ansatz=ansatz,
        rng=rng,
        rng_state=copy.deepcopy(rng.bit_generator.state),
    )


def execute_member(normalized_data: np.ndarray, plan: MemberPlan,
                   config: QuorumConfig,
                   engine: Optional[SwapTestEngine] = None
                   ) -> EnsembleMemberResult:
    """Run one planned member over the (shared) normalized dataset.

    All compression levels of the member run as ONE fused
    ``(levels x samples)`` batch through the engine's ``p1_levels_batch``.
    This is the only way a member executes: the serial loop and the process
    pool in :mod:`repro.core.parallel` both call it.
    """
    normalized_data = np.asarray(normalized_data, dtype=float)
    if normalized_data.ndim != 2:
        raise ValueError("normalized_data must be 2-D")
    amplitudes = batch_amplitudes(normalized_data[:, plan.selected_features],
                                  config.num_qubits)
    if engine is None:
        engine = make_engine(
            config.backend, config.shots, rng=plan.rng, noisy=config.noisy,
            gate_level_encoding=config.gate_level_encoding,
            num_qubits=config.num_qubits,
            simulation_backend=config.simulation_backend,
            compile_circuits=config.compile_circuits,
        )
    levels = config.effective_compression_levels
    p1_values = engine.p1_levels_batch(amplitudes, plan.ansatz, levels)
    return _score_member(plan, levels, p1_values, normalized_data.shape[0])


def _score_member(plan: MemberPlan, levels: Sequence[int],
                  p1_values: np.ndarray,
                  num_samples: int) -> EnsembleMemberResult:
    """Convert one member's ``(levels, samples)`` SWAP-test outputs to a result."""
    deviations = np.zeros(num_samples)
    statistics: Dict[int, Tuple[float, float]] = {}
    references: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for position, level in enumerate(levels):
        level_p1 = p1_values[position]
        statistics[level] = (float(np.mean(level_p1)), float(np.std(level_p1)))
        level_reference = bucket_statistics(level_p1, plan.buckets)
        references[level] = level_reference
        deviations += bucket_deviations(level_p1, plan.buckets,
                                        statistics=level_reference)

    return EnsembleMemberResult(
        member_index=plan.member_index,
        deviations=deviations,
        selected_features=plan.selected_features,
        bucket_size=plan.bucket_size,
        num_buckets=plan.buckets.num_buckets,
        num_runs=len(levels),
        p1_statistics=statistics,
        bucket_statistics=references,
    )


def run_ensemble_member(normalized_data: np.ndarray, config: QuorumConfig,
                        member_index: int, member_seed: int,
                        engine: Optional[SwapTestEngine] = None,
                        bucket_size: Optional[int] = None) -> EnsembleMemberResult:
    """Plan and execute one ensemble member in a single call.

    Parameters
    ----------
    normalized_data:
        Output of :class:`repro.encoding.normalization.QuorumNormalizer`, shape
        (samples, features); every value in ``[0, 1/M]``.
    config:
        Detector configuration.
    member_index:
        Position of the member (recorded in the result).
    member_seed:
        Seed controlling this member's feature subset, buckets, angles, and shot
        noise.
    engine:
        Pre-built execution engine; built from the config when omitted.
    bucket_size:
        Bucket size to use; derived from the config's target probability when
        omitted.
    """
    normalized_data = np.asarray(normalized_data, dtype=float)
    if normalized_data.ndim != 2:
        raise ValueError("normalized_data must be 2-D")
    plan = plan_member(normalized_data.shape[0], normalized_data.shape[1],
                       config, member_index, member_seed,
                       bucket_size=bucket_size)
    return execute_member(normalized_data, plan, config, engine=engine)
