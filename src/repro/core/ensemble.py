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
* :func:`execute_members` performs the *heavy, data-dependent* work:
  amplitude encoding, the ``(levels x samples)`` SWAP-test sweep, shot noise,
  and bucket scoring.  It runs members in chunks of at most
  :data:`CHUNK_ROWS` (member, sample) rows, each chunk as one array pass per
  layer: :func:`chunk_amplitudes` encodes the chunk's
  ``(members, samples, 2^n)`` stack, :func:`exact_chunk_p1` evaluates it (the
  analytic engine in one stacked call with encoders from
  :func:`~repro.algorithms.ansatz.encoder_unitaries`; density matrices one
  ``p1_levels_batch`` per member), and :func:`chunk_bucket_scores` scores
  every (member, level) pair of the chunk at once.  The statevector engine
  consumes randomness during evolution, so it keeps one shot-based call per
  member and shares the stacked scoring.  The online scorer
  (:mod:`repro.serving.scorer`) serves requests through the same chunk
  functions.  :func:`repro.core.parallel.run_ensemble_members` calls
  :func:`execute_members` in the calling process or, with ``n_jobs > 1``, in
  pool workers against a shared-memory dataset view.

The plan carries the member RNG *after* its planning draws, so execution
consumes shot-noise randomness in exactly the order the historical single-pass
implementation did -- fixed-seed results are bit-identical whether the plan
runs in the calling process or in a pool worker, and whatever chunk it runs
in.  :func:`execute_member` is the one-member case and
:func:`run_ensemble_member` the one-call convenience wrapper (plan +
execute).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.ansatz import RandomAutoencoderAnsatz, encoder_unitaries
from repro.core.bucketing import BucketAssignment, assign_buckets, bucket_size_for_probability
from repro.core.config import QuorumConfig
from repro.core.execution import (AnalyticEngine, SwapTestEngine,
                                  apply_shot_noise, make_engine)
from repro.core.feature_selection import select_feature_subset
from repro.core.scoring import BucketStatistics, stacked_bucket_scores
from repro.quantum.compiler import CircuitCompiler

__all__ = [
    "EXACT_BACKENDS",
    "EnsembleMemberResult",
    "MemberPlan",
    "batch_amplitudes",
    "chunk_amplitudes",
    "chunk_bucket_scores",
    "config_engine",
    "exact_chunk_p1",
    "plan_member",
    "execute_member",
    "execute_members",
    "members_per_chunk",
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
        # ``bit_generator.state`` builds a fresh dict on every read.
        rng_state=rng.bit_generator.state,
    )


#: (member, sample) rows per stacked pass of :func:`execute_members`: 16
#: members at 1,000 samples.  A chunk's largest arrays hold this many rows of
#: 2^n complex128 amplitudes (2 MB at n = 3), whatever the dataset size, so
#: a fit's peak memory does not grow with the ensemble.
CHUNK_ROWS = 1 << 14


#: Engines whose shot noise is one binomial draw after an exact sweep, so the
#: sweep runs with ``shots=None`` and each caller draws the noise itself.
EXACT_BACKENDS = ("analytic", "density_matrix")


def members_per_chunk(num_samples: int) -> int:
    """Members of one stacked pass over ``num_samples`` samples."""
    return max(1, CHUNK_ROWS // max(1, num_samples))


def execute_members(normalized_data: np.ndarray, plans: Sequence[MemberPlan],
                    config: QuorumConfig) -> List[EnsembleMemberResult]:
    """Run planned members over the (shared) normalized dataset, in order.

    This is the only way members execute: the serial loop and every
    process-pool worker in :mod:`repro.core.parallel` call it.  Members run in
    chunks of :func:`members_per_chunk`, each chunk as one array pass per
    layer; a member's result does not depend on the chunk it ran in.
    """
    normalized_data = np.asarray(normalized_data, dtype=float)
    if normalized_data.ndim != 2:
        raise ValueError("normalized_data must be 2-D")
    size = members_per_chunk(normalized_data.shape[0])
    results: List[EnsembleMemberResult] = []
    for start in range(0, len(plans), size):
        results.extend(_execute_chunk(normalized_data,
                                      plans[start:start + size], config))
    return results


def execute_member(normalized_data: np.ndarray, plan: MemberPlan,
                   config: QuorumConfig) -> EnsembleMemberResult:
    """Run one planned member: the one-member case of :func:`execute_members`."""
    return execute_members(normalized_data, [plan], config)[0]


def chunk_amplitudes(normalized_data: np.ndarray, features: np.ndarray,
                     num_qubits: int) -> np.ndarray:
    """``(members, samples, 2^n)`` amplitudes of a member chunk.

    ``features`` is the chunk's ``(members, selected)`` feature-index matrix;
    one gather and one :func:`batch_amplitudes` call cover every member.
    """
    num_samples = normalized_data.shape[0]
    members, selected = features.shape
    # (samples, members, features) -> one row per (member, sample) pair.
    rows = np.swapaxes(normalized_data[:, features], 0, 1).reshape(
        members * num_samples, selected)
    return batch_amplitudes(rows, num_qubits).reshape(members, num_samples, -1)


def exact_chunk_p1(engine: SwapTestEngine, amplitudes: np.ndarray,
                   ansatzes: Sequence[RandomAutoencoderAnsatz],
                   levels: Sequence[int],
                   encoders: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact ``(members, levels, samples)`` P(1) of a member chunk.

    The analytic engine evaluates the whole stack in one
    :meth:`~repro.core.execution.AnalyticEngine.exact_levels_stack` call,
    with ``encoders`` (built from ``ansatzes`` when omitted); other exact
    engines run one ``p1_levels_batch`` per member.  ``engine`` must be exact
    (``shots=None``): shot noise is each caller's own draw.  The fit and the
    online scorer both compute a chunk's probabilities here.
    """
    if isinstance(engine, AnalyticEngine):
        if encoders is None:
            encoders = encoder_unitaries(ansatzes)
        return engine.exact_levels_stack(amplitudes, encoders, levels)
    return np.stack([engine.p1_levels_batch(member_amplitudes, ansatz, levels)
                     for member_amplitudes, ansatz in zip(amplitudes,
                                                          ansatzes)])


def config_engine(config: QuorumConfig, shots: Optional[int],
                  rng: Optional[np.random.Generator] = None,
                  compiler: Optional[CircuitCompiler] = None
                  ) -> SwapTestEngine:
    """The engine ``config`` describes, with ``shots`` and ``rng``."""
    return make_engine(
        config.backend, shots, rng=rng, noisy=config.noisy,
        gate_level_encoding=config.gate_level_encoding,
        num_qubits=config.num_qubits,
        simulation_backend=config.simulation_backend,
        compile_circuits=config.compile_circuits,
        compiler=compiler,
    )


def _execute_chunk(normalized_data: np.ndarray, plans: Sequence[MemberPlan],
                   config: QuorumConfig) -> List[EnsembleMemberResult]:
    """Amplitudes, SWAP-test sweep, shot noise and scoring of a member chunk.

    Exact engines (:data:`EXACT_BACKENDS`) compute the chunk's probabilities
    with :func:`exact_chunk_p1`; shot noise is then drawn per member from the
    member's own RNG, in member order, exactly as a member run on its own
    draws it.  The statevector engine consumes randomness during evolution,
    so it keeps one shot-based engine call per member.
    """
    levels = config.effective_compression_levels
    amplitudes = chunk_amplitudes(
        normalized_data, np.stack([plan.selected_features for plan in plans]),
        config.num_qubits)
    ansatzes = [plan.ansatz for plan in plans]
    if config.backend in EXACT_BACKENDS:
        exact = exact_chunk_p1(config_engine(config, None), amplitudes,
                               ansatzes, levels)
        p1_values = np.stack([
            apply_shot_noise(member_exact, config.shots, plan.rng)
            for member_exact, plan in zip(exact, plans)
        ])
    else:
        p1_values = np.stack([
            config_engine(config, config.shots, rng=plan.rng).p1_levels_batch(
                member_amplitudes, plan.ansatz, levels)
            for member_amplitudes, plan in zip(amplitudes, plans)
        ])
    return _score_chunk(plans, levels, p1_values)


def chunk_bucket_scores(p1_values: np.ndarray, labels: np.ndarray,
                        num_buckets: np.ndarray
                        ) -> Tuple[List[BucketStatistics], np.ndarray]:
    """Bucket statistics and per-member deviations of a member chunk.

    ``p1_values`` is ``(members, levels, samples)``, ``labels`` the members'
    ``(members, samples)`` bucket labels and ``num_buckets`` their bucket
    counts.  Every (member, level) run is scored in one
    :func:`stacked_bucket_scores` pass; a member's deviations are then summed
    level by level from zero.  The fit and the online scorer's replay mode
    both score here, so replay reproduces the fit bitwise.  Returns the
    member-major run statistics and the ``(members, samples)`` deviations.
    """
    members, num_levels, num_samples = p1_values.shape
    references, run_deviations = stacked_bucket_scores(
        p1_values.reshape(members * num_levels, num_samples),
        np.repeat(labels, num_levels, axis=0),
        np.repeat(num_buckets, num_levels),
    )
    run_deviations = run_deviations.reshape(members, num_levels, num_samples)
    deviations = np.zeros((members, num_samples))
    for position in range(num_levels):
        deviations += run_deviations[:, position]
    return references, deviations


def _score_chunk(plans: Sequence[MemberPlan], levels: Sequence[int],
                 p1_values: np.ndarray) -> List[EnsembleMemberResult]:
    """Turn a chunk's ``(members, levels, samples)`` P(1) values into results."""
    num_levels = p1_values.shape[1]
    references, deviations = chunk_bucket_scores(
        p1_values, np.stack([plan.buckets.labels for plan in plans]),
        np.array([plan.buckets.num_buckets for plan in plans]))
    level_means = p1_values.mean(axis=2)
    level_stds = p1_values.std(axis=2)
    results = []
    for member, plan in enumerate(plans):
        member_references = references[member * num_levels:
                                       (member + 1) * num_levels]
        results.append(EnsembleMemberResult(
            member_index=plan.member_index,
            deviations=deviations[member],
            selected_features=plan.selected_features,
            bucket_size=plan.bucket_size,
            num_buckets=plan.buckets.num_buckets,
            num_runs=num_levels,
            p1_statistics={
                level: (float(level_means[member, position]),
                        float(level_stds[member, position]))
                for position, level in enumerate(levels)
            },
            bucket_statistics=dict(zip(levels, member_references)),
        ))
    return results


def run_ensemble_member(normalized_data: np.ndarray, config: QuorumConfig,
                        member_index: int, member_seed: int,
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
    return execute_member(normalized_data, plan, config)
