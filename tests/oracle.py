"""Plainly written reference oracles for the stacked fit.

The production fit runs members in chunks of stacked array passes: encoders
from one batched construction, one ``np.bincount`` pass for every bucket of every
(member, level) pair.  This module keeps the per-member, per-bucket loops that
path replaced, so the parity tests can hold the stacked path to them:

* :func:`gate_by_gate_encoder_unitary` -- the encoder pushed gate by gate
  through ``SimulationBackend.unitary_from_instructions``;
* :func:`loop_bucket_statistics` / :func:`loop_bucket_deviations` -- one
  numpy reduction per bucket;
* :func:`frozen_plan_member` -- member planning with the round-robin deal as
  a Python loop;
* :func:`loop_fit` -- a whole fit, member by member, built from the above;
* :func:`loop_serve` -- ``OnlineScorer.score`` / ``score_stateful``, member
  by member and level by level.
"""

from __future__ import annotations

import copy
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.bucketing import bucket_size_for_probability
from repro.core.config import QuorumConfig
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import apply_shot_noise, make_engine
from repro.core.scoring import bucket_deviations, reference_deviations
from repro.core.parallel import derive_member_seeds
from repro.encoding.normalization import QuorumNormalizer
from repro.quantum.backend import get_simulation_backend
from repro.serving.artifact import ModelArtifact


def gate_by_gate_encoder_unitary(ansatz: RandomAutoencoderAnsatz) -> np.ndarray:
    """The encoder built one gate at a time from its circuit."""
    circuit = ansatz.encoder_circuit(list(range(ansatz.num_qubits)))
    instructions = [
        (instruction.matrix_or_standard(), instruction.qubits)
        for instruction in circuit.instructions
        if instruction.name != "barrier"
    ]
    return get_simulation_backend("numpy").unitary_from_instructions(
        instructions, ansatz.num_qubits)


def loop_bucket_statistics(p1_values: np.ndarray,
                           buckets: Tuple[Tuple[int, ...], ...]
                           ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bucket ``(means, stds)``, one bucket at a time."""
    means = np.empty(len(buckets))
    stds = np.empty(len(buckets))
    for position, bucket in enumerate(buckets):
        values = p1_values[np.asarray(bucket, dtype=int)]
        means[position] = values.mean()
        stds[position] = values.std()
    return means, stds


def loop_bucket_deviations(p1_values: np.ndarray,
                           buckets: Tuple[Tuple[int, ...], ...],
                           means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """Absolute z-scores within each bucket; 0 where the std vanishes."""
    deviations = np.zeros_like(p1_values)
    for position, bucket in enumerate(buckets):
        if stds[position] < 1e-12:
            continue
        indices = np.asarray(bucket, dtype=int)
        deviations[indices] = (np.abs(p1_values[indices] - means[position])
                               / stds[position])
    return deviations


class FrozenPlan(NamedTuple):
    selected_features: np.ndarray
    buckets: Tuple[Tuple[int, ...], ...]
    angles: np.ndarray
    rng: np.random.Generator
    rng_state: Dict[str, object]


def frozen_plan_member(num_samples: int, num_features: int,
                       config: QuorumConfig, member_seed: int,
                       bucket_size: int) -> FrozenPlan:
    """Member planning with the round-robin deal written as a Python loop."""
    rng = np.random.default_rng(member_seed)
    count = min(num_features, config.features_per_circuit)
    selected = np.sort(rng.choice(num_features, size=count, replace=False))
    bucket_size = min(bucket_size, num_samples)
    order = rng.permutation(num_samples)
    num_buckets = max(1, num_samples // bucket_size)
    buckets: List[List[int]] = [[] for _ in range(num_buckets)]
    for position, sample in enumerate(order):
        buckets[position % num_buckets].append(int(sample))
    ansatz_seed = int(rng.integers(0, 2 ** 31 - 1))
    angles = np.random.default_rng(ansatz_seed).uniform(
        0.0, 2.0 * np.pi, size=2 * config.num_qubits * config.num_layers)
    return FrozenPlan(
        selected_features=selected,
        buckets=tuple(tuple(bucket) for bucket in buckets),
        angles=angles,
        rng=rng,
        rng_state=copy.deepcopy(rng.bit_generator.state),
    )


def _loop_analytic_p1(amplitudes: np.ndarray, ansatz: RandomAutoencoderAnsatz,
                      levels, shots, rng: np.random.Generator) -> np.ndarray:
    """Analytic SWAP-test P(1), one level and one reset pattern at a time."""
    phi = amplitudes.astype(complex) @ gate_by_gate_encoder_unitary(ansatz).T
    dim = phi.shape[1]
    exact = np.empty((len(levels), phi.shape[0]))
    for position, level in enumerate(levels):
        if level == 0:
            exact[position] = 0.0  # nothing is reset: the overlap is 1
            continue
        reset_dim = 2 ** level
        blocks = phi.reshape(-1, dim // reset_dim, reset_dim)
        overlap = np.zeros(phi.shape[0])
        for pattern in range(reset_dim):
            inner = np.sum(blocks[:, :, 0].conj() * blocks[:, :, pattern],
                           axis=1)
            overlap += np.abs(inner) ** 2
        exact[position] = np.clip((1.0 - overlap) / 2.0, 0.0, 1.0)
    if shots is None:
        return exact
    return rng.binomial(shots, np.clip(exact, 0.0, 1.0)) / float(shots)


class LoopFit(NamedTuple):
    scores: np.ndarray
    plans: List[FrozenPlan]
    p1_statistics: List[Dict[int, Tuple[float, float]]]
    bucket_statistics: List[Dict[int, Tuple[np.ndarray, np.ndarray]]]


def loop_fit(features: np.ndarray, config: QuorumConfig) -> LoopFit:
    """``QuorumDetector(config).fit(features)``, member by member.

    Analytic members use the gate-by-gate encoder and per-pattern overlaps;
    other engines run their per-member ``p1_levels_batch``.  Scoring always
    uses the per-bucket loops.
    """
    normalized = QuorumNormalizer(
        target_max=config.feature_ceiling(features.shape[1])
    ).fit_transform(features)
    num_samples, num_features = normalized.shape
    bucket_size = bucket_size_for_probability(
        num_samples, config.effective_anomaly_fraction,
        config.bucket_probability)
    levels = list(config.effective_compression_levels)
    total = np.zeros(num_samples)
    plans, p1_statistics, bucket_statistics = [], [], []
    for seed in derive_member_seeds(config.seed, config.ensemble_groups):
        plan = frozen_plan_member(num_samples, num_features, config, seed,
                                  bucket_size)
        ansatz = RandomAutoencoderAnsatz(
            num_qubits=config.num_qubits, num_layers=config.num_layers,
            entanglement=config.entanglement, angles_=plan.angles)
        amplitudes = batch_amplitudes(normalized[:, plan.selected_features],
                                      config.num_qubits)
        if config.backend == "analytic":
            p1 = _loop_analytic_p1(amplitudes, ansatz, levels, config.shots,
                                   plan.rng)
        else:
            engine = make_engine(
                config.backend, config.shots, rng=plan.rng,
                noisy=config.noisy,
                gate_level_encoding=config.gate_level_encoding,
                num_qubits=config.num_qubits,
                simulation_backend=config.simulation_backend,
                compile_circuits=config.compile_circuits)
            p1 = engine.p1_levels_batch(amplitudes, ansatz, levels)
        deviations = np.zeros(num_samples)
        member_p1_statistics, member_buckets = {}, {}
        for position, level in enumerate(levels):
            level_p1 = p1[position]
            member_p1_statistics[level] = (float(np.mean(level_p1)),
                                           float(np.std(level_p1)))
            means, stds = loop_bucket_statistics(level_p1, plan.buckets)
            member_buckets[level] = (means, stds)
            deviations += loop_bucket_deviations(level_p1, plan.buckets,
                                                 means, stds)
        total += deviations
        plans.append(plan)
        p1_statistics.append(member_p1_statistics)
        bucket_statistics.append(member_buckets)
    return LoopFit(total, plans, p1_statistics, bucket_statistics)


def loop_serve(artifact: ModelArtifact, features: np.ndarray,
               mode: str = "reference",
               rngs: Optional[Sequence[np.random.Generator]] = None,
               compiler=None) -> np.ndarray:
    """``OnlineScorer(artifact).score(features, mode)``, member by member.

    Each member runs one exact ``p1_levels_batch``, draws its shot noise from
    a generator restored from the artifact (or from ``rngs[member]``, consumed
    in place, as ``score_stateful`` does), and scores level by level with
    :func:`bucket_deviations` (replay) or :func:`reference_deviations`
    against its frozen statistics.  A member's levels are summed from zero,
    then members are added in member order.  Exact engines only.
    """
    config = artifact.config
    features = np.asarray(features, dtype=float).reshape(
        -1, artifact.num_features)
    normalized = artifact.build_normalizer().transform(features)
    engine = make_engine(
        config.backend, None, noisy=config.noisy,
        gate_level_encoding=config.gate_level_encoding,
        num_qubits=config.num_qubits,
        simulation_backend=config.simulation_backend,
        compile_circuits=config.compile_circuits, compiler=compiler)
    total = np.zeros(normalized.shape[0])
    for index, member in enumerate(artifact.members):
        amplitudes = batch_amplitudes(normalized[:, member.selected_features],
                                      config.num_qubits)
        p1 = engine.p1_levels_batch(amplitudes, member.build_ansatz(config),
                                    artifact.levels)
        rng = rngs[index] if rngs is not None else member.restored_rng()
        p1 = apply_shot_noise(p1, config.shots, rng)
        member_total = np.zeros(normalized.shape[0])
        for position, level in enumerate(artifact.levels):
            if mode == "replay":
                member_total += bucket_deviations(p1[position],
                                                  member.bucket_assignment())
            else:
                means, stds = member.reference[level]
                member_total += reference_deviations(p1[position], means, stds)
        total += member_total
    return total
