"""Hypothesis property tests for the batched density-matrix primitives.

Every batched kernel in :mod:`repro.quantum.backend` must (a) preserve the
defining properties of a density matrix -- unit trace, Hermiticity, positivity
up to numerical tolerance -- and (b) agree row by row with the single-sample
reference implementations (:class:`repro.quantum.density_matrix.DensityMatrix`
and, through the folded engine, :class:`repro.quantum.simulator.DensityMatrixSimulator`).  Random mixed
states, random gates, random target-qubit subsets, and random CPTP channels are
drawn per Hypothesis example (seed-driven, mirroring the style of
``tests/quantum/test_density_matrix.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import DensityMatrixEngine
from repro.quantum.backend import get_simulation_backend
from repro.quantum.backends import FakeBrisbane
from repro.quantum.compiler import CircuitCompiler
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import (
    QuantumError,
    amplitude_damping_kraus,
    depolarizing_kraus,
    thermal_relaxation_kraus,
)

#: (backend name, numerical tolerance) -- the float32 variant computes in
#: complex64, so its kernels are only accurate to single precision.
BACKENDS = [("numpy", 1e-12), ("numpy-float32", 2e-4)]

seeds = st.integers(min_value=0, max_value=10_000)


def random_density_batch(rng, batch, num_qubits):
    """Random full-rank mixed states: ``A A^dagger`` normalized to unit trace."""
    dim = 2 ** num_qubits
    factors = (rng.normal(size=(batch, dim, dim))
               + 1j * rng.normal(size=(batch, dim, dim)))
    rhos = np.matmul(factors, factors.conj().transpose(0, 2, 1))
    traces = np.einsum("bii->b", rhos).real
    return rhos / traces[:, None, None]


def random_qubit_subset(rng, num_qubits, size):
    return [int(q) for q in rng.permutation(num_qubits)[:size]]


def random_channel(rng, num_qubits):
    """A random CPTP channel from the noise library (superoperator form)."""
    choice = int(rng.integers(3)) if num_qubits == 1 else 2
    if choice == 0:
        kraus = amplitude_damping_kraus(float(rng.uniform(0.0, 1.0)))
    elif choice == 1:
        t1 = float(rng.uniform(50.0, 300.0))
        kraus = thermal_relaxation_kraus(t1, float(rng.uniform(10.0, 2 * t1)),
                                         float(rng.uniform(0.0, 50.0)))
    else:
        kraus = depolarizing_kraus(float(rng.uniform(0.0, 1.0)), num_qubits)
    return QuantumError.from_kraus(kraus)


def assert_density_properties(rhos, tolerance):
    traces = np.einsum("bii->b", rhos)
    assert np.allclose(traces, 1.0, atol=tolerance), "trace must be preserved"
    assert np.allclose(rhos, rhos.conj().transpose(0, 2, 1),
                       atol=tolerance), "result must stay Hermitian"
    eigenvalues = np.linalg.eigvalsh(rhos)
    assert eigenvalues.min() >= -tolerance, "result must stay positive"


@pytest.mark.parametrize("backend_name,tolerance", BACKENDS)
class TestApplySuperoperatorDensityBatch:
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_shared_channel_preserves_density_properties_and_matches_kraus(
            self, backend_name, tolerance, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 4))
        num_targets = int(rng.integers(1, 3))
        batch = int(rng.integers(1, 6))
        qubits = random_qubit_subset(rng, num_qubits, num_targets)
        rhos = random_density_batch(rng, batch, num_qubits)
        error = random_channel(rng, num_targets)

        backend = get_simulation_backend(backend_name)
        evolved = backend.apply_superoperator_density_batch(
            rhos, error.superoperator, qubits
        )

        assert_density_properties(evolved, tolerance)
        for index in range(batch):
            reference = DensityMatrix(rhos[index]).apply_kraus(
                list(error.kraus_operators), qubits
            )
            assert np.allclose(evolved[index], reference.data, atol=tolerance)

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_per_sample_channels_match_per_row_kraus(self, backend_name,
                                                     tolerance, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 4))
        num_targets = int(rng.integers(1, 3))
        batch = int(rng.integers(1, 6))
        qubits = random_qubit_subset(rng, num_qubits, num_targets)
        rhos = random_density_batch(rng, batch, num_qubits)
        errors = [random_channel(rng, num_targets) for _ in range(batch)]
        superoperators = np.stack([error.superoperator for error in errors])

        backend = get_simulation_backend(backend_name)
        evolved = backend.apply_superoperators_density_batch(
            rhos, superoperators, qubits
        )

        assert_density_properties(evolved, tolerance)
        for index in range(batch):
            reference = DensityMatrix(rhos[index]).apply_kraus(
                list(errors[index].kraus_operators), qubits
            )
            assert np.allclose(evolved[index], reference.data, atol=tolerance)


@pytest.mark.parametrize("backend_name,tolerance", BACKENDS)
class TestFoldedEngineOnRandomBatches:
    """The folded noisy engine's prepared states are density matrices, and its
    probabilities agree with the per-sample simulator on random batches
    (rows with zero features elide preparation rotations)."""

    @given(seed=st.integers(min_value=0, max_value=500))
    @settings(max_examples=10, deadline=None)
    def test_random_batch_matches_per_sample_simulator(self, backend_name,
                                                       tolerance, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 4))
        features = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                               size=(int(rng.integers(1, 5)),
                                     2 ** num_qubits - 1))
        features[rng.random(features.shape) < 0.3] = 0.0
        amplitudes = batch_amplitudes(features, num_qubits)
        noise = FakeBrisbane(2 * num_qubits + 1).to_noise_model() \
            if rng.random() < 0.5 else None
        ansatz = RandomAutoencoderAnsatz(num_qubits,
                                         seed=int(rng.integers(1000)))
        levels = list(range(num_qubits + 1))
        kwargs = dict(shots=None, noise_model=noise, gate_level_encoding=True,
                      simulation_backend=backend_name)
        folded = DensityMatrixEngine(compiler=CircuitCompiler(), **kwargs)

        assert_density_properties(folded._prepared_densities(amplitudes),
                                  tolerance)
        reference = DensityMatrixEngine(compile_circuits=False, **kwargs)
        assert np.allclose(folded.p1_levels_batch(amplitudes, ansatz, levels),
                           reference.p1_levels_batch(amplitudes, ansatz,
                                                     levels),
                           atol=tolerance)
