"""Tests for the batched simulation-backend layer (repro.quantum.backend)."""

import numpy as np
import pytest

from repro.quantum.backend import (
    NumpyBackend,
    SimulationBackend,
    available_simulation_backends,
    get_simulation_backend,
    register_simulation_backend,
)
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.statevector import apply_unitary_to_tensor


def random_states(rng, batch, num_qubits):
    states = (rng.normal(size=(batch, 2 ** num_qubits))
              + 1j * rng.normal(size=(batch, 2 ** num_qubits)))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def zero_states(batch, num_qubits):
    states = np.zeros((batch, 2 ** num_qubits), dtype=complex)
    states[:, 0] = 1.0
    return states


def random_unitary(rng, num_qubits):
    dim = 2 ** num_qubits
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(matrix)
    return unitary


class TestRegistry:
    def test_numpy_backend_is_registered(self):
        assert "numpy" in available_simulation_backends()

    def test_get_by_name_and_default(self):
        assert isinstance(get_simulation_backend("numpy"), NumpyBackend)
        assert isinstance(get_simulation_backend(None), NumpyBackend)
        assert isinstance(get_simulation_backend("NumPy"), NumpyBackend)

    def test_instance_passthrough(self):
        backend = NumpyBackend()
        assert get_simulation_backend(backend) is backend

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown simulation backend"):
            get_simulation_backend("cuda")

    def test_custom_registration(self):
        class EchoBackend(NumpyBackend):
            name = "echo-test"

        register_simulation_backend("echo-test", EchoBackend)
        try:
            assert isinstance(get_simulation_backend("echo-test"), EchoBackend)
        finally:
            # Keep the registry clean for other tests.
            from repro.quantum import backend as backend_module

            backend_module._REGISTRY.pop("echo-test")

    def test_abstract_base_is_not_instantiable(self):
        with pytest.raises(TypeError):
            SimulationBackend()


class TestStatevectorPrimitives:
    backend = NumpyBackend()

    def test_apply_gate_batch_property_vs_per_sample(self):
        """Property test: the batched kernel agrees with apply_unitary_to_tensor
        applied row by row, for random gates, targets, and register sizes."""
        rng = np.random.default_rng(42)
        for _ in range(25):
            num_qubits = int(rng.integers(2, 5))
            k = int(rng.integers(1, min(num_qubits, 3) + 1))
            qubits = list(rng.choice(num_qubits, size=k, replace=False))
            gate = random_unitary(rng, k)
            states = random_states(rng, 6, num_qubits)
            batched = self.backend.apply_gate_batch(states, gate, qubits)
            assert batched.shape == states.shape
            for row in range(states.shape[0]):
                tensor = states[row].reshape((2,) * num_qubits)
                expected = apply_unitary_to_tensor(tensor, gate, qubits,
                                                   num_qubits).reshape(-1)
                assert np.allclose(batched[row], expected, atol=1e-10)

    def test_apply_gate_batch_validates_shapes(self):
        states = zero_states(2, 2)
        with pytest.raises(ValueError):
            self.backend.apply_gate_batch(states, np.eye(4), [0])
        with pytest.raises(ValueError):
            self.backend.apply_gate_batch(np.ones(4), np.eye(2), [0])
        with pytest.raises(ValueError):
            self.backend.apply_gate_batch(np.ones((2, 3)), np.eye(2), [0])

    def test_apply_unitary_stack_matches_per_row(self):
        rng = np.random.default_rng(1)
        states = np.stack([random_states(rng, 5, 3) for _ in range(2)])
        unitaries = np.stack([random_unitary(rng, 3) for _ in range(2)])
        stacked = self.backend.apply_unitary_stack(states, unitaries)
        for member in range(2):
            for row in range(5):
                assert np.allclose(stacked[member, row],
                                   unitaries[member] @ states[member, row],
                                   atol=1e-10)


class TestDensityPrimitives:
    backend = NumpyBackend()

    def test_density_from_states(self):
        rng = np.random.default_rng(6)
        states = random_states(rng, 3, 2)
        rhos = self.backend.density_from_states(states)
        for row in range(3):
            assert np.allclose(rhos[row], np.outer(states[row],
                                                   states[row].conj()))

    def test_apply_gate_density_batch_matches_density_matrix(self):
        rng = np.random.default_rng(7)
        states = random_states(rng, 4, 3)
        rhos = self.backend.density_from_states(states)
        gate = random_unitary(rng, 2)
        qubits = [2, 0]
        batched = self.backend.apply_gate_density_batch(rhos, gate, qubits)
        for row in range(4):
            expected = DensityMatrix(rhos[row]).evolve_gate(gate, qubits)
            assert np.allclose(batched[row], expected.data, atol=1e-10)



class TestUnitaryFromInstructions:
    def test_matches_circuit_to_unitary(self):
        from repro.quantum.circuit import QuantumCircuit

        backend = NumpyBackend()
        circuit = QuantumCircuit(3)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(0.37, 2)
        circuit.cswap(0, 1, 2)
        instructions = [(instr.matrix_or_standard(), instr.qubits)
                        for instr in circuit.instructions]
        unitary = backend.unitary_from_instructions(instructions, 3)
        assert np.allclose(unitary, circuit.to_unitary(), atol=1e-10)


class TestBatchedChannelPrimitives:
    """The density-channel primitives behind the noisy engine and compiler."""

    def setup_method(self):
        self.rng = np.random.default_rng(7)
        self.backend = NumpyBackend()

    def random_densities(self, batch, num_qubits):
        states = random_states(self.rng, batch, num_qubits)
        return self.backend.density_from_states(states)

    def test_shared_superoperator_matches_density_matrix(self):
        from repro.quantum.noise import QuantumError, depolarizing_kraus

        error = QuantumError.from_kraus(depolarizing_kraus(0.1, 2))
        rhos = self.random_densities(4, 3)
        batched = self.backend.apply_superoperator_density_batch(
            rhos, error.superoperator, [0, 2])
        for index in range(4):
            reference = DensityMatrix(rhos[index]).apply_superoperator(
                error.superoperator, [0, 2])
            assert np.allclose(batched[index], reference.data, atol=1e-12)

    def test_per_sample_superoperators_match_shared(self):
        from repro.quantum.noise import QuantumError, depolarizing_kraus

        error = QuantumError.from_kraus(depolarizing_kraus(0.2, 1))
        rhos = self.random_densities(3, 3)
        shared = self.backend.apply_superoperator_density_batch(
            rhos, error.superoperator, [1])
        tiled = np.broadcast_to(
            error.superoperator, (3,) + error.superoperator.shape)
        per_sample = self.backend.apply_superoperators_density_batch(
            rhos, np.array(tiled), [1])
        assert np.allclose(shared, per_sample, atol=1e-12)

    def test_fused_gate_channel_superoperator(self):
        """kron(U, conj(U)) through the superoperator kernel == conjugation."""
        rhos = self.random_densities(4, 3)
        unitary = random_unitary(self.rng, 1)
        fused = self.backend.apply_superoperator_density_batch(
            rhos, np.kron(unitary, unitary.conj()), [2])
        direct = self.backend.apply_gate_density_batch(rhos, unitary, [2])
        assert np.allclose(fused, direct, atol=1e-12)

    def test_compression_overlap_levels_matches_analytic_reduction(self):
        states = random_states(self.rng, 6, 3)
        levels = [0, 1, 2, 3]
        overlaps = self.backend.compression_overlap_levels(states, levels)
        assert overlaps.shape == (4, 6)
        assert np.allclose(overlaps[0], 1.0, atol=1e-12)
        for position, level in enumerate(levels[1:], start=1):
            reset_dim = 2 ** level
            tensor = states.reshape(-1, 8 // reset_dim, reset_dim)
            inner = np.einsum("nk,nks->ns", tensor[:, :, 0].conj(), tensor)
            assert np.allclose(overlaps[position],
                               np.sum(np.abs(inner) ** 2, axis=1), atol=1e-12)

    def test_compression_overlap_level_out_of_range_raises(self):
        states = random_states(self.rng, 2, 2)
        with pytest.raises(ValueError, match="compression level"):
            self.backend.compression_overlap_levels(states, [5])


class TestFloat32Backend:
    """Cross-validation of the single-precision backend variant."""

    def setup_method(self):
        self.rng = np.random.default_rng(11)
        self.reference = NumpyBackend()
        self.float32 = get_simulation_backend("numpy-float32")

    def test_registered_and_selectable(self):
        assert "numpy-float32" in available_simulation_backends()
        assert self.float32.dtype == np.dtype(np.complex64)

    def test_states_are_single_precision_results_float64(self):
        states = self.float32.as_states(random_states(self.rng, 4, 3))
        assert states.dtype == np.complex64
        overlaps = self.float32.compression_overlap_levels(states, [1])
        assert overlaps.dtype == np.float64

    def test_statevector_kernels_cross_validate(self):
        states = random_states(self.rng, 8, 3)[None]
        unitaries = random_unitary(self.rng, 3)[None]
        exact = self.reference.apply_unitary_stack(states, unitaries)
        single = self.float32.apply_unitary_stack(states, unitaries)
        assert single.dtype == np.complex64
        assert np.allclose(single, exact, atol=1e-5)
        assert np.allclose(
            self.float32.compression_overlap_levels(single[0], [1, 2]),
            self.reference.compression_overlap_levels(exact[0], [1, 2]),
            atol=1e-5)

    def test_density_kernels_cross_validate(self):
        states = random_states(self.rng, 5, 3)
        rhos64 = self.reference.density_from_states(
            self.reference.as_states(states))
        rhos32 = self.float32.density_from_states(
            self.float32.as_states(states))
        gate = random_unitary(self.rng, 2)
        evolved64 = self.reference.apply_gate_density_batch(rhos64, gate,
                                                            [0, 2])
        evolved32 = self.float32.apply_gate_density_batch(rhos32, gate, [0, 2])
        assert np.allclose(evolved32, evolved64, atol=1e-5)

    def test_engines_cross_validate_against_reference(self):
        from repro.algorithms.ansatz import RandomAutoencoderAnsatz
        from repro.core.ensemble import batch_amplitudes
        from repro.core.execution import AnalyticEngine, DensityMatrixEngine

        ansatz = RandomAutoencoderAnsatz(3, seed=17)
        values = self.rng.uniform(0.0, 1.0 / np.sqrt(7), size=(12, 7))
        batch = batch_amplitudes(values, 3)
        engines = (AnalyticEngine, DensityMatrixEngine,
                   lambda **kwargs: DensityMatrixEngine(
                       gate_level_encoding=True, **kwargs))
        for engine_cls in engines:
            exact = engine_cls(
                shots=None, simulation_backend="numpy"
            ).p1_levels_batch(batch, ansatz, [1, 2])
            single = engine_cls(
                shots=None, simulation_backend="numpy-float32"
            ).p1_levels_batch(batch, ansatz, [1, 2])
            assert single.dtype == np.float64
            assert np.allclose(single, exact, atol=1e-4)

    def test_detector_runs_on_float32_backend(self):
        from repro.core.detector import QuorumDetector

        data = self.rng.uniform(0.0, 1.0, size=(30, 6))
        exact = QuorumDetector(ensemble_groups=2, shots=None, seed=5,
                               simulation_backend="numpy").fit(data)
        single = QuorumDetector(ensemble_groups=2, shots=None, seed=5,
                                simulation_backend="numpy-float32").fit(data)
        assert np.allclose(single.anomaly_scores(), exact.anomaly_scores(),
                           atol=1e-3)
