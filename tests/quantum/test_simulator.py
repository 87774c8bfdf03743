"""Tests for the per-sample density-matrix simulator."""

import math

import numpy as np
import pytest

from repro.quantum.backends import FakeBrisbane
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel, QuantumError, ReadoutError, depolarizing_kraus
from repro.quantum.simulator import DensityMatrixSimulator


def bell_circuit(measured=True):
    circuit = QuantumCircuit(2)
    circuit.h(0).cx(0, 1)
    if measured:
        circuit.measure_all()
    return circuit


class TestDensityMatrixSimulator:
    def test_deterministic_circuit_counts(self):
        circuit = QuantumCircuit(2)
        circuit.x(0).measure_all()
        result = DensityMatrixSimulator(seed=1).run(circuit, shots=100)
        assert result.counts == {"01": 100}

    def test_bell_counts_are_balanced(self):
        result = DensityMatrixSimulator(seed=2).run(bell_circuit(), shots=4000)
        assert set(result.counts) == {"00", "11"}
        assert abs(result.counts["00"] - 2000) < 200

    def test_initialize_subset_of_qubits(self):
        circuit = QuantumCircuit(3)
        circuit.initialize([0.0, 1.0], [1])
        circuit.measure_all()
        result = DensityMatrixSimulator(seed=4).run(circuit, shots=50)
        assert result.counts == {"010": 50}

    def test_reset_on_superposition(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).reset(0).measure(0, 0)
        result = DensityMatrixSimulator(seed=6).run(circuit, shots=64)
        assert result.counts == {"0": 64}

    def test_no_measurement_returns_the_density_matrix(self):
        result = DensityMatrixSimulator(seed=0).run(bell_circuit(measured=False),
                                                    shots=10)
        assert result.counts == {}
        assert result.density_matrix is not None
        assert np.isclose(result.density_matrix.probabilities()[0], 0.5)

    def test_initialize_instruction(self):
        circuit = QuantumCircuit(2)
        amplitudes = np.array([0.5, 0.5j, -0.5, 0.5])
        circuit.initialize(amplitudes, [0, 1])
        state = DensityMatrixSimulator().evolve(circuit)
        assert np.allclose(state.data, np.outer(amplitudes, amplitudes.conj()))
        circuit.measure_all()
        result = DensityMatrixSimulator(seed=3).run(circuit, shots=4000)
        assert set(result.counts) == {"00", "01", "10", "11"}

    def test_reset_gives_zero(self):
        circuit = QuantumCircuit(1)
        circuit.x(0).reset(0).measure(0, 0)
        result = DensityMatrixSimulator(seed=5).run(circuit, shots=64)
        assert result.counts == {"0": 64}

    def test_reset_of_entangled_qubit_leaves_partner_mixed(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).reset(0)
        circuit.measure(0, 0).measure(1, 1)
        result = DensityMatrixSimulator(seed=7).run(circuit, shots=2000)
        # Qubit 0 must always read 0; qubit 1 is split roughly 50/50.
        assert all(key[1] == "0" for key in result.counts)
        assert abs(result.counts.get("10", 0) - 1000) < 200

    def test_seeded_runs_reproduce(self):
        first = DensityMatrixSimulator(seed=12).run(bell_circuit(), shots=500)
        second = DensityMatrixSimulator().run(bell_circuit(), shots=500, seed=12)
        assert first.counts == second.counts

    def test_float32_backend_evolves_the_same_state(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).ry(0.4, 2).cswap(2, 0, 1).reset(1)
        reference = DensityMatrixSimulator().evolve(circuit)
        single = DensityMatrixSimulator(backend="numpy-float32").evolve(circuit)
        assert np.allclose(single.data, reference.data, atol=1e-6)

    def test_result_probability_helpers(self):
        result = DensityMatrixSimulator(seed=10).run(bell_circuit(), shots=1000)
        assert np.isclose(result.probability("00") + result.probability("11"), 1.0)
        assert np.isclose(result.marginal_probability(0, 0),
                          result.probability("00"), atol=1e-9)

    def test_exact_reset_behaviour(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1).reset(0)
        state = DensityMatrixSimulator().evolve(circuit)
        assert np.isclose(state.probability_of_outcome(0, 0), 1.0)
        assert np.isclose(state.probability_of_outcome(1, 1), 0.5)
        assert np.isclose(state.purity(), 0.5)

    def test_noise_model_reduces_purity(self):
        noise = NoiseModel()
        noise.add_all_two_qubit_error(
            QuantumError.from_kraus(depolarizing_kraus(0.2, 2))
        )
        circuit = bell_circuit(measured=False)
        noisy = DensityMatrixSimulator(noise_model=noise).evolve(circuit)
        clean = DensityMatrixSimulator().evolve(circuit)
        assert noisy.purity() < clean.purity()

    def test_readout_error_flips_deterministic_outcome(self):
        noise = NoiseModel().set_readout_error(ReadoutError.symmetric(0.25))
        circuit = QuantumCircuit(1)
        circuit.measure(0, 0)
        result = DensityMatrixSimulator(noise_model=noise, seed=3).run(circuit,
                                                                       shots=4000)
        flipped = result.counts.get("1", 0) / 4000
        assert 0.15 < flipped < 0.35

    def test_brisbane_noise_model_runs(self):
        noise = FakeBrisbane().to_noise_model()
        circuit = bell_circuit()
        result = DensityMatrixSimulator(noise_model=noise, seed=5).run(circuit,
                                                                       shots=2000)
        assert sum(result.counts.values()) == 2000
        assert result.metadata["noisy"] is True
        # Noise should leave the dominant outcomes dominant.
        top_two = sorted(result.counts.values(), reverse=True)[:2]
        assert sum(top_two) > 1800

    def test_initialize_and_swap_test_structure(self):
        # A tiny SWAP test between identical single-qubit states must read 0 on the
        # ancilla with probability 1.
        circuit = QuantumCircuit(3, 1)
        amplitudes = [math.sqrt(0.3), math.sqrt(0.7)]
        circuit.initialize(amplitudes, [1])
        circuit.initialize(amplitudes, [2])
        circuit.h(0)
        circuit.cswap(0, 1, 2)
        circuit.h(0)
        circuit.measure(0, 0)
        result = DensityMatrixSimulator(seed=11).run(circuit, shots=512)
        assert result.counts == {"0": 512}

    def test_negative_shots_raises(self):
        with pytest.raises(ValueError):
            DensityMatrixSimulator().run(bell_circuit(), shots=-5)
