"""Standard circuits with known outputs, run through the substrate that stays.

Bell, GHZ, W and QFT circuits are built from the gate set and simulated by
:class:`DensityMatrixSimulator` (the per-sample oracle of the SWAP-test
engines), by :class:`Statevector`, and through :meth:`QuantumCircuit.to_unitary`;
each output is compared with its closed form.  Random rotation/CX circuits
from :func:`tests.oracle.random_circuit` tie the three paths to each other.
"""

import math

import numpy as np
import pytest

from repro.quantum.circuit import QuantumCircuit
from repro.quantum.simulator import DensityMatrixSimulator
from repro.quantum.statevector import Statevector
from tests.oracle import random_circuit, unitaries_equivalent


def ghz_circuit(num_qubits):
    circuit = QuantumCircuit(num_qubits)
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    return circuit


def w_state_circuit(num_qubits):
    """Move the excitation of |0...01> down the register, leaving 1/n behind
    on every qubit."""
    circuit = QuantumCircuit(num_qubits)
    circuit.x(0)
    for qubit in range(num_qubits - 1):
        remaining = num_qubits - qubit
        circuit.cry(2.0 * math.acos(math.sqrt(1.0 / remaining)), qubit,
                    qubit + 1)
        circuit.cx(qubit + 1, qubit)
    return circuit


def qft_circuit(num_qubits, include_swaps=True):
    circuit = QuantumCircuit(num_qubits)
    for target in reversed(range(num_qubits)):
        circuit.h(target)
        for control in reversed(range(target)):
            circuit.cp(math.pi / 2 ** (target - control), control, target)
    if include_swaps:
        for qubit in range(num_qubits // 2):
            circuit.swap(qubit, num_qubits - 1 - qubit)
    return circuit


def dft_matrix(num_qubits):
    dim = 2 ** num_qubits
    omega = np.exp(2j * math.pi / dim)
    rows, cols = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return omega ** (rows * cols) / math.sqrt(dim)


def final_probabilities(circuit):
    return DensityMatrixSimulator().evolve(circuit).probabilities()


class TestBellAndGhz:
    def test_bell_pair_is_pure_and_balanced(self):
        state = DensityMatrixSimulator().evolve(ghz_circuit(2))
        assert np.allclose(state.probabilities(), [0.5, 0.0, 0.0, 0.5],
                           atol=1e-12)
        assert state.purity() == pytest.approx(1.0, abs=1e-12)
        # Coherence between |00> and |11>, not a classical mixture.
        assert state.data[0, 3] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("num_qubits", [2, 3, 5])
    def test_ghz_probabilities(self, num_qubits):
        probabilities = final_probabilities(ghz_circuit(num_qubits))
        assert probabilities[0] == pytest.approx(0.5, abs=1e-12)
        assert probabilities[-1] == pytest.approx(0.5, abs=1e-12)
        assert probabilities[1:-1].sum() == pytest.approx(0.0, abs=1e-12)

    def test_measured_ghz_reads_all_zeros_or_all_ones(self):
        circuit = ghz_circuit(3)
        circuit.measure_all()
        result = DensityMatrixSimulator(seed=3).run(circuit, shots=2000)
        assert set(result.counts) == {"000", "111"}
        assert abs(result.counts["000"] - 1000) < 150


class TestWState:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_w_state_is_uniform_over_weight_one_strings(self, num_qubits):
        probabilities = final_probabilities(w_state_circuit(num_qubits))
        for index, probability in enumerate(probabilities):
            expected = 1.0 / num_qubits if bin(index).count("1") == 1 else 0.0
            assert probability == pytest.approx(expected, abs=1e-12)

    def test_every_qubit_of_a_w_state_reads_one_with_probability_one_nth(self):
        state = DensityMatrixSimulator().evolve(w_state_circuit(4))
        for qubit in range(4):
            assert state.probability_of_outcome(qubit, 1) == pytest.approx(
                0.25, abs=1e-12)


class TestQft:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_qft_unitary_is_the_dft_matrix(self, num_qubits):
        assert np.allclose(qft_circuit(num_qubits).to_unitary(),
                           dft_matrix(num_qubits), atol=1e-12)

    def test_qft_of_zero_state_is_uniform(self):
        probabilities = final_probabilities(qft_circuit(4))
        assert np.allclose(probabilities, 1.0 / 16, atol=1e-12)

    def test_qft_of_a_basis_state_has_the_dft_phases(self):
        circuit = QuantumCircuit(3)
        circuit.x(0).x(2)  # |101> = index 5
        circuit.compose(qft_circuit(3))
        state = Statevector.zero_state(3)
        for instruction in circuit.instructions:
            state = state.evolve_gate(instruction.matrix_or_standard(),
                                      instruction.qubits)
        assert np.allclose(state.data, dft_matrix(3)[:, 5], atol=1e-12)

    def test_qft_without_swaps_permutes_outputs(self):
        with_swaps = qft_circuit(3).to_unitary()
        without_swaps = qft_circuit(3, include_swaps=False).to_unitary()
        assert not unitaries_equivalent(with_swaps, without_swaps)

    def test_inverse_qft_undoes_the_qft(self):
        circuit = qft_circuit(3)
        combined = circuit.copy().compose(circuit.inverse())
        assert np.allclose(combined.to_unitary(), np.eye(8), atol=1e-12)


class TestRandomCircuits:
    @pytest.mark.parametrize("num_qubits,seed", [(1, 0), (2, 1), (3, 2),
                                                 (4, 3)])
    def test_simulator_matches_the_dense_unitary(self, num_qubits, seed):
        circuit = random_circuit(num_qubits, depth=4, seed=seed)
        column = circuit.to_unitary()[:, 0]
        state = DensityMatrixSimulator().evolve(circuit)
        assert np.allclose(state.data, np.outer(column, column.conj()),
                           atol=1e-12)
        assert state.purity() == pytest.approx(1.0, abs=1e-12)

    def test_statevector_evolution_is_normalized_and_matches(self):
        circuit = random_circuit(5, depth=6, seed=0)
        state = Statevector.zero_state(5)
        for instruction in circuit.instructions:
            state = state.evolve_gate(instruction.matrix_or_standard(),
                                      instruction.qubits)
        assert state.is_normalized()
        assert np.allclose(state.data, circuit.to_unitary()[:, 0], atol=1e-12)

    def test_reproducible_from_its_seed(self):
        first = random_circuit(4, 5, seed=3)
        second = random_circuit(4, 5, seed=3)
        assert [(i.name, i.qubits, i.params) for i in first.instructions] == [
            (i.name, i.qubits, i.params) for i in second.instructions]

    def test_different_seeds_differ(self):
        first = random_circuit(4, 5, seed=1)
        second = random_circuit(4, 5, seed=2)
        assert [i.params for i in first.instructions] != [
            i.params for i in second.instructions]
