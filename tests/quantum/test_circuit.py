"""Unit tests for the QuantumCircuit IR."""

import math

import numpy as np
import pytest

from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum import gates
from tests.oracle import unitaries_equivalent


class TestCircuitConstruction:
    def test_requires_at_least_one_qubit(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_default_clbits_match_qubits(self):
        circuit = QuantumCircuit(3)
        assert circuit.num_clbits == 3

    def test_qubit_out_of_range_raises(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(IndexError):
            circuit.x(2)

    def test_duplicate_qubits_raise(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.cx(1, 1)

    def test_gate_arity_mismatch_raises(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit._add_gate("cx", [0])

    def test_clbit_out_of_range_raises(self):
        circuit = QuantumCircuit(2, 1)
        with pytest.raises(IndexError):
            circuit.measure(0, 1)

    def test_method_chaining(self):
        circuit = QuantumCircuit(2).h(0).cx(0, 1).measure_all()
        assert circuit.size() == 4

    def test_initialize_requires_normalized_state(self):
        circuit = QuantumCircuit(1)
        with pytest.raises(ValueError):
            circuit.initialize([1.0, 1.0], [0])

    def test_initialize_requires_power_of_two_amplitudes(self):
        circuit = QuantumCircuit(2)
        with pytest.raises(ValueError):
            circuit.initialize([1.0, 0.0, 0.0], [0, 1])

    def test_unitary_rejects_non_unitary_matrix(self):
        circuit = QuantumCircuit(1)
        with pytest.raises(ValueError):
            circuit.unitary(np.array([[1, 1], [0, 1]]), [0])

    def test_measure_all_needs_enough_clbits(self):
        circuit = QuantumCircuit(3, 1)
        with pytest.raises(ValueError):
            circuit.measure_all()


class TestCircuitStructure:
    def test_count_ops(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cx(1, 2).rx(0.5, 2)
        counts = circuit.count_ops()
        assert counts == {"h": 1, "cx": 2, "rx": 1}

    def test_depth_serial_vs_parallel(self):
        serial = QuantumCircuit(1)
        serial.h(0).h(0).h(0)
        assert serial.depth() == 3
        parallel = QuantumCircuit(3)
        parallel.h(0).h(1).h(2)
        assert parallel.depth() == 1

    def test_depth_ignores_barriers(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().h(1)
        assert circuit.depth() == 1

    def test_size_ignores_barriers(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).barrier().cx(0, 1)
        assert circuit.size() == 2

    def test_two_qubit_gate_count(self):
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).cswap(0, 1, 2).rx(0.2, 1)
        assert circuit.two_qubit_gate_count() == 2

    def test_has_nonunitary_flag(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert not circuit.has_nonunitary_operations
        circuit.reset(1)
        assert circuit.has_nonunitary_operations

    def test_copy_is_independent(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        duplicate = circuit.copy()
        duplicate.x(1)
        assert circuit.size() == 1
        assert duplicate.size() == 2

    def test_repr_mentions_size(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert "size=1" in repr(circuit)


class TestCompose:
    def test_compose_identity_mapping(self):
        inner = QuantumCircuit(2)
        inner.h(0).cx(0, 1)
        outer = QuantumCircuit(2)
        outer.compose(inner)
        assert outer.count_ops() == {"h": 1, "cx": 1}

    def test_compose_with_qubit_mapping(self):
        inner = QuantumCircuit(2)
        inner.cx(0, 1)
        outer = QuantumCircuit(4)
        outer.compose(inner, qubits=[2, 3])
        assert outer.instructions[0].qubits == (2, 3)

    def test_compose_wrong_mapping_length_raises(self):
        inner = QuantumCircuit(2)
        outer = QuantumCircuit(4)
        with pytest.raises(ValueError):
            outer.compose(inner, qubits=[0])


class TestInverse:
    def test_inverse_of_unitary_circuit_is_identity(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).rx(0.3, 1).cx(0, 1).rz(1.2, 0).t(1)
        combined = circuit.copy()
        combined.compose(circuit.inverse())
        assert unitaries_equivalent(combined.to_unitary(), np.eye(4))

    def test_inverse_reverses_order(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).t(0)
        inverse = circuit.inverse()
        assert [instr.name for instr in inverse.instructions] == ["tdg", "h"]

    def test_inverse_of_reset_raises(self):
        circuit = QuantumCircuit(1)
        circuit.reset(0)
        with pytest.raises(ValueError):
            circuit.inverse()

    def test_instruction_inverse_of_rotation_negates_angle(self):
        instr = Instruction(name="rx", qubits=(0,), params=(0.7,))
        assert instr.inverse().params == (-0.7,)

    def test_instruction_inverse_of_u_gate(self):
        instr = Instruction(name="u", qubits=(0,), params=(0.3, 0.5, 0.7))
        matrix = instr.matrix_or_standard()
        inverse_matrix = instr.inverse().matrix_or_standard()
        assert np.allclose(matrix @ inverse_matrix, np.eye(2), atol=1e-10)


class TestToUnitary:
    def test_bell_circuit_unitary(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        unitary = circuit.to_unitary()
        state = unitary @ np.array([1, 0, 0, 0], dtype=complex)
        expected = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert np.allclose(state, expected)

    def test_to_unitary_rejects_nonunitary_circuit(self):
        circuit = QuantumCircuit(1)
        circuit.reset(0)
        with pytest.raises(ValueError):
            circuit.to_unitary()

    def test_gate_order_matters(self):
        circuit = QuantumCircuit(1)
        circuit.x(0).h(0)
        expected = gates.H @ gates.X
        assert np.allclose(circuit.to_unitary(), expected)
