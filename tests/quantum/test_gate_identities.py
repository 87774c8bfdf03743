"""Textbook gate identities, checked through the circuit's dense unitary.

Every multi-qubit gate of the gate set must equal its standard decomposition
into CX and single-qubit gates, and every fixed single-qubit gate must equal
its U(theta, phi, lambda) form and the rz/sx lowering a Brisbane-basis device
runs.  The identities pin the gate matrices in :mod:`repro.quantum.gates` and
their little-endian embedding by :meth:`QuantumCircuit.to_unitary` against
each other, on both qubit orders.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import gates
from repro.quantum.circuit import Instruction, QuantumCircuit
from tests.oracle import unitaries_equivalent

ANGLE = 0.7

ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi,
                   allow_nan=False, allow_infinity=False)


def gate_unitary(name, params, qubits, num_qubits):
    circuit = QuantumCircuit(num_qubits)
    circuit.append(Instruction(name=name, qubits=tuple(qubits),
                               params=tuple(params)))
    return circuit.to_unitary()


def built_unitary(num_qubits, build, *args):
    circuit = QuantumCircuit(num_qubits)
    build(circuit, *args)
    return circuit.to_unitary()


def ch_decomposition(circuit, control, target):
    circuit.s(target).h(target).t(target).cx(control, target)
    circuit.tdg(target).h(target).sdg(target)


def ccx_decomposition(circuit, control_a, control_b, target):
    circuit.h(target).cx(control_b, target).tdg(target).cx(control_a, target)
    circuit.t(target).cx(control_b, target).tdg(target).cx(control_a, target)
    circuit.t(control_b).t(target).h(target).cx(control_a, control_b)
    circuit.t(control_a).tdg(control_b).cx(control_a, control_b)


def cswap_decomposition(circuit, control, target_a, target_b):
    circuit.cx(target_b, target_a)
    ccx_decomposition(circuit, control, target_a, target_b)
    circuit.cx(target_b, target_a)


#: name -> (params, decomposition(circuit, qubit_a, qubit_b)).
TWO_QUBIT_DECOMPOSITIONS = {
    "cz": ((), lambda c, a, b: c.h(b).cx(a, b).h(b)),
    "cy": ((), lambda c, a, b: c.sdg(b).cx(a, b).s(b)),
    "ch": ((), ch_decomposition),
    "swap": ((), lambda c, a, b: c.cx(a, b).cx(b, a).cx(a, b)),
    "crx": ((ANGLE,), lambda c, a, b: c.h(b).rz(ANGLE / 2, b).cx(a, b)
            .rz(-ANGLE / 2, b).cx(a, b).h(b)),
    "cry": ((ANGLE,), lambda c, a, b: c.ry(ANGLE / 2, b).cx(a, b)
            .ry(-ANGLE / 2, b).cx(a, b)),
    "crz": ((ANGLE,), lambda c, a, b: c.rz(ANGLE / 2, b).cx(a, b)
            .rz(-ANGLE / 2, b).cx(a, b)),
    "cp": ((ANGLE,), lambda c, a, b: c.p(ANGLE / 2, a).cx(a, b)
           .p(-ANGLE / 2, b).cx(a, b).p(ANGLE / 2, b)),
    "rzz": ((ANGLE,), lambda c, a, b: c.cx(a, b).rz(ANGLE, b).cx(a, b)),
    "rxx": ((ANGLE,), lambda c, a, b: c.h(a).h(b).cx(a, b).rz(ANGLE, b)
            .cx(a, b).h(a).h(b)),
}

#: Fixed single-qubit gate -> its U(theta, phi, lambda) angles.
U_ANGLES = {
    "id": (0.0, 0.0, 0.0),
    "x": (math.pi, 0.0, math.pi),
    "y": (math.pi, math.pi / 2, math.pi / 2),
    "z": (0.0, 0.0, math.pi),
    "h": (math.pi / 2, 0.0, math.pi),
    "s": (0.0, 0.0, math.pi / 2),
    "sdg": (0.0, 0.0, -math.pi / 2),
    "t": (0.0, 0.0, math.pi / 4),
    "tdg": (0.0, 0.0, -math.pi / 4),
    "sx": (math.pi / 2, -math.pi / 2, math.pi / 2),
    "sxdg": (math.pi / 2, math.pi / 2, -math.pi / 2),
    "rx": (ANGLE, -math.pi / 2, math.pi / 2),
    "ry": (ANGLE, 0.0, 0.0),
    "rz": (0.0, 0.0, ANGLE),
    "p": (0.0, 0.0, ANGLE),
}


def brisbane_lowering(theta, phi, lam):
    """U(theta, phi, lambda) as rz . sx . rz . sx . rz, up to a global phase."""
    return (gates.rz_matrix(phi + math.pi) @ gates.SX
            @ gates.rz_matrix(theta + math.pi) @ gates.SX
            @ gates.rz_matrix(lam))


class TestTwoQubitDecompositions:
    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0)])
    @pytest.mark.parametrize("name", sorted(TWO_QUBIT_DECOMPOSITIONS))
    def test_gate_equals_its_cx_decomposition(self, name, qubits):
        params, build = TWO_QUBIT_DECOMPOSITIONS[name]
        expected = gate_unitary(name, params, qubits, 2)
        rebuilt = built_unitary(2, build, *qubits)
        assert np.allclose(rebuilt, expected, atol=1e-12)


class TestThreeQubitDecompositions:
    @pytest.mark.parametrize("qubits", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_toffoli_equals_its_six_cx_decomposition(self, qubits):
        expected = gate_unitary("ccx", (), qubits, 3)
        rebuilt = built_unitary(3, ccx_decomposition, *qubits)
        assert np.allclose(rebuilt, expected, atol=1e-12)

    @pytest.mark.parametrize("qubits", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_fredkin_is_a_toffoli_between_two_cx(self, qubits):
        expected = gate_unitary("cswap", (), qubits, 3)
        rebuilt = built_unitary(3, cswap_decomposition, *qubits)
        assert np.allclose(rebuilt, expected, atol=1e-12)


class TestSingleQubitForms:
    @pytest.mark.parametrize("name", sorted(U_ANGLES))
    def test_gate_matches_u_and_brisbane_forms(self, name):
        params = (ANGLE,) if name in gates.PARAMETRIC_GATES else ()
        matrix = gates.standard_gate_matrix(name, params)
        theta, phi, lam = U_ANGLES[name]
        assert unitaries_equivalent(matrix, gates.u_matrix(theta, phi, lam),
                                    atol=1e-12)
        assert unitaries_equivalent(matrix, brisbane_lowering(theta, phi, lam),
                                    atol=1e-12)

    @given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
    @settings(max_examples=50, deadline=None)
    def test_u_is_the_zyz_euler_product_with_its_phase(self, theta, phi, lam):
        euler = (np.exp(0.5j * (phi + lam)) * gates.rz_matrix(phi)
                 @ gates.ry_matrix(theta) @ gates.rz_matrix(lam))
        assert np.allclose(gates.u_matrix(theta, phi, lam), euler, atol=1e-12)

    @given(theta=ANGLES, phi=ANGLES, lam=ANGLES)
    @settings(max_examples=50, deadline=None)
    def test_u_adjoint_swaps_and_negates_its_angles(self, theta, phi, lam):
        adjoint = gates.u_matrix(theta, phi, lam).conj().T
        assert np.allclose(adjoint, gates.u_matrix(-theta, -lam, -phi),
                           atol=1e-12)
