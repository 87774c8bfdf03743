"""Every gate of the gate set, on every placement, through every gate kernel.

The reference is written from the little-endian convention alone: a k-qubit
gate on qubits ``(q0, q1, ...)`` has full-register element
``gate[local(i), local(j)]`` when basis states ``i`` and ``j`` agree off the
targets (and 0 otherwise), where ``local`` gathers bit ``q_m`` into position
``m``.  The batched backend kernels (both precisions), the single-state
:class:`Statevector` / :class:`DensityMatrix` evolution, ``expand_gate`` and
the per-sample simulator must all apply that matrix.
"""

import itertools

import numpy as np
import pytest

from repro.quantum import gates
from repro.quantum.backend import get_simulation_backend
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.simulator import DensityMatrixSimulator
from repro.quantum.statevector import Statevector, expand_gate

NUM_QUBITS = 3

#: Angles for the parametric gates; the fixed gates take none.
PARAMS = {
    "rx": (0.7,), "ry": (-1.3,), "rz": (2.1,), "p": (0.4,),
    "u": (0.3, 1.1, -0.4), "crx": (0.9,), "cry": (-0.6,), "crz": (1.7,),
    "cp": (2.5,), "rxx": (0.8,), "rzz": (-1.9,),
}

GATE_NAMES = sorted(gates.GATE_NUM_QUBITS)

#: (backend name, tolerance): the float32 kernels compute in complex64.
BACKENDS = [("numpy", 1e-12), ("numpy-float32", 1e-5)]


def bit_level_embedding(gate, qubits, num_qubits):
    """The full-register matrix of ``gate`` on ``qubits``, element by element."""
    dim = 2 ** num_qubits
    targets_mask = sum(1 << qubit for qubit in qubits)

    def local(index):
        return sum(((index >> qubit) & 1) << position
                   for position, qubit in enumerate(qubits))

    full = np.zeros((dim, dim), dtype=complex)
    for row in range(dim):
        for col in range(dim):
            if row & ~targets_mask == col & ~targets_mask:
                full[row, col] = gate[local(row), local(col)]
    return full


def placements(name):
    return list(itertools.permutations(range(NUM_QUBITS),
                                       gates.GATE_NUM_QUBITS[name]))


def random_states(rng, batch):
    dim = 2 ** NUM_QUBITS
    states = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    return states / np.linalg.norm(states, axis=1, keepdims=True)


def random_mixed_states(rng, batch):
    dim = 2 ** NUM_QUBITS
    factors = (rng.normal(size=(batch, dim, dim))
               + 1j * rng.normal(size=(batch, dim, dim)))
    rhos = factors @ factors.conj().transpose(0, 2, 1)
    return rhos / np.einsum("bii->b", rhos).real[:, None, None]


@pytest.mark.parametrize("name", GATE_NAMES)
def test_state_kernels_apply_the_embedded_gate(name):
    gate = gates.standard_gate_matrix(name, PARAMS.get(name, ()))
    states = random_states(np.random.default_rng(len(name)), 4)
    for qubits in placements(name):
        full = bit_level_embedding(gate, qubits, NUM_QUBITS)
        expected = states @ full.T
        assert np.allclose(expand_gate(gate, qubits, NUM_QUBITS), full,
                           atol=1e-12)
        for row, state in enumerate(states):
            evolved = Statevector(state).evolve_gate(gate, qubits)
            assert np.allclose(evolved.data, expected[row], atol=1e-12)
        for backend_name, tolerance in BACKENDS:
            backend = get_simulation_backend(backend_name)
            batched = backend.apply_gate_batch(backend.as_states(states),
                                               gate, qubits)
            assert np.allclose(batched, expected, atol=tolerance), (
                backend_name, qubits)


@pytest.mark.parametrize("name", GATE_NAMES)
def test_density_kernels_apply_the_embedded_gate(name):
    params = PARAMS.get(name, ())
    gate = gates.standard_gate_matrix(name, params)
    rhos = random_mixed_states(np.random.default_rng(len(name)), 3)
    for qubits in placements(name):
        full = bit_level_embedding(gate, qubits, NUM_QUBITS)
        expected = full @ rhos @ full.conj().T
        for row, rho in enumerate(rhos):
            evolved = DensityMatrix(rho).evolve_gate(gate, qubits)
            assert np.allclose(evolved.data, expected[row], atol=1e-12)
        for backend_name, tolerance in BACKENDS:
            backend = get_simulation_backend(backend_name)
            batched = backend.apply_gate_density_batch(
                rhos.astype(backend.dtype), gate, qubits)
            assert np.allclose(batched, expected, atol=tolerance), (
                backend_name, qubits)
        # The per-sample simulator resolves the gate by name from a circuit.
        circuit = QuantumCircuit(NUM_QUBITS)
        circuit.h(0).ry(0.5, 1).cx(1, 2)
        circuit.append(Instruction(name=name, qubits=qubits, params=params))
        prepared = circuit.copy()
        prepared.instructions.pop()
        before = DensityMatrixSimulator().evolve(prepared).data
        after = DensityMatrixSimulator().evolve(circuit).data
        assert np.allclose(after, full @ before @ full.conj().T, atol=1e-12)
