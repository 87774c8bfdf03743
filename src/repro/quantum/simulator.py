"""Shot-based circuit execution: the per-sample density-matrix simulator.

:class:`DensityMatrixSimulator` runs one :class:`QuantumCircuit` by exact
mixed-state evolution; reset and noise channels are applied deterministically
and measurement statistics are sampled from the final diagonal.  This is the
reference engine for Quorum because the autoencoder's partial reset produces
genuinely mixed states; its :meth:`~DensityMatrixSimulator.evolve` is the
oracle the SWAP-test engines in :mod:`repro.core.execution` are tested
against.

The simulator accepts a ``backend=`` argument (a name such as ``"numpy"`` or a
:class:`~repro.quantum.backend.SimulationBackend` instance) and routes every gate
application through that backend's batched einsum kernels -- a single circuit is
simply a batch of size one.  See :mod:`repro.quantum.backend` for the batching
contract (leading batch axis, ``complex128`` dtype, little-endian indices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.quantum.backend import SimulationBackend, get_simulation_backend
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import NoiseModel, ReadoutError

__all__ = [
    "ExecutionResult",
    "DensityMatrixSimulator",
]


@dataclass
class ExecutionResult:
    """Outcome of running one circuit.

    Attributes
    ----------
    counts:
        Histogram of classical-register bitstrings (little-endian: clbit 0 is the
        rightmost character).  Only populated when the circuit measures something.
    shots:
        Number of shots requested.
    density_matrix:
        Final mixed state.
    metadata:
        Engine-specific extras (the method, and whether noise was applied).
    """

    counts: Dict[str, int]
    shots: int
    density_matrix: Optional[DensityMatrix] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def probability(self, bitstring: str) -> float:
        """Empirical probability of a classical outcome."""
        if self.shots == 0:
            return 0.0
        return self.counts.get(bitstring, 0) / self.shots

    def marginal_probability(self, clbit: int, value: int) -> float:
        """Empirical probability that ``clbit`` reads ``value``."""
        if self.shots == 0:
            return 0.0
        total = 0
        for bitstring, count in self.counts.items():
            bit = int(bitstring[len(bitstring) - 1 - clbit])
            if bit == value:
                total += count
        return total / self.shots


def _apply_readout_error_to_bit(bit: int, readout: Optional[ReadoutError],
                                rng: np.random.Generator) -> int:
    if readout is None:
        return bit
    return readout.apply_to_bit(bit, rng)


class DensityMatrixSimulator:
    """Exact mixed-state simulator with optional noise model."""

    def __init__(self, noise_model: Optional[NoiseModel] = None,
                 seed: Optional[int] = None,
                 backend: Union[str, SimulationBackend, None] = None) -> None:
        self.noise_model = noise_model
        self._rng = np.random.default_rng(seed)
        self.backend = get_simulation_backend(backend)

    def _apply_gate(self, state: DensityMatrix, gate: np.ndarray,
                    qubits: Sequence[int]) -> DensityMatrix:
        """Conjugate by one gate through the backend kernel (batch of size one)."""
        data = self.backend.apply_gate_density_batch(state.data[None, :, :],
                                                     gate, qubits)
        return DensityMatrix(data[0])

    def run(self, circuit: QuantumCircuit, shots: int = 1024,
            seed: Optional[int] = None) -> ExecutionResult:
        """Execute ``circuit`` exactly and sample ``shots`` classical outcomes."""
        if shots < 0:
            raise ValueError("shots must be non-negative")
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        state = self.evolve(circuit)
        measure_map: Dict[int, int] = {}
        for instruction in circuit.instructions:
            if instruction.name == "measure":
                measure_map[instruction.clbits[0]] = instruction.qubits[0]
        counts: Dict[str, int] = {}
        if measure_map and shots > 0:
            counts = self._sample(circuit, state, measure_map, shots, rng)
        return ExecutionResult(counts=counts, shots=shots, density_matrix=state,
                               metadata={"method": "density_matrix",
                                         "noisy": self.noise_model is not None
                                         and not self.noise_model.is_trivial})

    def evolve(self, circuit: QuantumCircuit) -> DensityMatrix:
        """Evolve the circuit and return the final density matrix (no sampling)."""
        state = DensityMatrix.zero_state(circuit.num_qubits)
        for instruction in circuit.instructions:
            state = self._apply_instruction(state, instruction, circuit.num_qubits)
        return state

    # ------------------------------------------------------------------ helpers
    def _apply_instruction(self, state: DensityMatrix, instruction: Instruction,
                           num_qubits: int) -> DensityMatrix:
        if instruction.name in {"barrier", "measure"}:
            return state
        if instruction.name == "initialize":
            return self._apply_initialize_density(state, instruction, num_qubits)
        if instruction.name == "reset":
            return state.reset_qubit(instruction.qubits[0])
        state = self._apply_gate(state, instruction.matrix_or_standard(),
                                 instruction.qubits)
        if self.noise_model is not None:
            error = self.noise_model.error_for_instruction(instruction)
            if error is not None:
                state = state.apply_superoperator(
                    error.superoperator, instruction.qubits[: error.num_qubits]
                )
        return state

    @staticmethod
    def _apply_initialize_density(state: DensityMatrix, instruction: Instruction,
                                  num_qubits: int) -> DensityMatrix:
        target_state = instruction.state
        if target_state is None:
            raise ValueError("initialize instruction is missing its statevector")
        mask = 0
        for qubit in instruction.qubits:
            mask |= 1 << qubit
        rho = state.data
        dim = rho.shape[0]
        occupied = sum(abs(rho[index, index]) for index in range(dim) if index & mask)
        if occupied > 1e-9:
            raise ValueError(
                "initialize requires its target qubits to be in |0>; "
                "reset them first or initialize before other operations"
            )
        spreads = []
        for local_index in range(target_state.shape[0]):
            spread = 0
            for position, qubit in enumerate(instruction.qubits):
                if (local_index >> position) & 1:
                    spread |= 1 << qubit
            spreads.append(spread)
        new_rho = np.zeros_like(rho)
        nonzero_rows = [index for index in range(dim)
                        if not index & mask]
        for row in nonzero_rows:
            for col in nonzero_rows:
                value = rho[row, col]
                if value == 0:
                    continue
                for local_row, amp_row in enumerate(target_state):
                    if amp_row == 0:
                        continue
                    for local_col, amp_col in enumerate(target_state):
                        if amp_col == 0:
                            continue
                        new_rho[row | spreads[local_row], col | spreads[local_col]] += (
                            value * amp_row * np.conj(amp_col)
                        )
        return DensityMatrix(new_rho)

    def _sample(self, circuit: QuantumCircuit, state: DensityMatrix,
                measure_map: Dict[int, int], shots: int,
                rng: np.random.Generator) -> Dict[str, int]:
        qubits = sorted(set(measure_map.values()))
        probabilities = state.probabilities(qubits)
        readout = self.noise_model.readout_error if self.noise_model else None
        outcomes = rng.multinomial(shots, probabilities / probabilities.sum())
        counts: Dict[str, int] = {}
        for index, count in enumerate(outcomes):
            if count == 0:
                continue
            base_bits = [(index >> position) & 1 for position in range(len(qubits))]
            if readout is None:
                register = ["0"] * circuit.num_clbits
                for clbit, qubit in measure_map.items():
                    position = qubits.index(qubit)
                    register[circuit.num_clbits - 1 - clbit] = str(base_bits[position])
                key = "".join(register)
                counts[key] = counts.get(key, 0) + int(count)
                continue
            for _ in range(count):
                register = ["0"] * circuit.num_clbits
                for clbit, qubit in measure_map.items():
                    position = qubits.index(qubit)
                    bit = base_bits[position]
                    bit = _apply_readout_error_to_bit(bit, readout, rng)
                    register[circuit.num_clbits - 1 - clbit] = str(bit)
                key = "".join(register)
                counts[key] = counts.get(key, 0) + 1
        return counts
