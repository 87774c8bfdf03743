"""Shot-based circuit execution engines.

Two engines are provided, both consuming the same :class:`QuantumCircuit` IR:

* :class:`StatevectorSimulator` -- pure-state evolution.  Circuits containing
  mid-circuit ``reset`` or ``measure`` are run as stochastic trajectories (one per
  shot, or a configurable smaller number of trajectories with shots distributed
  over them), exactly like a hardware run would randomize those operations.
* :class:`DensityMatrixSimulator` -- exact mixed-state evolution; reset and noise
  channels are applied deterministically and measurement statistics are sampled
  from the final diagonal.  This is the reference engine for Quorum because the
  autoencoder's partial reset produces genuinely mixed states; its
  :meth:`~DensityMatrixSimulator.evolve` is the oracle the folded noisy engine
  in :mod:`repro.core.execution` is tested against.

Both simulators accept a ``backend=`` argument (a name such as ``"numpy"`` or a
:class:`~repro.quantum.backend.SimulationBackend` instance) and route every gate
application through that backend's batched einsum kernels -- a single circuit is
simply a batch of size one.  The batched SWAP-test engines in
:mod:`repro.core.execution` share the very same kernels, so a new backend
implementation accelerates both the per-circuit and the batched paths.  See
:mod:`repro.quantum.backend` for the batching contract (leading batch axis,
``complex128`` dtype, little-endian indices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.quantum.backend import SimulationBackend, get_simulation_backend
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import NoiseModel, ReadoutError
from repro.quantum.statevector import Statevector

__all__ = [
    "ExecutionResult",
    "StatevectorSimulator",
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
    statevector:
        Final pure state, when the engine tracked one and the circuit had no
        stochastic operations.
    density_matrix:
        Final mixed state, when produced by the density-matrix engine.
    metadata:
        Engine-specific extras (e.g. number of trajectories).
    """

    counts: Dict[str, int]
    shots: int
    statevector: Optional[Statevector] = None
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


class StatevectorSimulator:
    """Pure-state, trajectory-based circuit simulator."""

    def __init__(self, seed: Optional[int] = None,
                 max_trajectories: Optional[int] = None,
                 backend: Union[str, SimulationBackend, None] = None) -> None:
        self._rng = np.random.default_rng(seed)
        self.max_trajectories = max_trajectories
        self.backend = get_simulation_backend(backend)

    def _apply_gate(self, state: Statevector, gate: np.ndarray,
                    qubits: Sequence[int]) -> Statevector:
        """Apply one gate through the backend kernel (a batch of size one)."""
        data = self.backend.apply_gate_batch(state.data[None, :], gate, qubits)
        return Statevector(data[0])

    def run(self, circuit: QuantumCircuit, shots: int = 1024,
            seed: Optional[int] = None) -> ExecutionResult:
        """Execute ``circuit`` and return sampled counts.

        Noise models are not supported by this engine; use
        :class:`DensityMatrixSimulator` for noisy runs.
        """
        if shots < 0:
            raise ValueError("shots must be non-negative")
        rng = np.random.default_rng(seed) if seed is not None else self._rng
        stochastic = any(
            instr.name in {"reset", "measure"} for instr in circuit.instructions[:-1]
        ) or any(instr.name == "reset" for instr in circuit.instructions)
        has_measure = any(instr.name == "measure" for instr in circuit.instructions)

        if not stochastic:
            state = self._evolve_deterministic(circuit)
            counts: Dict[str, int] = {}
            if has_measure and shots > 0:
                counts = self._sample_terminal_measurements(circuit, state, shots, rng)
            return ExecutionResult(counts=counts, shots=shots, statevector=state,
                                   metadata={"method": "statevector"})

        trajectories = shots
        if self.max_trajectories is not None:
            trajectories = min(trajectories, self.max_trajectories)
        trajectories = max(trajectories, 1)
        shots_per_trajectory = self._split_shots(shots, trajectories)
        counts = {}
        last_state: Optional[Statevector] = None
        for trajectory_shots in shots_per_trajectory:
            state, classical = self._evolve_trajectory(circuit, rng)
            last_state = state
            if not has_measure or trajectory_shots == 0:
                continue
            trajectory_counts = self._sample_terminal_measurements(
                circuit, state, trajectory_shots, rng, classical
            )
            for bitstring, count in trajectory_counts.items():
                counts[bitstring] = counts.get(bitstring, 0) + count
        return ExecutionResult(
            counts=counts,
            shots=shots,
            statevector=last_state,
            metadata={"method": "statevector_trajectories",
                      "trajectories": len(shots_per_trajectory)},
        )

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _split_shots(shots: int, trajectories: int) -> List[int]:
        base = shots // trajectories
        remainder = shots % trajectories
        split = [base + (1 if index < remainder else 0) for index in range(trajectories)]
        return [s for s in split if s > 0] or [0]

    def _evolve_deterministic(self, circuit: QuantumCircuit) -> Statevector:
        state = Statevector.zero_state(circuit.num_qubits)
        for instruction in circuit.instructions:
            if instruction.name in {"barrier", "measure"}:
                continue
            if instruction.name == "initialize":
                state = self._apply_initialize(state, instruction, circuit.num_qubits)
                continue
            state = self._apply_gate(state, instruction.matrix_or_standard(),
                                     instruction.qubits)
        return state

    def _evolve_trajectory(self, circuit: QuantumCircuit,
                           rng: np.random.Generator) -> Tuple[Statevector, Dict[int, int]]:
        state = Statevector.zero_state(circuit.num_qubits)
        classical: Dict[int, int] = {}
        terminal_measures = self._terminal_measurement_indices(circuit)
        for index, instruction in enumerate(circuit.instructions):
            if instruction.name == "barrier":
                continue
            if instruction.name == "initialize":
                state = self._apply_initialize(state, instruction, circuit.num_qubits)
                continue
            if instruction.name == "reset":
                state, _ = self._project_qubit(state, instruction.qubits[0], rng,
                                               collapse_to_zero=True)
                continue
            if instruction.name == "measure":
                if index in terminal_measures:
                    # Terminal measurements are sampled afterwards (all shots of the
                    # trajectory draw from the same final distribution).
                    continue
                state, outcome = self._project_qubit(state, instruction.qubits[0], rng)
                classical[instruction.clbits[0]] = outcome
                continue
            state = self._apply_gate(state, instruction.matrix_or_standard(),
                                     instruction.qubits)
        return state, classical

    @staticmethod
    def _terminal_measurement_indices(circuit: QuantumCircuit) -> set:
        """Indices of measurements not followed by any gate/reset on their qubit."""
        terminal: set = set()
        for index, instruction in enumerate(circuit.instructions):
            if instruction.name != "measure":
                continue
            qubit = instruction.qubits[0]
            followed = False
            for later in circuit.instructions[index + 1:]:
                if later.name == "barrier":
                    continue
                if qubit in later.qubits and later.name != "measure":
                    followed = True
                    break
            if not followed:
                terminal.add(index)
        return terminal

    @staticmethod
    def _apply_initialize(state: Statevector, instruction: Instruction,
                          num_qubits: int) -> Statevector:
        target_state = instruction.state
        if target_state is None:
            raise ValueError("initialize instruction is missing its statevector")
        if len(instruction.qubits) == num_qubits and tuple(instruction.qubits) == tuple(
                range(num_qubits)):
            return Statevector(target_state.copy())
        # Tensor the prepared register into the existing state.  The target qubits
        # must currently be in |0...0> (which is how amplitude encoding uses it).
        mask = 0
        for qubit in instruction.qubits:
            mask |= 1 << qubit
        data = state.data
        occupied = sum(abs(data[index]) ** 2
                       for index in range(data.shape[0]) if index & mask)
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
        full = np.zeros_like(data)
        for index in range(data.shape[0]):
            if index & mask or data[index] == 0:
                continue
            for local_index, amplitude in enumerate(target_state):
                if amplitude == 0:
                    continue
                full[index | spreads[local_index]] += data[index] * amplitude
        return Statevector(full)

    @staticmethod
    def _project_qubit(state: Statevector, qubit: int, rng: np.random.Generator,
                       collapse_to_zero: bool = False) -> Tuple[Statevector, int]:
        """Measure ``qubit``; optionally flip the post-measurement state to |0>."""
        probabilities = state.probabilities([qubit])
        outcome = int(rng.random() < probabilities[1])
        tensor = state.tensor().copy()
        axis = state.num_qubits - 1 - qubit
        index = [slice(None)] * state.num_qubits
        index[axis] = 1 - outcome
        tensor[tuple(index)] = 0.0
        collapsed = tensor.reshape(-1)
        norm = np.linalg.norm(collapsed)
        if norm < 1e-15:
            raise RuntimeError("measurement collapsed onto a zero-norm state")
        collapsed = collapsed / norm
        new_state = Statevector(collapsed)
        if collapse_to_zero and outcome == 1:
            from repro.quantum.gates import X  # local import to avoid cycles at load

            new_state = new_state.evolve_gate(X, [qubit])
        return new_state, outcome

    def _sample_terminal_measurements(self, circuit: QuantumCircuit,
                                      state: Statevector, shots: int,
                                      rng: np.random.Generator,
                                      classical: Optional[Dict[int, int]] = None
                                      ) -> Dict[str, int]:
        classical = dict(classical or {})
        measure_map: Dict[int, int] = {}
        for index in self._terminal_measurement_indices(circuit):
            instruction = circuit.instructions[index]
            measure_map[instruction.clbits[0]] = instruction.qubits[0]
        if not measure_map and not classical:
            return {}
        qubits = sorted(set(measure_map.values()))
        counts: Dict[str, int] = {}
        if qubits:
            qubit_counts = state.sample_counts(shots, rng, qubits)
        else:
            qubit_counts = {"": shots}
        for qubit_bitstring, count in qubit_counts.items():
            bits = dict(classical)
            for clbit, qubit in measure_map.items():
                position = qubits.index(qubit)
                bits[clbit] = int(qubit_bitstring[len(qubit_bitstring) - 1 - position])
            register = ["0"] * circuit.num_clbits
            for clbit, value in bits.items():
                register[circuit.num_clbits - 1 - clbit] = str(value)
            key = "".join(register)
            counts[key] = counts.get(key, 0) + count
        return counts


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
