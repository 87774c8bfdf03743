"""Quantum circuit intermediate representation.

The :class:`QuantumCircuit` here intentionally mirrors the small slice of Qiskit's
``QuantumCircuit`` API that the Quorum artifact relies on: standard gates, arbitrary
state initialization, qubit reset (used for the autoencoder's information
bottleneck), measurement into classical bits, barriers, composition, and inversion.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum import gates as gate_lib

__all__ = ["Instruction", "QuantumCircuit"]

#: Instruction names that are not plain unitary gates.
_NON_UNITARY_NAMES = {"reset", "measure", "barrier", "initialize"}


@dataclass(frozen=True)
class Instruction:
    """A single operation in a circuit.

    Attributes
    ----------
    name:
        Lowercase operation name; either a standard gate name, ``"unitary"`` for an
        explicit matrix, or one of ``reset``, ``measure``, ``barrier``,
        ``initialize``.
    qubits:
        Target qubits, in little-endian significance order (first listed qubit is
        the least-significant index of the gate matrix).
    params:
        Gate parameters (rotation angles, Euler angles, ...).
    clbits:
        Classical bits written by ``measure`` instructions.
    matrix:
        Explicit unitary for ``"unitary"`` instructions.
    state:
        Target statevector for ``"initialize"`` instructions (normalized amplitudes
        over the listed qubits).
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()
    clbits: Tuple[int, ...] = ()
    matrix: Optional[np.ndarray] = field(default=None, compare=False)
    state: Optional[np.ndarray] = field(default=None, compare=False)

    @property
    def is_unitary(self) -> bool:
        """True when the instruction is a plain unitary gate."""
        return self.name not in _NON_UNITARY_NAMES

    def matrix_or_standard(self) -> np.ndarray:
        """Return the unitary matrix for this instruction.

        Raises
        ------
        ValueError
            If the instruction is not unitary.
        """
        if not self.is_unitary:
            raise ValueError(f"instruction '{self.name}' has no unitary matrix")
        if self.name == "unitary":
            if self.matrix is None:
                raise ValueError("unitary instruction is missing its matrix")
            return self.matrix
        return gate_lib.standard_gate_matrix(self.name, self.params)

    def inverse(self) -> "Instruction":
        """Return the inverse instruction.

        Raises
        ------
        ValueError
            If the instruction is non-unitary (reset/measure cannot be inverted).
        """
        if not self.is_unitary:
            raise ValueError(f"cannot invert non-unitary instruction '{self.name}'")
        if self.name == "unitary":
            return Instruction(
                name="unitary",
                qubits=self.qubits,
                matrix=self.matrix_or_standard().conj().T.copy(),
            )
        inverse_names = {
            "s": "sdg",
            "sdg": "s",
            "t": "tdg",
            "tdg": "t",
            "sx": "sxdg",
            "sxdg": "sx",
        }
        if self.name in inverse_names:
            return Instruction(name=inverse_names[self.name], qubits=self.qubits)
        if self.name in {"id", "x", "y", "z", "h", "cx", "cz", "cy", "ch", "swap",
                         "ccx", "cswap"}:
            return Instruction(name=self.name, qubits=self.qubits)
        if self.name in {"rx", "ry", "rz", "p", "crx", "cry", "crz", "cp", "rxx",
                         "rzz"}:
            params = tuple(-value for value in self.params)
            return Instruction(name=self.name, qubits=self.qubits, params=params)
        if self.name == "u":
            theta, phi, lam = self.params
            return Instruction(
                name="u", qubits=self.qubits, params=(-theta, -lam, -phi)
            )
        return Instruction(
            name="unitary",
            qubits=self.qubits,
            matrix=self.matrix_or_standard().conj().T.copy(),
        )


class QuantumCircuit:
    """An ordered list of instructions over ``num_qubits`` qubits.

    Parameters
    ----------
    num_qubits:
        Number of qubits in the circuit.
    num_clbits:
        Number of classical bits.  Defaults to ``num_qubits`` so that a final
        ``measure_all`` always has somewhere to write.
    name:
        Optional human-readable name.
    """

    def __init__(self, num_qubits: int, num_clbits: Optional[int] = None,
                 name: str = "circuit") -> None:
        if num_qubits < 1:
            raise ValueError("a circuit needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits) if num_clbits is not None else int(num_qubits)
        self.name = name
        self.instructions: List[Instruction] = []

    # ------------------------------------------------------------------ helpers
    def _check_qubits(self, qubits: Sequence[int]) -> Tuple[int, ...]:
        qubits = tuple(int(q) for q in qubits)
        for qubit in qubits:
            if not 0 <= qubit < self.num_qubits:
                raise IndexError(
                    f"qubit {qubit} out of range for {self.num_qubits}-qubit circuit"
                )
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"duplicate qubits in {qubits}")
        return qubits

    def _check_clbits(self, clbits: Sequence[int]) -> Tuple[int, ...]:
        clbits = tuple(int(c) for c in clbits)
        for clbit in clbits:
            if not 0 <= clbit < self.num_clbits:
                raise IndexError(
                    f"clbit {clbit} out of range for {self.num_clbits} classical bits"
                )
        return clbits

    def append(self, instruction: Instruction) -> "QuantumCircuit":
        """Append a pre-built :class:`Instruction` (qubits are validated)."""
        self._check_qubits(instruction.qubits)
        if instruction.clbits:
            self._check_clbits(instruction.clbits)
        self.instructions.append(instruction)
        return self

    def _add_gate(self, name: str, qubits: Sequence[int],
                  params: Sequence[float] = ()) -> "QuantumCircuit":
        expected = gate_lib.GATE_NUM_QUBITS[name]
        qubits = self._check_qubits(qubits)
        if len(qubits) != expected:
            raise ValueError(
                f"gate '{name}' acts on {expected} qubits, got {len(qubits)}"
            )
        instruction = Instruction(
            name=name, qubits=qubits, params=tuple(float(p) for p in params)
        )
        self.instructions.append(instruction)
        return self

    # ------------------------------------------------------------- single qubit
    def id(self, qubit: int) -> "QuantumCircuit":
        """Identity gate (useful as an explicit no-op placeholder)."""
        return self._add_gate("id", [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        """Pauli-X gate."""
        return self._add_gate("x", [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        """Pauli-Y gate."""
        return self._add_gate("y", [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        """Pauli-Z gate."""
        return self._add_gate("z", [qubit])

    def h(self, qubit: int) -> "QuantumCircuit":
        """Hadamard gate."""
        return self._add_gate("h", [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        """S (phase) gate."""
        return self._add_gate("s", [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        """S-dagger gate."""
        return self._add_gate("sdg", [qubit])

    def t(self, qubit: int) -> "QuantumCircuit":
        """T gate."""
        return self._add_gate("t", [qubit])

    def tdg(self, qubit: int) -> "QuantumCircuit":
        """T-dagger gate."""
        return self._add_gate("tdg", [qubit])

    def sx(self, qubit: int) -> "QuantumCircuit":
        """Square-root-of-X gate."""
        return self._add_gate("sx", [qubit])

    def sxdg(self, qubit: int) -> "QuantumCircuit":
        """Inverse square-root-of-X gate."""
        return self._add_gate("sxdg", [qubit])

    def rx(self, theta: float, qubit: int) -> "QuantumCircuit":
        """X-axis rotation by ``theta``."""
        return self._add_gate("rx", [qubit], [theta])

    def ry(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Y-axis rotation by ``theta``."""
        return self._add_gate("ry", [qubit], [theta])

    def rz(self, theta: float, qubit: int) -> "QuantumCircuit":
        """Z-axis rotation by ``theta``."""
        return self._add_gate("rz", [qubit], [theta])

    def p(self, lam: float, qubit: int) -> "QuantumCircuit":
        """Phase gate diag(1, e^{i lambda})."""
        return self._add_gate("p", [qubit], [lam])

    def u(self, theta: float, phi: float, lam: float, qubit: int) -> "QuantumCircuit":
        """Generic single-qubit gate with Euler angles."""
        return self._add_gate("u", [qubit], [theta, phi, lam])

    # --------------------------------------------------------------- multi qubit
    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-X (CNOT) gate."""
        return self._add_gate("cx", [control, target])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Z gate."""
        return self._add_gate("cz", [control, target])

    def cy(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Y gate."""
        return self._add_gate("cy", [control, target])

    def ch(self, control: int, target: int) -> "QuantumCircuit":
        """Controlled-Hadamard gate."""
        return self._add_gate("ch", [control, target])

    def crx(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled X-rotation."""
        return self._add_gate("crx", [control, target], [theta])

    def cry(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled Y-rotation."""
        return self._add_gate("cry", [control, target], [theta])

    def crz(self, theta: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled Z-rotation."""
        return self._add_gate("crz", [control, target], [theta])

    def cp(self, lam: float, control: int, target: int) -> "QuantumCircuit":
        """Controlled phase gate."""
        return self._add_gate("cp", [control, target], [lam])

    def swap(self, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """SWAP gate."""
        return self._add_gate("swap", [qubit_a, qubit_b])

    def rxx(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """Two-qubit XX rotation."""
        return self._add_gate("rxx", [qubit_a, qubit_b], [theta])

    def rzz(self, theta: float, qubit_a: int, qubit_b: int) -> "QuantumCircuit":
        """Two-qubit ZZ rotation."""
        return self._add_gate("rzz", [qubit_a, qubit_b], [theta])

    def ccx(self, control_a: int, control_b: int, target: int) -> "QuantumCircuit":
        """Toffoli gate."""
        return self._add_gate("ccx", [control_a, control_b, target])

    def cswap(self, control: int, target_a: int, target_b: int) -> "QuantumCircuit":
        """Fredkin (controlled-SWAP) gate, the workhorse of the SWAP test."""
        return self._add_gate("cswap", [control, target_a, target_b])

    def unitary(self, matrix: np.ndarray, qubits: Sequence[int]) -> "QuantumCircuit":
        """Apply an explicit unitary matrix to ``qubits``."""
        qubits = self._check_qubits(qubits)
        matrix = np.asarray(matrix, dtype=complex)
        dim = 2 ** len(qubits)
        if matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match {len(qubits)} qubits"
            )
        if not gate_lib.is_unitary(matrix):
            raise ValueError("matrix is not unitary")
        self.instructions.append(
            Instruction(name="unitary", qubits=qubits, matrix=matrix.copy())
        )
        return self

    # --------------------------------------------------------------- non-unitary
    def initialize(self, state: Sequence[complex],
                   qubits: Sequence[int]) -> "QuantumCircuit":
        """Prepare ``qubits`` (assumed to be in |0...0>) in the given statevector."""
        qubits = self._check_qubits(qubits)
        state = np.asarray(state, dtype=complex).ravel()
        dim = 2 ** len(qubits)
        if state.shape != (dim,):
            raise ValueError(
                f"statevector has {state.shape[0]} amplitudes, expected {dim}"
            )
        norm = float(np.linalg.norm(state))
        if norm < 1e-12:
            raise ValueError("cannot initialize to the zero vector")
        if abs(norm - 1.0) > 1e-8:
            raise ValueError("initialize statevector must be normalized")
        self.instructions.append(
            Instruction(name="initialize", qubits=qubits, state=state.copy())
        )
        return self

    def reset(self, qubit: int) -> "QuantumCircuit":
        """Reset a qubit to |0> (measure and conditionally flip)."""
        qubits = self._check_qubits([qubit])
        self.instructions.append(Instruction(name="reset", qubits=qubits))
        return self

    def measure(self, qubit: int, clbit: int) -> "QuantumCircuit":
        """Measure ``qubit`` in the computational basis into ``clbit``."""
        qubits = self._check_qubits([qubit])
        clbits = self._check_clbits([clbit])
        self.instructions.append(
            Instruction(name="measure", qubits=qubits, clbits=clbits)
        )
        return self

    def measure_all(self) -> "QuantumCircuit":
        """Measure every qubit into the classical bit with the same index."""
        if self.num_clbits < self.num_qubits:
            raise ValueError("not enough classical bits to measure every qubit")
        for qubit in range(self.num_qubits):
            self.measure(qubit, qubit)
        return self

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        """Insert a barrier (a no-op marker; simulation skips it)."""
        targets = qubits if qubits else tuple(range(self.num_qubits))
        targets = self._check_qubits(targets)
        self.instructions.append(Instruction(name="barrier", qubits=targets))
        return self

    # ---------------------------------------------------------------- structure
    def compose(self, other: "QuantumCircuit",
                qubits: Optional[Sequence[int]] = None,
                clbits: Optional[Sequence[int]] = None) -> "QuantumCircuit":
        """Append ``other``'s instructions onto this circuit (in place).

        Parameters
        ----------
        other:
            Circuit whose instructions are appended.
        qubits:
            Mapping from ``other``'s qubit indices to this circuit's qubits.  By
            default qubit ``i`` maps to qubit ``i``.
        clbits:
            Mapping for classical bits, analogous to ``qubits``.
        """
        if qubits is None:
            qubit_map = list(range(other.num_qubits))
        else:
            qubit_map = [int(q) for q in qubits]
        if len(qubit_map) != other.num_qubits:
            raise ValueError("qubit mapping length must equal other.num_qubits")
        if clbits is None:
            clbit_map = list(range(other.num_clbits))
        else:
            clbit_map = [int(c) for c in clbits]
        for instruction in other.instructions:
            mapped_qubits = tuple(qubit_map[q] for q in instruction.qubits)
            mapped_clbits = tuple(clbit_map[c] for c in instruction.clbits)
            self.append(
                Instruction(
                    name=instruction.name,
                    qubits=mapped_qubits,
                    params=instruction.params,
                    clbits=mapped_clbits,
                    matrix=instruction.matrix,
                    state=instruction.state,
                )
            )
        return self

    def inverse(self) -> "QuantumCircuit":
        """Return a new circuit implementing the inverse unitary.

        Only unitary circuits can be inverted; barriers are preserved.
        """
        inverted = QuantumCircuit(self.num_qubits, self.num_clbits,
                                  name=f"{self.name}_dg")
        for instruction in reversed(self.instructions):
            if instruction.name == "barrier":
                inverted.instructions.append(instruction)
                continue
            inverted.instructions.append(instruction.inverse())
        return inverted

    def copy(self) -> "QuantumCircuit":
        """Deep copy of the circuit."""
        duplicate = QuantumCircuit(self.num_qubits, self.num_clbits, name=self.name)
        duplicate.instructions = copy.deepcopy(self.instructions)
        return duplicate

    # --------------------------------------------------------------- diagnostics
    @property
    def has_nonunitary_operations(self) -> bool:
        """True when the circuit contains reset, measure, or initialize."""
        return any(
            instr.name in {"reset", "measure", "initialize"}
            for instr in self.instructions
        )

    def count_ops(self) -> Dict[str, int]:
        """Histogram of instruction names."""
        counts: Dict[str, int] = {}
        for instruction in self.instructions:
            counts[instruction.name] = counts.get(instruction.name, 0) + 1
        return counts

    def depth(self) -> int:
        """Circuit depth (barriers excluded, each instruction has unit duration)."""
        frontier = [0] * self.num_qubits
        for instruction in self.instructions:
            if instruction.name == "barrier":
                continue
            level = max(frontier[q] for q in instruction.qubits) + 1
            for qubit in instruction.qubits:
                frontier[qubit] = level
        return max(frontier) if frontier else 0

    def size(self) -> int:
        """Number of non-barrier instructions."""
        return sum(1 for instr in self.instructions if instr.name != "barrier")

    def two_qubit_gate_count(self) -> int:
        """Number of unitary gates acting on two or more qubits."""
        return sum(
            1
            for instr in self.instructions
            if instr.is_unitary and len(instr.qubits) >= 2
        )

    def to_unitary(self) -> np.ndarray:
        """Dense unitary of the whole circuit (unitary instructions only).

        Raises
        ------
        ValueError
            If the circuit contains non-unitary instructions.
        """
        if self.has_nonunitary_operations:
            raise ValueError("circuit with reset/measure/initialize has no unitary")
        dim = 2 ** self.num_qubits
        unitary = np.eye(dim, dtype=complex)
        from repro.quantum.statevector import expand_gate  # local import, no cycle

        for instruction in self.instructions:
            if instruction.name == "barrier":
                continue
            full = expand_gate(
                instruction.matrix_or_standard(), instruction.qubits, self.num_qubits
            )
            unitary = full @ unitary
        return unitary

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterable[Instruction]:
        return iter(self.instructions)

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"num_clbits={self.num_clbits}, size={self.size()})"
        )
