"""Assembly of Quorum's full autoencoder + SWAP-test circuit (Figs. 2 and 6).

Each circuit has ``2n + 1`` qubits:

* register A (qubits ``0 .. n-1``): the sample amplitude-encoded and pushed through
  the random encoder, the partial reset (information bottleneck), and the decoder;
* register B (qubits ``n .. 2n-1``): the untouched reference encoding of the same
  sample;
* the ancilla (qubit ``2n``): SWAP-test readout, measured into classical bit 0.

Besides circuit construction, :func:`analytic_swap_test_p1` computes the exact
ancilla statistics from the reduced density matrix of register A -- the partial
reset makes A mixed, and for a mixed A the SWAP test measures
``P(1) = (1 - Tr(rho_A |psi><psi|)) / 2``.  The fast path is cross-validated against
the full circuit simulators in the test suite and used by the detector for large
noiseless sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.algorithms.swap_test import append_swap_test
from repro.encoding.amplitude import state_preparation_circuit
from repro.quantum.backend import SimulationBackend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.compiler import CircuitCompiler, default_compiler
from repro.quantum.density_matrix import DensityMatrix
from repro.quantum.noise import NoiseModel
from repro.quantum.statevector import Statevector

__all__ = [
    "build_autoencoder_circuit",
    "build_autoencoder_prefix",
    "build_autoencoder_suffix",
    "analytic_swap_test_p1",
    "QuorumCircuitFactory",
]


def build_autoencoder_prefix(amplitudes: Sequence[float],
                             ansatz: RandomAutoencoderAnsatz,
                             gate_level_encoding: bool = False) -> QuantumCircuit:
    """The level-independent head of the Quorum circuit for one sample.

    Covers the amplitude encoding of both registers and the encoder ansatz on
    register A -- everything *before* the compression-level-dependent reset
    block.  Only the encoding depends on the sample: the folded noisy engine
    (:class:`repro.core.execution.DensityMatrixEngine`) prepares it per
    sample and compiles the encoder plus :func:`build_autoencoder_suffix` into
    one observable per (member, level).

    Parameters
    ----------
    amplitudes:
        Length ``2**n`` non-negative amplitude vector (from the amplitude encoder).
    ansatz:
        The random encoder/decoder pair acting on register A.
    gate_level_encoding:
        Synthesize RY/CX state preparation instead of ``initialize`` instructions
        (needed for noisy simulation, where state preparation should also be noisy).
    """
    amplitudes = np.asarray(amplitudes, dtype=float).ravel()
    num_qubits = ansatz.num_qubits
    if amplitudes.shape[0] != 2 ** num_qubits:
        raise ValueError(
            f"amplitude vector of length {amplitudes.shape[0]} does not match the "
            f"{num_qubits}-qubit ansatz"
        )
    total_qubits = 2 * num_qubits + 1
    circuit = QuantumCircuit(total_qubits, 1, name="quorum_autoencoder_prefix")
    register_a = list(range(num_qubits))
    register_b = list(range(num_qubits, 2 * num_qubits))

    if gate_level_encoding:
        preparation = state_preparation_circuit(amplitudes, num_qubits)
        circuit.compose(preparation, qubits=register_a,
                        clbits=[0] * preparation.num_clbits)
        circuit.compose(preparation, qubits=register_b,
                        clbits=[0] * preparation.num_clbits)
    else:
        circuit.initialize(amplitudes, register_a)
        circuit.initialize(amplitudes, register_b)
    circuit.barrier()

    encoder = ansatz.encoder_circuit(register_a, num_circuit_qubits=total_qubits)
    circuit.compose(encoder, clbits=[0] * encoder.num_clbits)
    return circuit


def build_autoencoder_suffix(ansatz: RandomAutoencoderAnsatz,
                             compression_level: int,
                             measure: bool = True) -> QuantumCircuit:
    """The per-level tail of the Quorum circuit: reset block onward.

    Covers the information bottleneck (``compression_level`` resets), the
    decoder, and the SWAP test with optional ancilla readout.  The suffix
    carries *no sample data* -- it is identical for every sample of a batch --
    so its noisy channel is compiled once per (member, level).  Composing
    :func:`build_autoencoder_prefix` + this suffix reproduces
    :func:`build_autoencoder_circuit` instruction for instruction.
    """
    num_qubits = ansatz.num_qubits
    if not 0 <= compression_level <= num_qubits:
        raise ValueError(
            f"compression level must be in [0, {num_qubits}], got {compression_level}"
        )
    total_qubits = 2 * num_qubits + 1
    circuit = QuantumCircuit(total_qubits, 1,
                             name=f"quorum_autoencoder_suffix_l{compression_level}")
    register_a = list(range(num_qubits))
    register_b = list(range(num_qubits, 2 * num_qubits))
    ancilla = 2 * num_qubits

    for qubit in range(compression_level):
        circuit.reset(qubit)
    decoder = ansatz.decoder_circuit(register_a, num_circuit_qubits=total_qubits)
    circuit.compose(decoder, clbits=[0] * decoder.num_clbits)
    circuit.barrier()

    append_swap_test(circuit, ancilla, register_a, register_b, clbit=0,
                     measure=measure)
    return circuit


def build_autoencoder_circuit(amplitudes: Sequence[float],
                              ansatz: RandomAutoencoderAnsatz,
                              compression_level: int,
                              gate_level_encoding: bool = False,
                              measure: bool = True) -> QuantumCircuit:
    """Build the full ``2n + 1``-qubit Quorum circuit for one sample.

    The circuit is assembled as :func:`build_autoencoder_prefix` (encoding +
    encoder ansatz, level-independent) followed by
    :func:`build_autoencoder_suffix` (reset block + decoder + SWAP test, shared
    by every sample), so the split builders and this one-call builder cannot
    drift apart.

    Parameters
    ----------
    amplitudes:
        Length ``2**n`` non-negative amplitude vector (from the amplitude encoder).
    ansatz:
        The random encoder/decoder pair acting on register A.
    compression_level:
        Number of register-A qubits reset between encoder and decoder
        (``0 <= compression_level <= n``; 0 disables the bottleneck).
    gate_level_encoding:
        Synthesize RY/CX state preparation instead of ``initialize`` instructions
        (needed for noisy simulation, where state preparation should also be noisy).
    measure:
        Measure the ancilla into classical bit 0.
    """
    if not 0 <= compression_level <= ansatz.num_qubits:
        raise ValueError(
            f"compression level must be in [0, {ansatz.num_qubits}], got "
            f"{compression_level}"
        )
    circuit = build_autoencoder_prefix(amplitudes, ansatz,
                                       gate_level_encoding=gate_level_encoding)
    circuit.name = "quorum_autoencoder"
    suffix = build_autoencoder_suffix(ansatz, compression_level, measure=measure)
    circuit.compose(suffix)
    return circuit


def analytic_swap_test_p1(amplitudes: Sequence[float],
                          ansatz: RandomAutoencoderAnsatz,
                          compression_level: int) -> float:
    """Exact ancilla P(1) of the circuit built by :func:`build_autoencoder_circuit`.

    Works directly on register A's ``n``-qubit density matrix: encode, apply the
    encoder unitary, reset the bottleneck qubits, apply the decoder, and take the
    overlap with the untouched encoding of the same sample.
    """
    amplitudes = np.asarray(amplitudes, dtype=float).ravel()
    num_qubits = ansatz.num_qubits
    if amplitudes.shape[0] != 2 ** num_qubits:
        raise ValueError("amplitude vector does not match the ansatz size")
    if not 0 <= compression_level <= num_qubits:
        raise ValueError("compression level out of range")
    reference = Statevector(amplitudes.astype(complex))
    encoder_unitary = ansatz.encoder_unitary()
    rho = DensityMatrix.from_statevector(reference)
    rho = rho.evolve_gate(encoder_unitary, list(range(num_qubits)))
    for qubit in range(compression_level):
        rho = rho.reset_qubit(qubit)
    rho = rho.evolve_gate(encoder_unitary.conj().T, list(range(num_qubits)))
    overlap = rho.overlap(DensityMatrix.from_statevector(reference))
    p1 = (1.0 - overlap) / 2.0
    return float(min(max(p1, 0.0), 0.5))


@dataclass(frozen=True)
class QuorumCircuitFactory:
    """Convenience wrapper binding an ansatz to the circuit/fast-path builders.

    The factory also carries the :class:`~repro.quantum.compiler
    .CircuitCompiler` whose LRU cache holds this ansatz's compiled artifacts
    (fused encoder unitary and per-level Heisenberg-picture observables).
    By default that is the process-wide shared compiler, so engines,
    simulators, and factories all reuse one cache.
    """

    ansatz: RandomAutoencoderAnsatz
    compiler: CircuitCompiler = field(default_factory=default_compiler)

    @property
    def num_qubits(self) -> int:
        """Register size n (the full circuit uses ``2n + 1`` qubits)."""
        return self.ansatz.num_qubits

    @property
    def total_qubits(self) -> int:
        """Total circuit width including the reference register and the ancilla."""
        return 2 * self.ansatz.num_qubits + 1

    def circuit(self, amplitudes: Sequence[float], compression_level: int,
                gate_level_encoding: bool = False,
                measure: bool = True) -> QuantumCircuit:
        """Full circuit for one sample at one compression level."""
        return build_autoencoder_circuit(amplitudes, self.ansatz, compression_level,
                                         gate_level_encoding=gate_level_encoding,
                                         measure=measure)

    def prefix(self, amplitudes: Sequence[float],
               gate_level_encoding: bool = False) -> QuantumCircuit:
        """Level-independent head (encoding + encoder) shared by a level sweep."""
        return build_autoencoder_prefix(amplitudes, self.ansatz,
                                        gate_level_encoding=gate_level_encoding)

    def suffix(self, compression_level: int,
               measure: bool = True) -> QuantumCircuit:
        """Per-level, sample-independent tail (reset + decoder + SWAP test)."""
        return build_autoencoder_suffix(self.ansatz, compression_level,
                                        measure=measure)

    def analytic_p1(self, amplitudes: Sequence[float],
                    compression_level: int) -> float:
        """Exact SWAP-test P(1) via the reduced-density-matrix fast path."""
        return analytic_swap_test_p1(amplitudes, self.ansatz, compression_level)

    # ------------------------------------------------------ compiled artifacts
    def encoder_unitary(self,
                        backend: Union[str, SimulationBackend, None] = None
                        ) -> np.ndarray:
        """The encoder as ONE fused ``2^n x 2^n`` unitary (compiler-cached)."""
        return self.compiler.fused_unitary(
            self.ansatz.encoder_circuit(list(range(self.num_qubits))), backend
        )

    def suffix_observable(self, compression_level: int,
                          noise_model: Optional[NoiseModel] = None,
                          backend: Union[str, SimulationBackend, None] = None
                          ) -> np.ndarray:
        """Heisenberg-picture observable of the suffix + ancilla readout.

        ``W = C^dagger(|1><1|_ancilla)`` for the level's suffix channel ``C``:
        the SWAP-test P(1) of a post-prefix state ``rho`` is
        ``Re Tr(W^dagger rho)``.
        """
        return self.compiler.dual_observable(
            self.suffix(compression_level, measure=False), noise_model,
            2 * self.num_qubits, backend,
        )
