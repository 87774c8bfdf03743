"""Ahead-of-time circuit compilation into fused dense operators.

The simulators in :mod:`repro.quantum.simulator` interpret circuits gate by
gate: every instruction becomes one (or, with noise, two to three) batched
tensor contractions.  For the Quorum workload almost all of that structure is
known before the first sample arrives -- the ansatz is fixed per ensemble
member and the reset+decoder+SWAP-test suffix is identical for every sample --
so this module *lowers* a :class:`~repro.quantum.circuit.QuantumCircuit` (plus
an optional :class:`~repro.quantum.noise.NoiseModel`) into a compiled program
of a few precomposed dense operators that the engines replay with a handful of
batched matmuls.

Two lowerings are provided:

* :meth:`CircuitCompiler.unitary_program` / :meth:`CircuitCompiler.fused_unitary`
  -- pure-state compilation.  Contiguous runs of unitary gates are fused into
  one dense ``2^k x 2^k`` unitary per support block (for the Quorum encoder:
  ONE ``2^n x 2^n`` matrix per member, applied as a single batched matmul).
* :meth:`CircuitCompiler.dual_observable` -- Heisenberg-picture compilation of
  a noisy channel followed by a single-qubit readout.  Every gate is composed
  with its noise channel and every reset becomes the reset channel; the
  ancilla projector ``M`` is pulled back through the channel's adjoint once,
  yielding a dense observable ``W = C^dagger(M)`` with
  ``P(1) = <W, rho> = Tr(W^dagger rho)``.  The folded density-matrix engine
  (:class:`repro.core.execution.DensityMatrixEngine`) compiles one per
  (member, compression level) and contracts it against every sample.

Compiled artifacts live in a thread-safe LRU cache keyed by (program kind,
circuit signature, noise-model fingerprint, backend dtype), so sweeping the
same member across compression levels, ensemble repetitions, or benchmark
rounds never recompiles.  :data:`default_compiler` returns the process-wide
shared instance; `QuorumCircuitFactory` and the execution engines share it
unless given their own.

The per-sample :class:`~repro.quantum.simulator.DensityMatrixSimulator`
remains the reference path (select it with ``compile_circuits=False``); the
parity test suite asserts the folded engine agrees with it to ``<= 1e-12``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.quantum.backend import SimulationBackend, get_simulation_backend
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.noise import NoiseModel
from repro.quantum.transpiler import optimize_instructions

__all__ = [
    "FusedOperator",
    "CompiledProgram",
    "CompilerStats",
    "CircuitCompiler",
    "circuit_signature",
    "noise_model_fingerprint",
    "default_compiler",
]

@dataclass(frozen=True, eq=False)
class FusedOperator:
    """One precomposed dense unitary of a compiled program.

    Compared by identity (``eq=False``): a generated ``__eq__`` over the
    ndarray field would raise on truth-value ambiguity, and programs are
    deduplicated by cache key, never by value.

    Attributes
    ----------
    matrix:
        The dense ``2^k x 2^k`` unitary, read-only, in the compiling backend's
        dtype.
    qubits:
        Ascending global support qubits; the first listed qubit is the
        least-significant index of ``matrix``, matching the backend kernels.
    """

    matrix: np.ndarray
    qubits: Tuple[int, ...]


@dataclass(frozen=True, eq=False)
class CompiledProgram:
    """An ordered sequence of fused operators equivalent to a circuit walk.

    Compared by identity, like :class:`FusedOperator`.
    """

    num_qubits: int
    operators: Tuple[FusedOperator, ...]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass
class CompilerStats:
    """Observable cache behaviour (asserted by the regression tests).

    ``compiles`` counts actual lowerings; ``hits``/``misses`` count cache
    lookups.  A repeated compile of the same (circuit, noise model, dtype)
    must increment ``hits`` and leave ``compiles`` unchanged.  ``fallbacks``
    counts engine calls that could not use compiled programs and ran the
    per-sample reference simulator instead (a noise model that is not
    gate-local).
    """

    compiles: int = 0
    hits: int = 0
    misses: int = 0
    fallbacks: int = 0


def circuit_signature(circuit: QuantumCircuit) -> Tuple:
    """Hashable fingerprint of a circuit's instruction stream.

    Two circuits with equal signatures lower to identical compiled programs:
    the signature covers names, qubits, parameters, classical bits, and the
    raw bytes of explicit ``unitary`` matrices and ``initialize`` payloads.
    """
    items = []
    for instruction in circuit.instructions:
        matrix_key = (instruction.matrix.tobytes()
                      if instruction.matrix is not None else None)
        state_key = (instruction.state.tobytes()
                     if instruction.state is not None else None)
        items.append((instruction.name, instruction.qubits, instruction.params,
                      instruction.clbits, matrix_key, state_key))
    return (circuit.num_qubits, tuple(items))


def noise_model_fingerprint(noise_model: Optional[NoiseModel]) -> Optional[Tuple]:
    """Content-based fingerprint of a noise model (``None`` stays ``None``).

    Delegates to :meth:`repro.quantum.noise.NoiseModel.fingerprint`, so two
    independently built but identical models (e.g. one ``FakeBrisbane`` model
    per ensemble member) share compiled-program cache entries.
    """
    if noise_model is None:
        return None
    return noise_model.fingerprint()


def _reset_superoperator(dtype: np.dtype) -> np.ndarray:
    """Superoperator of the single-qubit reset channel (|0><0|, |0><1|)."""
    zero_zero = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=dtype)
    zero_one = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=dtype)
    return (np.kron(zero_zero, zero_zero.conj())
            + np.kron(zero_one, zero_one.conj()))


@dataclass
class _ChannelOp:
    """One channel step: a unitary or a superoperator on ``qubits``."""

    matrix: np.ndarray
    qubits: Tuple[int, ...]
    is_superoperator: bool


class CircuitCompiler:
    """Lower circuits to compiled programs, memoized in a bounded LRU cache.

    Parameters
    ----------
    max_entries:
        LRU capacity; one entry is one compiled program / fused matrix.
    max_bytes:
        LRU capacity in payload bytes (dense observables grow quartically with
        the register, so a count bound alone could pin gigabytes; the byte
        bound evicts least-recently-used programs first, like the count
        bound).
    optimize:
        Run the transpiler's peephole passes (trivial-gate pruning, rotation
        merging, self-inverse cancellation) over unitary runs before fusing.
        Off by default: optimization changes the floating-point operator (only
        up to global phase / 1e-12), while the default compilation is chosen
        to be *bitwise* reproducible against the interpreted reference for
        pure-state paths.  Never applied to noisy compilation, where dropping
        or merging a gate would also drop its noise channel.
    """

    def __init__(self, max_entries: int = 256,
                 max_bytes: int = 256 * 1024 * 1024,
                 optimize: bool = False) -> None:
        if max_entries < 1:
            raise ValueError("the compiled-program cache needs at least one entry")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.optimize = bool(optimize)
        self.stats = CompilerStats()
        self._cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self._cached_bytes = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ cache
    @staticmethod
    def _payload_bytes(value: object) -> int:
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, CompiledProgram):
            return sum(op.matrix.nbytes for op in value.operators)
        return 0

    def _get_or_compile(self, key: Tuple, builder: Callable[[], object]) -> object:
        with self._lock:
            if key in self._cache:
                self._cache.move_to_end(key)
                self.stats.hits += 1
                return self._cache[key]
            self.stats.misses += 1
        value = builder()  # compile outside the lock; a duplicate race is benign
        with self._lock:
            self.stats.compiles += 1
            if key not in self._cache:
                self._cached_bytes += self._payload_bytes(value)
            self._cache[key] = value
            self._cache.move_to_end(key)
            while self._cache and (len(self._cache) > self.max_entries
                                   or self._cached_bytes > self.max_bytes):
                _, evicted = self._cache.popitem(last=False)
                self._cached_bytes -= self._payload_bytes(evicted)
        return value

    def record_fallback(self) -> None:
        """Count one engine call that bypassed compilation (``stats.fallbacks``)."""
        with self._lock:
            self.stats.fallbacks += 1

    def cache_size(self) -> int:
        """Number of compiled artifacts currently cached."""
        with self._lock:
            return len(self._cache)

    def cache_bytes(self) -> int:
        """Total payload bytes of the cached artifacts."""
        with self._lock:
            return self._cached_bytes

    def clear(self) -> None:
        """Drop every cached program (stats are kept)."""
        with self._lock:
            self._cache.clear()
            self._cached_bytes = 0

    # The lock and cache are per-process state: a compiler travelling to a
    # worker process (e.g. inside a pickled factory) re-starts empty there.
    def __getstate__(self) -> dict:
        return {"max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "optimize": self.optimize}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    # ------------------------------------------------------------ public API
    def unitary_program(self, circuit: QuantumCircuit,
                        backend: Union[str, SimulationBackend, None] = None
                        ) -> CompiledProgram:
        """Compile a purely unitary circuit into one fused dense unitary.

        Barriers are dropped; ``reset``/``measure``/``initialize`` are
        rejected (pure-state compilation has no channel semantics for them).
        The whole gate stream fuses into a single block on the union of the
        gate supports -- every register this project compiles is small enough
        that the dense block unitary stays tiny (``<= 2^9``), so no
        support-size splitting is needed on the pure-state side.
        """
        backend = get_simulation_backend(backend)
        key = ("unitary_program", str(backend.dtype), self.optimize,
               circuit_signature(circuit))
        return self._get_or_compile(
            key, lambda: self._build_unitary_program(circuit, backend))

    def fused_unitary(self, circuit: QuantumCircuit,
                      backend: Union[str, SimulationBackend, None] = None
                      ) -> np.ndarray:
        """The whole circuit as ONE dense full-register unitary (cached).

        The fused blocks are pushed through the backend's batched gate kernel
        (:meth:`~repro.quantum.backend.SimulationBackend.unitary_from_instructions`),
        so for an unoptimized circuit the result is bitwise the gate-by-gate
        unitary.  The SWAP-test engines do not use it for the member ansatz:
        their encoders come from
        :func:`repro.algorithms.ansatz.encoder_unitaries`.
        """
        backend = get_simulation_backend(backend)
        key = ("fused_unitary", str(backend.dtype), self.optimize,
               circuit_signature(circuit))

        def build() -> np.ndarray:
            program = self._build_unitary_program(circuit, backend)
            if (len(program.operators) == 1
                    and program.operators[0].qubits
                    == tuple(range(circuit.num_qubits))):
                return program.operators[0].matrix
            matrix = backend.unitary_from_instructions(
                [(op.matrix, op.qubits) for op in program.operators],
                circuit.num_qubits,
            )
            matrix.setflags(write=False)
            return matrix

        return self._get_or_compile(key, build)

    def dual_observable(self, circuit: QuantumCircuit,
                        noise_model: Optional[NoiseModel],
                        qubit: int,
                        backend: Union[str, SimulationBackend, None] = None
                        ) -> np.ndarray:
        """Heisenberg-picture observable of (channel, read ``qubit`` = 1).

        Returns the dense matrix ``W = C^dagger(|1><1|_qubit)`` such that the
        probability of measuring ``qubit`` as 1 *after* running ``circuit``
        (with ``noise_model``) from state ``rho`` is ``Re Tr(W^dagger rho)``.
        The adjoint channel is applied to the projector step by step through
        the per-instruction channel adjoints (each a one- to three-qubit
        kernel), so no forward superoperator of the whole circuit is ever
        built: the observable itself is only ``4^n`` complex entries.
        """
        backend = get_simulation_backend(backend)
        if not 0 <= qubit < circuit.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        key = ("dual_observable", str(backend.dtype), int(qubit), circuit_signature(circuit),
               noise_model_fingerprint(noise_model))

        def build() -> np.ndarray:
            steps = self._channel_steps(circuit, noise_model, backend)
            dim = 2 ** circuit.num_qubits
            observable = np.zeros((dim, dim), dtype=backend.dtype)
            ones = np.flatnonzero((np.arange(dim) >> qubit) & 1)
            observable[ones, ones] = 1.0
            batch = observable[None, :, :]
            # <M, C(rho)> = <C^dagger(M), rho>: push the projector backwards
            # through each step's adjoint (S^dagger in the Hilbert-Schmidt
            # inner product; U rho U^dagger pulls back to U^dagger M U).
            for op in reversed(steps):
                adjoint = op.matrix.conj().T
                if op.is_superoperator:
                    batch = backend.apply_superoperator_density_batch(
                        batch, adjoint, op.qubits)
                else:
                    batch = backend.apply_gate_density_batch(batch, adjoint,
                                                             op.qubits)
            result = np.ascontiguousarray(batch[0])
            result.setflags(write=False)
            return result

        return self._get_or_compile(key, build)

    # -------------------------------------------------------------- lowering
    def _build_unitary_program(self, circuit: QuantumCircuit,
                               backend: SimulationBackend) -> CompiledProgram:
        instructions: List[Instruction] = []
        for instruction in circuit.instructions:
            if instruction.name == "barrier":
                continue
            if not instruction.is_unitary:
                raise ValueError(
                    "unitary programs cannot contain "
                    f"'{instruction.name}'; use dual_observable for circuits "
                    "with reset, or keep initialize in the per-sample prefix"
                )
            instructions.append(instruction)
        if self.optimize:
            instructions = optimize_instructions(instructions)
        operators: List[FusedOperator] = []
        if instructions:
            support = sorted({qubit for instruction in instructions
                              for qubit in instruction.qubits})
            operators.append(self._fused_unitary_block(instructions, support,
                                                       backend))
        return CompiledProgram(num_qubits=circuit.num_qubits,
                               operators=tuple(operators))

    def _fused_unitary_block(self, run: Sequence[Instruction],
                             support: Sequence[int],
                             backend: SimulationBackend) -> FusedOperator:
        """Fuse one gate run into a dense unitary on its (ascending) support."""
        rank = {qubit: position for position, qubit in enumerate(support)}
        remapped = [
            (instruction.matrix_or_standard(),
             tuple(rank[q] for q in instruction.qubits))
            for instruction in run
        ]
        matrix = backend.unitary_from_instructions(remapped, len(support))
        matrix.setflags(write=False)
        return FusedOperator(matrix=matrix,
                             qubits=tuple(int(q) for q in support))

    def _channel_steps(self, circuit: QuantumCircuit,
                       noise_model: Optional[NoiseModel],
                       backend: SimulationBackend) -> List[_ChannelOp]:
        """Per-instruction channel steps (gate composed with its noise), the
        stream :meth:`dual_observable` pulls a projector back through."""
        steps: List[_ChannelOp] = []
        for instruction in circuit.instructions:
            name = instruction.name
            if name in {"barrier", "measure"}:
                continue
            if name == "initialize":
                raise ValueError(
                    "dual observables cannot contain initialize; compile only "
                    "the sample-independent part of the circuit"
                )
            if name == "reset":
                steps.append(_ChannelOp(_reset_superoperator(backend.dtype),
                                        instruction.qubits, True))
                continue
            gate = np.asarray(instruction.matrix_or_standard(),
                              dtype=backend.dtype)
            error = (noise_model.error_for_instruction(instruction)
                     if noise_model is not None else None)
            if error is None:
                steps.append(_ChannelOp(gate, instruction.qubits, False))
            elif error.num_qubits != len(instruction.qubits):
                # Channel acts on a sub-block of the gate's qubits: keep the
                # two steps separate.
                steps.append(_ChannelOp(gate, instruction.qubits, False))
                steps.append(_ChannelOp(
                    np.asarray(error.superoperator, dtype=backend.dtype),
                    instruction.qubits[: error.num_qubits], True))
            else:
                superop = np.asarray(error.superoperator, dtype=backend.dtype) \
                    @ np.kron(gate, gate.conj())
                steps.append(_ChannelOp(superop, instruction.qubits, True))
        return steps


#: Process-wide compiler shared by the engines and
#: ``QuorumCircuitFactory`` (each can be handed a private instance instead).
_DEFAULT_COMPILER = CircuitCompiler()


def default_compiler() -> CircuitCompiler:
    """The process-wide shared :class:`CircuitCompiler` instance."""
    return _DEFAULT_COMPILER
