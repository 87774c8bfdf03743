"""Ahead-of-time folding of noisy circuits into cached dense observables.

The simulators in :mod:`repro.quantum.simulator` interpret circuits gate by
gate: every instruction becomes one (or, with noise, two to three) batched
tensor contractions.  For the Quorum workload everything after state
preparation -- the member's encoder, the resets, the decoder and the SWAP test
-- is known before the first sample arrives, so this module lowers that
sample-independent part of a :class:`~repro.quantum.circuit.QuantumCircuit`
(plus an optional :class:`~repro.quantum.noise.NoiseModel`) once.

:meth:`CircuitCompiler.dual_observable` is a Heisenberg-picture compilation of
a noisy channel followed by a single-qubit readout.  Every gate is composed
with its noise channel and every reset becomes the reset channel; the ancilla
projector ``M`` is pulled back through the channel's adjoint once, yielding a
dense observable ``W = C^dagger(M)`` with ``P(1) = <W, rho> = Tr(W^dagger rho)``.
The folded density-matrix engine
(:class:`repro.core.execution.DensityMatrixEngine`) compiles one per (member,
compression level) and contracts it against every sample.

Observables live in a thread-safe LRU cache keyed by (circuit signature,
noise-model fingerprint, backend dtype, readout qubit), so sweeping the same
member across ensemble repetitions or benchmark rounds never recompiles.
:data:`default_compiler` returns the process-wide shared instance;
`QuorumCircuitFactory` and the execution engines share it unless given their
own.

The per-sample :class:`~repro.quantum.simulator.DensityMatrixSimulator`
remains the reference path (select it with ``compile_circuits=False``); the
parity test suite asserts the folded engine agrees with it to ``<= 1e-12``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from repro.quantum.backend import SimulationBackend, get_simulation_backend
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise import NoiseModel

__all__ = [
    "CompilerStats",
    "CircuitCompiler",
    "circuit_signature",
    "noise_model_fingerprint",
    "default_compiler",
]


@dataclass
class CompilerStats:
    """Observable cache behaviour (asserted by the regression tests).

    ``compiles`` counts actual lowerings; ``hits``/``misses`` count cache
    lookups.  A repeated compile of the same (circuit, noise model, dtype)
    must increment ``hits`` and leave ``compiles`` unchanged.  ``fallbacks``
    counts engine calls that could not use compiled observables and ran the
    per-sample reference simulator instead (a noise model that is not
    gate-local).
    """

    compiles: int = 0
    hits: int = 0
    misses: int = 0
    fallbacks: int = 0


def circuit_signature(circuit: QuantumCircuit) -> Tuple:
    """Hashable fingerprint of a circuit's instruction stream.

    Two circuits with equal signatures lower to identical observables: the
    signature covers names, qubits, parameters, classical bits, and the
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
    per ensemble member) share compiled-observable cache entries.
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
    """Compile dual observables, memoized in a bounded LRU cache.

    Parameters
    ----------
    max_entries:
        LRU capacity; one entry is one compiled observable.
    max_bytes:
        LRU capacity in payload bytes (dense observables grow quartically with
        the register, so a count bound alone could pin gigabytes; the byte
        bound evicts least-recently-used observables first, like the count
        bound).
    """

    def __init__(self, max_entries: int = 256,
                 max_bytes: int = 256 * 1024 * 1024) -> None:
        if max_entries < 1:
            raise ValueError("the compiler cache needs at least one entry")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self.stats = CompilerStats()
        self._cache: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        self._cached_bytes = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ cache
    def _get_or_compile(self, key: Tuple,
                        builder: Callable[[], np.ndarray]) -> np.ndarray:
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
                self._cached_bytes += value.nbytes
            self._cache[key] = value
            self._cache.move_to_end(key)
            while self._cache and (len(self._cache) > self.max_entries
                                   or self._cached_bytes > self.max_bytes):
                _, evicted = self._cache.popitem(last=False)
                self._cached_bytes -= evicted.nbytes
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
        """Drop every cached observable (stats are kept)."""
        with self._lock:
            self._cache.clear()
            self._cached_bytes = 0

    # The lock and cache are per-process state: a compiler travelling to a
    # worker process (e.g. inside a pickled factory) re-starts empty there.
    def __getstate__(self) -> dict:
        return {"max_entries": self.max_entries,
                "max_bytes": self.max_bytes}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    # ------------------------------------------------------------ public API
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
