"""SWAP-test execution engines used by the detector.

Each engine answers the same question -- "what is the probability of reading 1 on
the SWAP-test ancilla for this encoded sample, this random ansatz, and this
compression level?" -- for one of the two physics the detector simulates:

* :class:`AnalyticEngine` evaluates the reduced-density-matrix expression exactly
  (vectorized over a whole stack of members and samples, see
  :meth:`SwapTestEngine.exact_levels_stack`) and optionally adds binomial shot
  noise.  This is the noiseless computation.
* :class:`DensityMatrixEngine` adds hardware noise and gate-level state
  preparation.  Runs with either fold the full ``2n+1``-qubit circuit: every
  sample's ``n``-qubit preparation is evolved at once, and everything after
  it (encoder, resets, decoder, SWAP test) is one cached observable per
  (member, level), contracted against all samples together.  Noiseless
  ``initialize`` runs are the analytic computation and run the same
  :meth:`SwapTestEngine.exact_levels_stack` kernel.

The per-sample :class:`~repro.quantum.simulator.DensityMatrixSimulator` is the
reference oracle both are tested against.

Batched execution
-----------------
Every engine accepts ``simulation_backend=`` (a name from
:func:`repro.quantum.backend.available_simulation_backends` or a
:class:`~repro.quantum.backend.SimulationBackend` instance; default
``"numpy"``) and routes its linear algebra through that backend's batched
primitives: amplitudes enter as ``(samples, 2**n)`` float arrays, the leading
batch axis is preserved end to end, and the ansatz unitary ``E`` is built once
per ensemble member (cached on the ansatz) rather than once per sample.

``p1_levels_batch`` fuses a member's whole compression sweep into one call,
and shot noise is one binomial draw over the exact ``(levels, samples)``
array, consuming the RNG in exactly the order a per-level loop would.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Union

import numpy as np

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.algorithms.autoencoder import (
    build_autoencoder_circuit,
    build_autoencoder_suffix,
)
from repro.encoding.amplitude import ROTATION_TOLERANCE, preparation_schedule
from repro.quantum.backend import SimulationBackend, get_simulation_backend
from repro.quantum.backends import FakeBrisbane
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.compiler import CircuitCompiler, default_compiler
from repro.quantum.gates import GATE_MATRICES
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import DensityMatrixSimulator

__all__ = [
    "SwapTestEngine",
    "AnalyticEngine",
    "DensityMatrixEngine",
    "apply_shot_noise",
    "make_engine",
]


def apply_shot_noise(exact_p1: np.ndarray, shots: Optional[int],
                     rng: np.random.Generator) -> np.ndarray:
    """Replace exact probabilities with binomial shot estimates.

    This is the single source of truth for how every engine converts exact
    probabilities into shot estimates: one elementwise binomial draw over the
    clipped array, consuming ``rng`` in C order.  The online scorer
    (:mod:`repro.serving.scorer`) calls it directly with a restored member RNG
    so that serving-time shot noise is bit-identical to fit-time shot noise.
    """
    if shots is None:
        return exact_p1
    clipped = np.clip(exact_p1, 0.0, 1.0)
    return rng.binomial(shots, clipped) / float(shots)


def _validated_levels(compression_levels: Sequence[int],
                      num_qubits: int) -> list:
    """Validate a compression sweep for ``p1_levels_batch`` implementations."""
    levels = [int(level) for level in compression_levels]
    if not levels:
        raise ValueError("at least one compression level is required")
    for level in levels:
        if not 0 <= level <= num_qubits:
            raise ValueError("compression level out of range")
    return levels


def _validated_rows(amplitudes: np.ndarray, num_qubits: int) -> np.ndarray:
    """Check that the last axis holds normalized ``2**num_qubits`` amplitudes."""
    if amplitudes.shape[-1] != 2 ** num_qubits:
        raise ValueError("amplitude width does not match the ansatz register")
    norms = np.sqrt(np.einsum("...i,...i->...", amplitudes, amplitudes))
    if np.any(np.abs(norms - 1.0) > 1e-6):
        # The circuit-level path would reject this in `initialize`; fail the
        # batched paths just as loudly instead of returning garbage overlaps.
        raise ValueError("amplitude rows must be normalized statevectors")
    return amplitudes


class SwapTestEngine(ABC):
    """Interface shared by the two execution strategies.

    Every engine computes exact probabilities and then, with ``shots``, one
    binomial shot-noise draw over them.  Exact probabilities come from the
    analytic kernel :meth:`exact_levels_stack` wherever :attr:`analytic` is
    set; the density-matrix engine's noisy and gate-level runs instead fold
    the circuit into observables cached in a
    :class:`~repro.quantum.compiler.CircuitCompiler` (shared LRU cache keyed
    by circuit signature, noise fingerprint, and backend dtype).
    ``compile_circuits=False`` runs those folded sweeps on the per-sample
    reference simulator, kept as the oracle for the parity test suite.  The
    member encoder ``E`` never goes through the compiler: every engine takes
    it from
    :meth:`~repro.algorithms.ansatz.RandomAutoencoderAnsatz.encoder_unitary`.
    """

    #: Whether :meth:`exact_levels_stack` computes this engine's exact P(1),
    #: so a member chunk can run as one stacked call.
    analytic = True

    def __init__(self, shots: Optional[int] = 4096,
                 rng: Optional[np.random.Generator] = None,
                 simulation_backend: Union[str, SimulationBackend, None] = None,
                 compiler: Optional[CircuitCompiler] = None,
                 compile_circuits: bool = True
                 ) -> None:
        if shots is not None and shots < 1:
            raise ValueError("shots must be positive or None for exact probabilities")
        self.shots = shots
        self._rng = rng
        self.backend = get_simulation_backend(simulation_backend)
        self.compiler = compiler if compiler is not None else default_compiler()
        self.compile_circuits = bool(compile_circuits)

    @property
    def rng(self) -> np.random.Generator:
        """The shot-noise generator; a fresh one is seeded on first use.

        Exact engines (``shots=None``) never draw, so they never pay for
        seeding a generator from OS entropy.
        """
        if self._rng is None:
            self._rng = np.random.default_rng()
        return self._rng

    @abstractmethod
    def p1_levels_batch(self, amplitudes: np.ndarray,
                        ansatz: RandomAutoencoderAnsatz,
                        compression_levels: Sequence[int]) -> np.ndarray:
        """SWAP-test P(1) for every (level, sample) pair; shape ``(levels, samples)``.

        This is the fused entry point: one call per member covers the
        member's whole compression sweep, and shot noise is one binomial draw
        over the exact ``(levels, samples)`` array.
        """

    def p1_batch(self, amplitudes: np.ndarray, ansatz: RandomAutoencoderAnsatz,
                 compression_level: int) -> np.ndarray:
        """SWAP-test P(1) for every row of ``amplitudes`` (shape: samples x 2^n)."""
        return self.p1_levels_batch(amplitudes, ansatz, (compression_level,))[0]

    def p1_single(self, amplitudes: Sequence[float],
                  ansatz: RandomAutoencoderAnsatz,
                  compression_level: int) -> float:
        """Convenience wrapper for a single sample."""
        batch = np.asarray(amplitudes, dtype=float).reshape(1, -1)
        return float(self.p1_batch(batch, ansatz, compression_level)[0])

    def exact_levels_stack(self, amplitudes: np.ndarray, encoders: np.ndarray,
                           compression_levels: Sequence[int]) -> np.ndarray:
        """Exact P(1) of a member stack; shape ``(members, levels, samples)``.

        ``amplitudes`` is ``(members, samples, 2^n)`` and ``encoders`` the
        matching ``(members, 2^n, 2^n)`` stack.  ``|phi> = E |psi>`` is one
        batched matmul for the whole stack, shared by every compression
        level.  Each member's rows go through the same per-row arithmetic
        whatever else is in the stack, so a member's result does not depend
        on the stack it runs in.
        """
        amplitudes = np.asarray(amplitudes, dtype=float)
        if amplitudes.ndim != 3:
            raise ValueError(
                "amplitudes must be a (members, samples, 2**n) stack")
        members, samples, dim = amplitudes.shape
        if np.shape(encoders) != (members, dim, dim):
            raise ValueError("amplitude width does not match the ansatz register")
        num_qubits = dim.bit_length() - 1
        _validated_rows(amplitudes, num_qubits)
        levels = _validated_levels(compression_levels, num_qubits)
        phi = self.backend.apply_unitary_stack(amplitudes, encoders)
        overlap = self.backend.compression_overlap_levels(
            phi.reshape(members * samples, dim), levels)
        exact = np.clip((1.0 - overlap) / 2.0, 0.0, 1.0)
        return np.ascontiguousarray(
            exact.reshape(len(levels), members, samples).transpose(1, 0, 2))

    def _validated_amplitudes(self, amplitudes: np.ndarray,
                              ansatz: RandomAutoencoderAnsatz) -> np.ndarray:
        """Level-independent amplitude validation, shared by every entry point.

        Level sweeps validate amplitudes exactly once (and validate *every*
        level of the sweep via :func:`_validated_levels`), rather than checking
        the batch against the first level only.
        """
        amplitudes = np.asarray(amplitudes, dtype=float)
        if amplitudes.ndim != 2:
            raise ValueError("amplitudes must be a 2-D batch (samples, 2**n)")
        return _validated_rows(amplitudes, ansatz.num_qubits)

    def _apply_shot_noise(self, exact_p1: np.ndarray) -> np.ndarray:
        """Replace exact probabilities with binomial shot estimates."""
        if self.shots is None:
            return exact_p1
        return apply_shot_noise(exact_p1, self.shots, self.rng)


class AnalyticEngine(SwapTestEngine):
    """Exact reduced-density-matrix evaluation over members and samples.

    For register A the circuit applies ``E``, resets the first ``k`` qubits, and
    applies ``E^dagger``; the SWAP test against the untouched encoding ``|psi>``
    then reads 1 with probability ``(1 - <psi| rho_A |psi>) / 2``.  Writing
    ``|phi> = E |psi>`` and splitting the basis index into (reset bits ``s``, kept
    bits ``r``), the overlap reduces to ``sum_s |<phi[:, 0], phi[:, s]>|^2`` --
    a handful of dense inner products per sample.

    :meth:`exact_levels_stack` evaluates a whole stack of members at once; the
    per-member :meth:`p1_levels_batch` is its one-member case plus shot noise.
    The engine never touches the circuit compiler: encoders come from
    :func:`~repro.algorithms.ansatz.encoder_unitaries`.
    """

    def p1_levels_batch(self, amplitudes: np.ndarray,
                        ansatz: RandomAutoencoderAnsatz,
                        compression_levels: Sequence[int]) -> np.ndarray:
        amplitudes = np.asarray(amplitudes, dtype=float)
        if amplitudes.ndim != 2:
            raise ValueError("amplitudes must be a 2-D batch (samples, 2**n)")
        exact = self.exact_levels_stack(amplitudes[None],
                                        ansatz.encoder_unitary()[None],
                                        compression_levels)[0]
        # One elementwise binomial call over the (levels, samples) array draws
        # bit-identically to the historical sequential per-level calls.
        return self._apply_shot_noise(exact)


def _level_circuit(ansatz: RandomAutoencoderAnsatz,
                   compression_level: int) -> QuantumCircuit:
    """Everything after state preparation: encoder, resets, decoder, SWAP test.

    The circuit carries no sample data, so its noisy channel is one per
    (member, level).
    """
    num_qubits = ansatz.num_qubits
    circuit = QuantumCircuit(2 * num_qubits + 1, 1, name="quorum_after_prep")
    encoder = ansatz.encoder_circuit(list(range(num_qubits)),
                                     num_circuit_qubits=circuit.num_qubits)
    circuit.compose(encoder, clbits=[0] * encoder.num_clbits)
    circuit.compose(build_autoencoder_suffix(ansatz, compression_level,
                                             measure=False))
    return circuit


class DensityMatrixEngine(SwapTestEngine):
    """Exact density-matrix simulation (optionally noisy).

    Noiseless ``initialize`` runs are the analytic computation: the
    reference register stays pure, so the SWAP test reads
    ``P(1) = (1 - <psi| rho_A |psi>) / 2`` of register A alone, and the
    engine evaluates it with :meth:`~SwapTestEngine.exact_levels_stack`
    (:attr:`analytic` is set).

    Runs with a noise model or gate-level encoding fold the full circuit.
    Noise acts on each gate's own qubits and is chosen by gate name and
    arity, and registers A and B receive the same preparation, so after
    preparation the state is ``rho_s (x) rho_s (x) |0><0|``.  Everything
    after that -- encoder, resets, decoder, SWAP test -- is
    sample-independent.  The fold therefore

    1. prepares every sample's ``n``-qubit ``rho_s`` at once, each RY column
       of the preparation fused with its noise channel into one
       superoperator per sample (:meth:`_prepared_densities`);
    2. pulls the ancilla projector back through the rest of the circuit once
       per (member, level): the ancilla-|0> block ``M`` of the compiler's
       cached ``dual_observable`` (:meth:`_level_kernel`);
    3. contracts ``P(1) = Re sum conj(M)[(b,a),(B,A)] rho_s[b,B] rho_s[a,A]``
       with one vector-matrix product and one dot per (level, row).

    Every step is per-row arithmetic, so a sample's result does not depend on
    the other rows of its batch.  ``compile_circuits=False``, or a noise
    model that fails :meth:`~repro.quantum.noise.NoiseModel.is_gate_local`,
    runs the per-sample :class:`~repro.quantum.simulator.DensityMatrixSimulator`
    oracle instead; the second case is counted in
    ``compiler.stats.fallbacks``.
    """

    def __init__(self, shots: Optional[int] = 4096,
                 rng: Optional[np.random.Generator] = None,
                 noise_model: Optional[NoiseModel] = None,
                 gate_level_encoding: bool = False,
                 simulation_backend: Union[str, SimulationBackend, None] = None,
                 compiler: Optional[CircuitCompiler] = None,
                 compile_circuits: bool = True
                 ) -> None:
        super().__init__(shots, rng, simulation_backend=simulation_backend,
                         compiler=compiler, compile_circuits=compile_circuits)
        self.noise_model = noise_model
        self.gate_level_encoding = gate_level_encoding

    @property
    def analytic(self) -> bool:
        """Noiseless ``initialize`` runs; everything else folds."""
        return self.noise_model is None and not self.gate_level_encoding

    def p1_levels_batch(self, amplitudes: np.ndarray,
                        ansatz: RandomAutoencoderAnsatz,
                        compression_levels: Sequence[int]) -> np.ndarray:
        levels = _validated_levels(compression_levels, ansatz.num_qubits)
        amplitudes = self._validated_amplitudes(amplitudes, ansatz)
        noise = self.noise_model
        if self.analytic:
            exact = self.exact_levels_stack(amplitudes[None],
                                            ansatz.encoder_unitary()[None],
                                            levels)[0]
        elif not self.compile_circuits:
            exact = self._oracle_levels(amplitudes, ansatz, levels)
        elif noise is not None and not noise.is_gate_local():
            self.compiler.record_fallback()
            exact = self._oracle_levels(amplitudes, ansatz, levels)
        else:
            exact = self._folded_levels(amplitudes, ansatz, levels)
        # One elementwise binomial call over the (levels, samples) array draws
        # bit-identically to sequential per-level calls.
        return self._apply_shot_noise(exact)

    def _folded_levels(self, amplitudes: np.ndarray,
                       ansatz: RandomAutoencoderAnsatz,
                       levels: Sequence[int]) -> np.ndarray:
        """Exact ``(levels, samples)`` probabilities of the folded circuit."""
        rhos = self._prepared_densities(amplitudes)
        samples, dim = rhos.shape[0], rhos.shape[1]
        flat = rhos.reshape(samples, 1, dim * dim)
        exact_p1 = np.empty((len(levels), samples))
        for position, level in enumerate(levels):
            # One vector-matrix product per row (a batched matmul over rows),
            # so no row's sums depend on how many rows or levels share the
            # call.
            pulled = np.matmul(flat, self._level_kernel(ansatz, level))
            exact_p1[position] = np.real(np.sum(pulled * flat, axis=(1, 2)))
        return exact_p1

    def _level_kernel(self, ansatz: RandomAutoencoderAnsatz,
                      level: int) -> np.ndarray:
        """The ``(4^n, 4^n)`` contraction kernel of one compression level.

        ``K[(b,B),(a,A)] = conj(M)[(b,a),(B,A)]``, where ``M`` is the
        ancilla-|0> block of the level's cached Heisenberg-picture observable
        (``b``/``a`` index registers B/A), so that
        ``P(1) = Re sum K[(b,B),(a,A)] rho[b,B] rho[a,A]``.
        """
        num_qubits = ansatz.num_qubits
        dim = 2 ** num_qubits
        observable = self.compiler.dual_observable(
            _level_circuit(ansatz, level), self.noise_model, 2 * num_qubits,
            self.backend)
        block = observable[:dim * dim, :dim * dim].reshape(dim, dim, dim, dim)
        return np.conj(block).transpose(0, 2, 1, 3).reshape(dim * dim,
                                                             dim * dim)

    def _prepared_densities(self, amplitudes: np.ndarray) -> np.ndarray:
        """Every sample's (noisy) ``n``-qubit prepared state; ``(samples, d, d)``.

        ``initialize`` encoding gives the exact ``|psi><psi|``.  Gate-level
        encoding walks :func:`~repro.encoding.amplitude.preparation_schedule`:
        each RY column becomes one superoperator per sample (gate and noise
        fused), and a rotation that a row's circuit leaves out becomes the
        identity for that row, noise included.  CX steps are shared.  All
        steps run as per-row batched matmuls.
        """
        backend = self.backend
        if not self.gate_level_encoding:
            return backend.density_from_states(backend.as_states(amplitudes))
        samples, dim = amplitudes.shape
        schedule = preparation_schedule(amplitudes)
        angles = np.stack([column for _, column in schedule
                           if column is not None], axis=1)
        # One cos/sin call over the contiguous (samples, rotations) matrix, so
        # every row takes the same code path whatever the batch size.
        cosines, sines = np.cos(angles / 2.0), np.sin(angles / 2.0)
        elided = np.abs(angles) <= ROTATION_TOLERANCE
        # CX steps are shared: broadcast in the backend dtype, so every row
        # reads the same contiguous matrix whatever the batch size.
        cx_steps = [
            (np.broadcast_to(np.asarray(superop[0], dtype=backend.dtype),
                             (samples,) + superop.shape[1:]), arity)
            for superop, arity in self._gate_channel(
                GATE_MATRICES["cx"][None], "cx")
        ]
        rhos = np.zeros((samples, dim, dim), dtype=backend.dtype)
        rhos[:, 0, 0] = 1.0
        column = 0
        for qubits, rotation in schedule:
            if rotation is None:
                for superops, arity in cx_steps:
                    rhos = backend.apply_superoperators_density_batch(
                        rhos, superops, qubits[:arity])
                continue
            cosine, sine = cosines[:, column], sines[:, column]
            gates = np.stack([np.stack([cosine, -sine], axis=1),
                              np.stack([sine, cosine], axis=1)], axis=1)
            (superops, _), = self._gate_channel(gates, "ry")
            superops[elided[:, column]] = np.eye(4)
            rhos = backend.apply_superoperators_density_batch(rhos, superops,
                                                              qubits)
            column += 1
        return rhos

    def _gate_channel(self, gates: np.ndarray, name: str) -> list:
        """``(superoperators, arity)`` steps of a gate followed by its noise.

        ``gates`` is a ``(batch, 2^k, 2^k)`` stack; each step holds one
        superoperator per entry and acts on the gate's first ``arity``
        qubits.  The channel is fused into the gate's superoperator unless it
        acts on fewer qubits than the gate, in which case it follows as its
        own step, as in :class:`~repro.quantum.simulator.DensityMatrixSimulator`.
        """
        local = gates.shape[-1]
        arity = local.bit_length() - 1
        superops = np.einsum("bij,bkl->bikjl", gates, gates.conj()).reshape(
            gates.shape[0], local * local, local * local)
        channel = (self.noise_model.superoperator_for(name, arity)
                   if self.noise_model is not None else None)
        if channel is None:
            return [(superops, arity)]
        if channel.shape == superops.shape[1:]:
            return [(np.matmul(channel, superops), arity)]
        channel_arity = (channel.shape[0].bit_length() - 1) // 2
        return [(superops, arity), (channel[None], channel_arity)]

    def _oracle_levels(self, amplitudes: np.ndarray,
                       ansatz: RandomAutoencoderAnsatz,
                       levels: Sequence[int]) -> np.ndarray:
        """The per-sample reference: one full-circuit
        :meth:`DensityMatrixSimulator.evolve` per (level, sample)."""
        simulator = DensityMatrixSimulator(noise_model=self.noise_model,
                                           backend=self.backend)
        ancilla = 2 * ansatz.num_qubits
        exact_p1 = np.empty((len(levels), amplitudes.shape[0]))
        for position, level in enumerate(levels):
            for index, row in enumerate(amplitudes):
                circuit = build_autoencoder_circuit(
                    row, ansatz, level,
                    gate_level_encoding=self.gate_level_encoding,
                    measure=False,
                )
                exact_p1[position, index] = simulator.evolve(
                    circuit).probability_of_outcome(ancilla, 1)
        return exact_p1


def make_engine(backend: str, shots: Optional[int],
                rng: Optional[np.random.Generator] = None,
                noisy: bool = False,
                gate_level_encoding: bool = False,
                num_qubits: int = 3,
                simulation_backend: Union[str, SimulationBackend, None] = None,
                compile_circuits: bool = True,
                compiler: Optional[CircuitCompiler] = None
                ) -> SwapTestEngine:
    """Factory used by the detector to build the configured engine.

    ``backend`` selects the *engine strategy* (``analytic`` /
    ``density_matrix``); ``simulation_backend`` selects the *numerical kernel
    implementation* those engines run on (see :mod:`repro.quantum.backend`);
    ``compile_circuits`` selects between compiled-program execution (default)
    and the per-sample reference simulator; ``compiler`` overrides
    the process-wide shared compiled-program cache (the online scorer passes a
    private instance in tests so cache counters can be asserted in isolation).
    """
    backend = backend.lower()
    if backend == "analytic":
        if noisy:
            raise ValueError("the analytic engine cannot model hardware noise")
        return AnalyticEngine(shots=shots, rng=rng,
                              simulation_backend=simulation_backend,
                              compiler=compiler,
                              compile_circuits=compile_circuits)
    if backend == "density_matrix":
        noise_model = None
        if noisy:
            noise_model = FakeBrisbane(num_qubits=2 * num_qubits + 1).to_noise_model()
        return DensityMatrixEngine(shots=shots, rng=rng, noise_model=noise_model,
                                   gate_level_encoding=gate_level_encoding or noisy,
                                   simulation_backend=simulation_backend,
                                   compiler=compiler,
                                   compile_circuits=compile_circuits)
    raise ValueError(f"unknown backend {backend!r}")
