"""SWAP-test execution engines used by the detector.

Each engine answers the same question -- "what is the probability of reading 1 on
the SWAP-test ancilla for this encoded sample, this random ansatz, and this
compression level?" -- with a different cost/fidelity trade-off:

* :class:`AnalyticEngine` evaluates the reduced-density-matrix expression exactly
  (vectorized over a whole stack of members and samples) and optionally adds
  binomial shot noise.  This is the default for noiseless sweeps and is
  cross-validated against the circuit-level engines in the test suite.
* :class:`DensityMatrixEngine` evolves register A's density matrix exactly.  The
  noiseless path runs the whole sample batch through the batched kernels of a
  :class:`~repro.quantum.backend.SimulationBackend`; noisy or gate-level runs
  simulate the full ``2n+1``-qubit circuit, but as one *batched* circuit walk
  over all samples (every sample shares the gate structure; only the amplitude
  encoding differs).  A noisy compression sweep additionally checkpoints the
  post-encoding density batch -- every level shares the circuit prefix, so the
  prefix is walked once per sweep and only the per-level suffix (reset +
  decoder + SWAP test) is replayed from the checkpoint.
* :class:`StatevectorEngine` runs stochastic trajectories, mimicking how a
  shot-based hardware run (or Qiskit Aer's statevector method with mid-circuit
  resets) behaves.  All samples and all trajectories are evolved together as one
  ``(samples * trajectories, 2**n)`` batch.

Batched execution
-----------------
Every engine accepts ``simulation_backend=`` (a name from
:func:`repro.quantum.backend.available_simulation_backends` or a
:class:`~repro.quantum.backend.SimulationBackend` instance; default
``"numpy"``) and routes its linear algebra through that backend's batched
primitives: amplitudes enter as ``(samples, 2**n)`` float arrays, the leading
batch axis is preserved end to end, and the ansatz unitary ``E`` is built once
per ensemble member (cached on the ansatz) rather than once per sample.

``p1_levels_batch`` fuses a member's whole compression sweep into one call:
samples and levels form a single flattened batch wherever the math allows, and
the shot-noise RNG is consumed in exactly the order the historical per-level
loop used, so fixed-seed results are unchanged.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Union

import numpy as np

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.algorithms.autoencoder import (
    build_autoencoder_circuit,
    build_autoencoder_prefix,
    build_autoencoder_suffix,
)
from repro.quantum.backend import SimulationBackend, get_simulation_backend
from repro.quantum.backends import FakeBrisbane
from repro.quantum.compiler import CircuitCompiler, default_compiler
from repro.quantum.noise import NoiseModel
from repro.quantum.simulator import (
    BatchedDensityMatrixSimulator,
    DensityMatrixSimulator,
)

__all__ = [
    "SwapTestEngine",
    "AnalyticEngine",
    "DensityMatrixEngine",
    "StatevectorEngine",
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
    """Interface shared by the three execution strategies.

    Circuit-level sweeps execute *compiled programs* by default: circuits are
    lowered once through a :class:`~repro.quantum.compiler.CircuitCompiler`
    (shared LRU cache keyed by circuit signature, noise fingerprint, and
    backend dtype) into fused dense operators, and the per-sweep work reduces
    to a few batched matmuls.  ``compile_circuits=False`` selects the
    gate-by-gate interpreted paths, retained as the reference implementation
    for the parity test suite.  The member encoder ``E`` never goes through
    the compiler: every engine takes it from
    :meth:`~repro.algorithms.ansatz.RandomAutoencoderAnsatz.encoder_unitary`.
    """

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
    def p1_batch(self, amplitudes: np.ndarray, ansatz: RandomAutoencoderAnsatz,
                 compression_level: int) -> np.ndarray:
        """SWAP-test P(1) for every row of ``amplitudes`` (shape: samples x 2^n)."""

    def p1_levels_batch(self, amplitudes: np.ndarray,
                        ansatz: RandomAutoencoderAnsatz,
                        compression_levels: Sequence[int]) -> np.ndarray:
        """SWAP-test P(1) for every (level, sample) pair; shape ``(levels, samples)``.

        This is the fused entry point the ensemble executor uses: one call per
        member covers the member's whole compression sweep.  The default
        implementation runs the levels sequentially through :meth:`p1_batch`
        (consuming the shot-noise RNG in exactly the order the historical
        per-level loop did); engines whose levels share expensive intermediate
        state override it with a genuinely fused computation.
        """
        levels = _validated_levels(compression_levels, ansatz.num_qubits)
        return np.stack([
            self.p1_batch(amplitudes, ansatz, level)
            for level in levels
        ])

    def p1_single(self, amplitudes: Sequence[float],
                  ansatz: RandomAutoencoderAnsatz,
                  compression_level: int) -> float:
        """Convenience wrapper for a single sample."""
        batch = np.asarray(amplitudes, dtype=float).reshape(1, -1)
        return float(self.p1_batch(batch, ansatz, compression_level)[0])

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

    def _validated_batch(self, amplitudes: np.ndarray,
                         ansatz: RandomAutoencoderAnsatz,
                         compression_level: int) -> np.ndarray:
        """Common input validation for ``p1_batch`` implementations."""
        if not 0 <= compression_level <= ansatz.num_qubits:
            raise ValueError("compression level out of range")
        return self._validated_amplitudes(amplitudes, ansatz)

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

    def p1_batch(self, amplitudes: np.ndarray, ansatz: RandomAutoencoderAnsatz,
                 compression_level: int) -> np.ndarray:
        return self.p1_levels_batch(amplitudes, ansatz, (compression_level,))[0]

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


class DensityMatrixEngine(SwapTestEngine):
    """Exact density-matrix simulation (optionally noisy).

    Noiseless runs evolve register A's ``2^n x 2^n`` density matrix for the
    whole sample batch at once through the simulation backend's batched
    kernels; this is mathematically identical to simulating the full
    ``2n+1``-qubit circuit (the reference register stays pure and the SWAP test
    reads ``P(1) = (1 - <psi| rho_A |psi>) / 2``).  Runs with a noise model or
    gate-level encoding use :meth:`p1_batch_circuit_level`, which walks the full
    circuit for *all samples at once* -- the gate structure is shared across the
    batch, so noise channels apply to whole density-matrix batches and only the
    amplitude encoding is per-sample.  Noisy compression sweeps go further:
    :meth:`p1_levels_batch_circuit_level` walks the level-independent circuit
    prefix exactly once for the whole ``(levels x samples)`` sweep, checkpoints
    the post-prefix density batch, and replays only the per-level suffix.
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

    def p1_batch(self, amplitudes: np.ndarray, ansatz: RandomAutoencoderAnsatz,
                 compression_level: int) -> np.ndarray:
        amplitudes = self._validated_batch(amplitudes, ansatz, compression_level)
        if self.noise_model is not None or self.gate_level_encoding:
            return self.p1_batch_circuit_level(amplitudes, ansatz,
                                               compression_level)
        return self.p1_levels_batch(amplitudes, ansatz, (compression_level,))[0]

    def p1_levels_batch(self, amplitudes: np.ndarray,
                        ansatz: RandomAutoencoderAnsatz,
                        compression_levels: Sequence[int]) -> np.ndarray:
        levels = _validated_levels(compression_levels, ansatz.num_qubits)
        amplitudes = self._validated_amplitudes(amplitudes, ansatz)
        if self.noise_model is not None or self.gate_level_encoding:
            return self.p1_levels_batch_circuit_level(amplitudes, ansatz, levels)
        return self._apply_shot_noise(
            self._exact_levels_batch(amplitudes, ansatz, levels)
        )

    def _exact_levels_batch(self, amplitudes: np.ndarray,
                            ansatz: RandomAutoencoderAnsatz,
                            levels: Sequence[int]) -> np.ndarray:
        backend = self.backend
        psi = backend.as_states(amplitudes)
        encoder = ansatz.encoder_unitary()
        decoder = encoder.conj().T
        # Encoding and the pure-state density build are level-independent and
        # run once for the whole sweep; only the (cheap) reset/decode/overlap
        # tail is per level, each level's batch staying cache-sized.
        phi = backend.apply_unitary_batch(psi, encoder)
        rhos = backend.density_from_states(phi)
        exact_p1 = np.empty((len(levels), amplitudes.shape[0]))
        for position, level in enumerate(levels):
            level_rhos = backend.reset_low_qubits_density_batch(rhos, level)
            level_rhos = backend.evolve_density_batch(level_rhos, decoder)
            overlap = backend.expectation_batch(level_rhos, psi)
            exact_p1[position] = np.clip((1.0 - overlap) / 2.0, 0.0, 1.0)
        return exact_p1

    def p1_levels_batch_circuit_level(self, amplitudes: np.ndarray,
                                      ansatz: RandomAutoencoderAnsatz,
                                      compression_levels: Sequence[int]
                                      ) -> np.ndarray:
        """Checkpointed full-circuit sweep (the noisy multi-level hot path).

        Every compression level of the sweep shares the same circuit prefix
        (amplitude encoding of both registers + the encoder ansatz); only the
        suffix (reset block + decoder + SWAP test) depends on the level.  The
        walker therefore evolves the batched prefix **exactly once** (with its
        shared gate runs executing as compiled fused operators) and keeps the
        post-prefix density batch as a checkpoint.  With compilation on (the
        default), each level's sample-independent suffix is then lowered once
        into a cached Heisenberg-picture observable and evaluated as a single
        batched matmul against the checkpoint; with ``compile_circuits=False``
        the suffix is replayed forward from a snapshot, gate by gate, exactly
        as in the pre-compilation implementation.  Either way results agree
        with looping :meth:`p1_batch_circuit_level` per level, and the
        shot-noise RNG is consumed in the exact level-major order the
        historical per-level loop used.
        """
        levels = _validated_levels(compression_levels, ansatz.num_qubits)
        amplitudes = self._validated_amplitudes(amplitudes, ansatz)
        # One elementwise binomial call over the (levels, samples) array draws
        # bit-identically to the historical sequential per-level calls.
        return self._apply_shot_noise(
            self._circuit_level_sweep(amplitudes, ansatz, levels)
        )

    def _circuit_level_sweep(self, amplitudes: np.ndarray,
                             ansatz: RandomAutoencoderAnsatz,
                             levels: Sequence[int]) -> np.ndarray:
        """Exact ``(levels, samples)`` probabilities of the checkpointed sweep.

        Shared by the fused multi-level entry point and the single-level
        ``p1_batch_circuit_level``, so a per-level loop over the latter is
        arithmetically identical to one fused sweep.  With compilation on, the
        per-level suffix never runs forward at all: the compiler's cached
        Heisenberg-picture observable ``W = C^dagger(|1><1|_ancilla)`` turns
        each level into ONE batched matmul against the checkpoint.
        """
        prefixes = [
            build_autoencoder_prefix(
                row, ansatz, gate_level_encoding=self.gate_level_encoding,
            )
            for row in amplitudes
        ]
        walker = BatchedDensityMatrixSimulator(
            noise_model=self.noise_model, backend=self.backend,
            compiler=self.compiler, compile_programs=self.compile_circuits,
        )
        checkpoint = walker.evolve_batch(prefixes)
        ancilla = 2 * ansatz.num_qubits
        exact_p1 = np.empty((len(levels), amplitudes.shape[0]))
        for position, level in enumerate(levels):
            suffix = build_autoencoder_suffix(ansatz, level, measure=False)
            if self.compile_circuits:
                observable = self.compiler.dual_observable(
                    suffix, self.noise_model, ancilla, self.backend
                )
                exact_p1[position] = (
                    self.backend.observable_expectation_density_batch(
                        checkpoint, observable
                    )
                )
                continue
            rhos = walker.replay_suffix_batch(checkpoint, suffix)
            exact_p1[position] = self.backend.probability_one_density_batch(
                rhos, ancilla
            )
        return exact_p1

    def p1_batch_circuit_level(self, amplitudes: np.ndarray,
                               ansatz: RandomAutoencoderAnsatz,
                               compression_level: int) -> np.ndarray:
        """Full-circuit simulation of the whole batch at ONE compression level.

        Every sample's circuit shares the same gate structure -- only the
        amplitude encoding differs -- so all samples walk one batched circuit
        through :class:`~repro.quantum.simulator.BatchedDensityMatrixSimulator`
        instead of looping a per-sample simulator.  Level sweeps do not loop
        this method: :meth:`p1_levels_batch_circuit_level` checkpoints the
        shared prefix and replays only the per-level suffix (this per-level
        walk remains the pre-checkpoint regression reference).
        """
        amplitudes = self._validated_batch(amplitudes, ansatz, compression_level)
        if self.compile_circuits:
            # Same checkpoint + compiled-observable arithmetic as the fused
            # sweep, so a per-level loop over this method stays bitwise
            # identical to one `p1_levels_batch` call.
            exact_p1 = self._circuit_level_sweep(amplitudes, ansatz,
                                                 [compression_level])[0]
            return self._apply_shot_noise(exact_p1)
        circuits = [
            build_autoencoder_circuit(
                row, ansatz, compression_level,
                gate_level_encoding=self.gate_level_encoding, measure=False,
            )
            for row in amplitudes
        ]
        walker = BatchedDensityMatrixSimulator(noise_model=self.noise_model,
                                               backend=self.backend,
                                               compiler=self.compiler,
                                               compile_programs=False)
        rhos = walker.evolve_batch(circuits)
        ancilla = 2 * ansatz.num_qubits
        exact_p1 = self.backend.probability_one_density_batch(rhos, ancilla)
        return self._apply_shot_noise(exact_p1)

    def p1_per_sample_circuit_level(self, amplitudes: np.ndarray,
                                    ansatz: RandomAutoencoderAnsatz,
                                    compression_level: int) -> np.ndarray:
        """Reference per-sample circuit walk (regression baseline for the batched
        walk; not used on any hot path)."""
        amplitudes = self._validated_batch(amplitudes, ansatz, compression_level)
        simulator = DensityMatrixSimulator(noise_model=self.noise_model,
                                           backend=self.backend)
        results = np.empty(amplitudes.shape[0])
        for index, row in enumerate(amplitudes):
            circuit = build_autoencoder_circuit(
                row, ansatz, compression_level,
                gate_level_encoding=self.gate_level_encoding, measure=False,
            )
            final_state = simulator.evolve(circuit)
            ancilla = 2 * ansatz.num_qubits
            exact_p1 = final_state.probability_of_outcome(ancilla, 1)
            results[index] = exact_p1
        return self._apply_shot_noise(results)


class StatevectorEngine(SwapTestEngine):
    """Trajectory-sampled simulation (no noise model support).

    Every trajectory keeps register A pure: the partial reset becomes a
    projective measurement (outcome drawn per trajectory) followed by a
    conditional flip to |0>.  The engine therefore evolves a
    ``(samples * trajectories, 2**n)`` batch of register-A states through the
    backend kernels, computes each trajectory's exact ancilla probability
    ``(1 - |<psi|phi_traj>|^2) / 2``, and distributes the shot budget over the
    trajectories exactly like the per-circuit trajectory simulator does.
    """

    #: Upper bound on (samples x trajectories) rows evolved at once; chunks of
    #: the sample axis keep peak memory bounded for large datasets while each
    #: chunk still runs through one batched kernel call.
    MAX_FLAT_BATCH = 1 << 15

    def __init__(self, shots: Optional[int] = 4096,
                 rng: Optional[np.random.Generator] = None,
                 max_trajectories: Optional[int] = 64,
                 simulation_backend: Union[str, SimulationBackend, None] = None,
                 compiler: Optional[CircuitCompiler] = None,
                 compile_circuits: bool = True
                 ) -> None:
        if shots is None:
            raise ValueError("the statevector engine is shot-based; provide shots")
        super().__init__(shots, rng, simulation_backend=simulation_backend,
                         compiler=compiler, compile_circuits=compile_circuits)
        self.max_trajectories = max_trajectories

    def p1_batch(self, amplitudes: np.ndarray, ansatz: RandomAutoencoderAnsatz,
                 compression_level: int) -> np.ndarray:
        amplitudes = self._validated_batch(amplitudes, ansatz, compression_level)
        num_samples = amplitudes.shape[0]

        trajectories = self.shots
        if compression_level == 0:
            # No reset -> the circuit is deterministic; one trajectory suffices.
            trajectories = 1
        elif self.max_trajectories is not None:
            trajectories = min(trajectories, self.max_trajectories)
        trajectories = max(trajectories, 1)
        shots_per_trajectory = np.asarray(self._split_shots(self.shots,
                                                            trajectories))
        trajectories = shots_per_trajectory.shape[0]

        results = np.empty(num_samples)
        chunk = max(1, self.MAX_FLAT_BATCH // trajectories)
        for start in range(0, num_samples, chunk):
            stop = min(start + chunk, num_samples)
            results[start:stop] = self._p1_chunk(
                amplitudes[start:stop], ansatz, compression_level,
                trajectories, shots_per_trajectory,
            )
        return results

    def _p1_chunk(self, amplitudes: np.ndarray,
                  ansatz: RandomAutoencoderAnsatz, compression_level: int,
                  trajectories: int,
                  shots_per_trajectory: np.ndarray) -> np.ndarray:
        """Trajectory-sample one chunk of samples as a single flat batch."""
        backend = self.backend
        encoder = ansatz.encoder_unitary()
        psi = backend.as_states(amplitudes)
        phi = backend.apply_unitary_batch(psi, encoder)
        # One flat batch over (sample, trajectory) pairs; sample-major so that
        # reshaping back to (samples, trajectories) is a plain view.
        states = np.repeat(phi, trajectories, axis=0)
        for qubit in range(compression_level):
            probability_one = backend.probability_one_batch(states, qubit)
            outcomes = (self.rng.random(states.shape[0])
                        < probability_one).astype(int)
            states = backend.collapse_qubit_batch(states, qubit, outcomes,
                                                  reset_to_zero=True)
        decoded = backend.apply_unitary_batch(states, encoder.conj().T)
        fidelity = backend.overlap_batch(np.repeat(psi, trajectories, axis=0),
                                         decoded)
        p1 = np.clip((1.0 - fidelity) / 2.0, 0.0, 1.0)
        p1 = p1.reshape(amplitudes.shape[0], trajectories)
        ones = self.rng.binomial(shots_per_trajectory[None, :], p1).sum(axis=1)
        return ones / float(self.shots)

    @staticmethod
    def _split_shots(shots: int, trajectories: int) -> list:
        base = shots // trajectories
        remainder = shots % trajectories
        split = [base + (1 if index < remainder else 0)
                 for index in range(trajectories)]
        return [s for s in split if s > 0] or [shots]


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

    ``backend`` selects the *engine strategy* (``analytic`` / ``density_matrix``
    / ``statevector``); ``simulation_backend`` selects the *numerical kernel
    implementation* those engines run on (see :mod:`repro.quantum.backend`);
    ``compile_circuits`` selects between compiled-program execution (default)
    and the gate-by-gate interpreted reference paths; ``compiler`` overrides
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
    if backend == "statevector":
        if noisy:
            raise ValueError("the statevector engine cannot model hardware noise")
        return StatevectorEngine(shots=shots or 1024, rng=rng,
                                 simulation_backend=simulation_backend,
                                 compiler=compiler,
                                 compile_circuits=compile_circuits)
    raise ValueError(f"unknown backend {backend!r}")
