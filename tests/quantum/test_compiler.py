"""Compiled-vs-interpreted parity suite for :mod:`repro.quantum.compiler`.

The compiler may reassociate operator products (fusing gate runs into dense
blocks, pulling the readout projector back through the channel adjoint), but it
must never change *what* is computed: every compiled artifact is checked
against the per-circuit density-matrix simulator to ``<= 1e-12`` on the
``complex128`` backend (and to single precision on ``numpy-float32``), across
noise models, random ansatz/level combinations, and Hypothesis-driven random
circuits.  The LRU cache is pinned by compile counters, and the shot-noise RNG
stream of the compiled engines is pinned bitwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.algorithms.autoencoder import (
    QuorumCircuitFactory,
    build_autoencoder_circuit,
    build_autoencoder_prefix,
    build_autoencoder_suffix,
)
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import AnalyticEngine, DensityMatrixEngine
from repro.quantum.backends import FakeBrisbane
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.circuit_library import random_circuit
from repro.quantum.compiler import (
    CircuitCompiler,
    circuit_signature,
    default_compiler,
    noise_model_fingerprint,
)
from repro.quantum.noise import NoiseModel, QuantumError, depolarizing_kraus
from repro.quantum.simulator import DensityMatrixSimulator
from repro.quantum.transpiler import unitaries_equivalent
from tests.oracle import gate_by_gate_encoder_unitary

seeds = st.integers(min_value=0, max_value=10_000)

#: (backend name, tolerance of compiled-vs-interpreted agreement).
BACKENDS = [("numpy", 1e-12), ("numpy-float32", 5e-5)]


def make_batch(num_samples=5, num_qubits=2, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                         size=(num_samples, 2 ** num_qubits - 1))
    return batch_amplitudes(values, num_qubits)


def depolarizing_model():
    return (
        NoiseModel()
        .add_all_single_qubit_error(QuantumError.from_kraus(
            depolarizing_kraus(0.02)))
        .add_all_two_qubit_error(QuantumError.from_kraus(
            depolarizing_kraus(0.05, 2)))
    )


NOISE_MODELS = {
    "brisbane": lambda total_qubits: FakeBrisbane(total_qubits).to_noise_model(),
    "depolarizing": lambda total_qubits: depolarizing_model(),
    "noiseless": lambda total_qubits: None,
}


class TestUnitaryCompilation:
    def test_fused_encoder_is_bitwise_the_gate_by_gate_unitary(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=7)
        compiler = CircuitCompiler()
        fused = compiler.fused_unitary(
            ansatz.encoder_circuit(list(range(3))))
        assert np.array_equal(fused, gate_by_gate_encoder_unitary(ansatz))
        # The engines' encoder comes from `encoder_unitaries` instead.
        assert np.allclose(fused, ansatz.encoder_unitary(), rtol=0,
                           atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=seeds)
    def test_unitary_program_matches_dense_circuit_unitary(self, seed):
        circuit = random_circuit(num_qubits=3, depth=8, seed=seed)
        compiler = CircuitCompiler()
        fused = compiler.fused_unitary(circuit)
        assert np.allclose(fused, circuit.to_unitary(), atol=1e-10)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_optimizing_compiler_is_equivalent_up_to_phase(self, seed):
        circuit = random_circuit(num_qubits=3, depth=10, seed=seed)
        plain = CircuitCompiler(optimize=False).fused_unitary(circuit)
        optimized = CircuitCompiler(optimize=True).fused_unitary(circuit)
        assert unitaries_equivalent(plain, optimized, atol=1e-8)

    def test_unitary_program_rejects_non_unitary_instructions(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0)
        circuit.reset(0)
        with pytest.raises(ValueError, match="unitary programs"):
            CircuitCompiler().unitary_program(circuit)

    def test_compiled_operators_are_read_only(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=3)
        fused = CircuitCompiler().fused_unitary(
            ansatz.encoder_circuit(list(range(2))))
        with pytest.raises(ValueError):
            fused[0, 0] = 0.0


class TestDualObservable:
    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    @pytest.mark.parametrize("backend_name,tolerance", BACKENDS)
    def test_observable_matches_forward_evolution(self, noise_name,
                                                  backend_name, tolerance):
        """<W, rho_prefix> equals the ancilla P(1) of the whole circuit."""
        ansatz = RandomAutoencoderAnsatz(2, seed=21)
        noise = NOISE_MODELS[noise_name](5)
        factory = QuorumCircuitFactory(ansatz, compiler=CircuitCompiler())
        simulator = DensityMatrixSimulator(noise_model=noise)
        for row in make_batch(seed=2):
            prefix = simulator.evolve(
                build_autoencoder_prefix(row, ansatz, gate_level_encoding=True))
            for level in (0, 1, 2):
                expected = simulator.evolve(build_autoencoder_circuit(
                    row, ansatz, level, gate_level_encoding=True,
                    measure=False)).probability_of_outcome(4, 1)
                observable = factory.suffix_observable(level, noise,
                                                       backend_name)
                dual = np.real(np.vdot(observable, prefix.data))
                assert abs(dual - expected) <= tolerance

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_random_circuit_observable_parity(self, seed):
        """Hypothesis: random gate streams + resets + noise pull the readout
        projector back through the channel the per-circuit interpreter
        applies."""
        circuit = random_circuit(num_qubits=3, depth=6, seed=seed)
        rng = np.random.default_rng(seed)
        if rng.random() < 0.5:
            circuit.reset(int(rng.integers(3)))
        qubit = int(rng.integers(3))
        noise = depolarizing_model() if rng.random() < 0.7 else None
        expected = DensityMatrixSimulator(noise_model=noise).evolve(
            circuit).probability_of_outcome(qubit, 1)
        observable = CircuitCompiler().dual_observable(circuit, noise, qubit)
        assert abs(np.real(observable[0, 0]) - expected) <= 1e-12

    def test_observable_rejects_initialize(self):
        circuit = QuantumCircuit(2, 1)
        circuit.initialize(np.array([1.0, 0.0]), [0])
        with pytest.raises(ValueError, match="initialize"):
            CircuitCompiler().dual_observable(circuit, None, 0)

    def test_observable_is_hermitian(self):
        """The adjoint of a CPTP map preserves Hermiticity, so the compiled
        observable contracts to real expectations."""
        ansatz = RandomAutoencoderAnsatz(2, seed=23)
        observable = QuorumCircuitFactory(
            ansatz, compiler=CircuitCompiler()).suffix_observable(
            1, FakeBrisbane(5).to_noise_model())
        assert np.allclose(observable, observable.conj().T, atol=1e-12)


class TestEngineParity:
    @settings(max_examples=10, deadline=None)
    @given(seed=seeds, level_seed=seeds)
    def test_random_ansatz_level_combinations(self, seed, level_seed):
        """Hypothesis: compiled and reference noisy engines agree to 1e-12
        for random ansatz draws and random level subsets."""
        rng = np.random.default_rng(level_seed)
        ansatz = RandomAutoencoderAnsatz(2, num_layers=int(rng.integers(1, 3)),
                                         seed=seed)
        levels = [int(level) for level in
                  rng.choice(3, size=int(rng.integers(1, 4)), replace=False)]
        batch = make_batch(num_samples=4, seed=seed)
        noise = FakeBrisbane(5).to_noise_model()
        kwargs = dict(shots=None, noise_model=noise, gate_level_encoding=True)
        compiled = DensityMatrixEngine(compiler=CircuitCompiler(), **kwargs)
        interpreted = DensityMatrixEngine(compile_circuits=False, **kwargs)
        assert np.allclose(compiled.p1_levels_batch(batch, ansatz, levels),
                           interpreted.p1_levels_batch(batch, ansatz, levels),
                           atol=1e-12)

    @pytest.mark.parametrize("backend_name,tolerance", BACKENDS)
    def test_noisy_engine_parity_per_backend(self, backend_name, tolerance):
        ansatz = RandomAutoencoderAnsatz(2, seed=31)
        batch = make_batch(seed=4)
        noise = FakeBrisbane(5).to_noise_model()
        kwargs = dict(shots=None, noise_model=noise, gate_level_encoding=True,
                      simulation_backend=backend_name)
        compiled = DensityMatrixEngine(compiler=CircuitCompiler(), **kwargs)
        interpreted = DensityMatrixEngine(compile_circuits=False, **kwargs)
        levels = [0, 1, 2]
        assert np.allclose(compiled.p1_levels_batch(batch, ansatz, levels),
                           interpreted.p1_levels_batch(batch, ansatz, levels),
                           atol=tolerance)

    def test_analytic_engine_is_bitwise_unchanged_by_compilation(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=33)
        batch = make_batch(num_samples=6, num_qubits=3, seed=5)
        compiled = AnalyticEngine(shots=None, compiler=CircuitCompiler())
        interpreted = AnalyticEngine(shots=None, compile_circuits=False)
        assert np.array_equal(
            compiled.p1_levels_batch(batch, ansatz, [0, 1, 2]),
            interpreted.p1_levels_batch(batch, ansatz, [0, 1, 2]),
        )

    def test_compiled_shot_noise_rng_stream_is_bitwise_pinned(self):
        """The compiled fused sweep and a compiled per-level loop share the
        exact operator arithmetic, so their binomial shot-noise draws consume
        the RNG stream bitwise identically."""
        ansatz = RandomAutoencoderAnsatz(2, seed=35)
        batch = make_batch(seed=6)
        noise = FakeBrisbane(5).to_noise_model()
        levels = [0, 1, 2]
        compiler = CircuitCompiler()
        fused = DensityMatrixEngine(
            shots=2048, noise_model=noise, gate_level_encoding=True,
            compiler=compiler, rng=np.random.default_rng(17),
        ).p1_levels_batch(batch, ansatz, levels)
        loop_engine = DensityMatrixEngine(
            shots=2048, noise_model=noise, gate_level_encoding=True,
            compiler=compiler, rng=np.random.default_rng(17),
        )
        looped = np.stack([
            loop_engine.p1_batch(batch, ansatz, level) for level in levels
        ])
        assert np.array_equal(fused, looped)

    def test_compiled_exact_probabilities_reproduce_across_runs(self):
        """Cached programs are deterministic: two compiled engines (cold and
        warm cache) produce bitwise identical exact probabilities."""
        ansatz = RandomAutoencoderAnsatz(2, seed=37)
        batch = make_batch(seed=7)
        noise = FakeBrisbane(5).to_noise_model()
        compiler = CircuitCompiler()
        kwargs = dict(shots=None, noise_model=noise, gate_level_encoding=True,
                      compiler=compiler)
        cold = DensityMatrixEngine(**kwargs).p1_levels_batch(batch, ansatz,
                                                             [0, 1, 2])
        warm = DensityMatrixEngine(**kwargs).p1_levels_batch(batch, ansatz,
                                                             [0, 1, 2])
        assert np.array_equal(cold, warm)


class TestCompilerCache:
    def test_recompiling_the_same_circuit_hits_the_cache(self):
        """Acceptance pin: compiling the same (circuit, noise model) twice must
        not recompile -- observed through the compile counter."""
        ansatz = RandomAutoencoderAnsatz(2, seed=41)
        suffix = build_autoencoder_suffix(ansatz, 1, measure=False)
        noise = FakeBrisbane(5).to_noise_model()
        compiler = CircuitCompiler()
        first = compiler.dual_observable(suffix, noise, 4)
        compiles_after_first = compiler.stats.compiles
        hits_after_first = compiler.stats.hits
        second = compiler.dual_observable(suffix, noise, 4)
        assert compiler.stats.compiles == compiles_after_first
        assert compiler.stats.hits == hits_after_first + 1
        assert second is first

    def test_equal_but_distinct_noise_models_share_entries(self):
        """Fingerprints are content-based: per-member FakeBrisbane models do
        not multiply the cache."""
        ansatz = RandomAutoencoderAnsatz(2, seed=43)
        suffix = build_autoencoder_suffix(ansatz, 1, measure=False)
        compiler = CircuitCompiler()
        first = compiler.dual_observable(suffix, FakeBrisbane(5).to_noise_model(), 4)
        compiles = compiler.stats.compiles
        second = compiler.dual_observable(suffix, FakeBrisbane(5).to_noise_model(), 4)
        assert compiler.stats.compiles == compiles
        assert second is first

    def test_different_noise_or_dtype_compile_separately(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=45)
        suffix = build_autoencoder_suffix(ansatz, 1, measure=False)
        compiler = CircuitCompiler()
        noisy = compiler.dual_observable(suffix, FakeBrisbane(5).to_noise_model(), 4)
        noiseless = compiler.dual_observable(suffix, None, 4)
        float32 = compiler.dual_observable(suffix, None, 4, "numpy-float32")
        assert not np.array_equal(noisy, noiseless)
        assert float32.dtype == np.complex64

    def test_lru_eviction_is_bounded(self):
        compiler = CircuitCompiler(max_entries=2)
        for seed in range(5):
            circuit = random_circuit(num_qubits=2, depth=3, seed=seed)
            compiler.fused_unitary(circuit)
        assert compiler.cache_size() <= 2

    def test_lru_eviction_is_byte_bounded(self):
        """Dense observables are large; the cache evicts by payload bytes,
        not just entry count."""
        one_entry = CircuitCompiler().fused_unitary(
            random_circuit(num_qubits=3, depth=3, seed=0)).nbytes
        compiler = CircuitCompiler(max_bytes=int(2.5 * one_entry))
        for seed in range(5):
            compiler.fused_unitary(random_circuit(num_qubits=3, depth=3,
                                                  seed=seed))
        assert compiler.cache_bytes() <= 2.5 * one_entry
        assert compiler.cache_size() == 2

    def test_signature_distinguishes_parameters_and_payloads(self):
        a = QuantumCircuit(2, 1)
        a.rx(0.5, 0)
        b = QuantumCircuit(2, 1)
        b.rx(0.6, 0)
        assert circuit_signature(a) != circuit_signature(b)
        assert circuit_signature(a) == circuit_signature(a.copy())

    def test_noise_fingerprint_is_content_based(self):
        assert noise_model_fingerprint(None) is None
        assert (noise_model_fingerprint(FakeBrisbane(5).to_noise_model())
                == noise_fingerprint_twin())
        assert (noise_model_fingerprint(depolarizing_model())
                != noise_model_fingerprint(FakeBrisbane(5).to_noise_model()))

    def test_default_compiler_is_process_shared(self):
        assert default_compiler() is default_compiler()

    def test_compiler_pickles_without_its_cache(self):
        import pickle

        compiler = CircuitCompiler(max_entries=7, max_bytes=1 << 20)
        compiler.fused_unitary(random_circuit(num_qubits=2, depth=3, seed=0))
        clone = pickle.loads(pickle.dumps(compiler))
        assert clone.max_entries == 7
        assert clone.max_bytes == 1 << 20
        assert clone.cache_size() == 0


def noise_fingerprint_twin():
    return noise_model_fingerprint(FakeBrisbane(5).to_noise_model())


class TestNoiseModelCaches:
    def test_error_resolution_is_cached_per_gate_name_and_arity(self):
        model = depolarizing_model()
        from repro.quantum.circuit import Instruction

        first = model.error_for_instruction(Instruction(name="h", qubits=(0,)))
        again = model.error_for_instruction(Instruction(name="h", qubits=(2,)))
        assert again is first
        assert model.superoperator_for("h", 1) is first.superoperator

    def test_builder_methods_invalidate_the_caches(self):
        model = depolarizing_model()
        assert model.superoperator_for("h", 1) is not None
        fingerprint = model.fingerprint()
        replacement = QuantumError.from_kraus(depolarizing_kraus(0.5))
        model.add_gate_error("h", replacement)
        assert model.superoperator_for("h", 1) is replacement.superoperator
        assert model.fingerprint() != fingerprint
