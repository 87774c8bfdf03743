"""Regression suite for the folded noisy density-matrix engine.

`DensityMatrixEngine` folds a circuit-level run into a batched ``n``-qubit
state preparation plus one compiled observable per (member, level).  It must
be indistinguishable from the per-sample oracle
(`DensityMatrixSimulator.evolve` on the full ``2n+1``-qubit circuit, selected
with ``compile_circuits=False``) to 1e-12 across noise models,
``gate_level_encoding``, register sizes and every compression level.  A row's
result must not depend on the rest of its batch, bitwise, and a noise model
the fold cannot trust (not gate-local) must fall back to the oracle, counted.
"""

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import AnalyticEngine, DensityMatrixEngine
from repro.encoding.amplitude import state_preparation_circuit
from repro.quantum.backends import FakeBrisbane
from repro.quantum.compiler import CircuitCompiler
from repro.quantum.noise import NoiseModel, QuantumError, depolarizing_kraus
from repro.quantum.simulator import DensityMatrixSimulator


def make_batch(num_samples=6, num_qubits=2, seed=0, sparse_rows=(1,)):
    """Random rows; ``sparse_rows`` put all mass on the overflow state, which
    elides several preparation rotations in those rows only."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                         size=(num_samples, 2 ** num_qubits - 1))
    values[list(sparse_rows)] = 0.0
    return batch_amplitudes(values, num_qubits)


def depolarizing_model():
    """A second noise-model flavour besides FakeBrisbane (gate errors only)."""
    return (
        NoiseModel()
        .add_all_single_qubit_error(QuantumError.from_kraus(
            depolarizing_kraus(0.01)))
        .add_all_two_qubit_error(QuantumError.from_kraus(
            depolarizing_kraus(0.03, 2)))
    )


NOISE_MODELS = {
    "brisbane": lambda total_qubits: FakeBrisbane(total_qubits).to_noise_model(),
    "depolarizing": lambda total_qubits: depolarizing_model(),
    "noiseless": lambda total_qubits: None,
}


class QubitDependentNoise(NoiseModel):
    """Depolarizing noise on qubit 0 only: the error depends on the qubits a
    gate acts on, so registers A and B no longer see the same channel."""

    def __init__(self):
        super().__init__()
        self._qubit_zero = QuantumError.from_kraus(depolarizing_kraus(0.2))

    def error_for_instruction(self, instruction):
        if instruction.is_unitary and instruction.qubits == (0,):
            return self._qubit_zero
        return None


def engines(noise, gate_level=True, backend="numpy", compiler=None):
    kwargs = dict(shots=None, noise_model=noise, gate_level_encoding=gate_level,
                  simulation_backend=backend)
    folded = DensityMatrixEngine(compiler=compiler or CircuitCompiler(),
                                 **kwargs)
    return folded, DensityMatrixEngine(compile_circuits=False, **kwargs)


class TestFoldAgainstOracle:
    @pytest.mark.parametrize("num_qubits", [2, 3])
    @pytest.mark.parametrize("noise_name,gate_level", [
        ("brisbane", True), ("brisbane", False), ("depolarizing", True),
        ("depolarizing", False), ("noiseless", True),
    ])
    def test_matches_per_sample_oracle(self, num_qubits, noise_name,
                                       gate_level):
        """Every folded combination (noiseless ``initialize`` runs take the
        register-A path instead)."""
        noise = NOISE_MODELS[noise_name](2 * num_qubits + 1)
        ansatz = RandomAutoencoderAnsatz(num_qubits, seed=41)
        batch = make_batch(num_samples=4, num_qubits=num_qubits, seed=1)
        folded, oracle = engines(noise, gate_level)
        levels = list(range(num_qubits + 1))
        result = folded.p1_levels_batch(batch, ansatz, levels)
        assert result.shape == (len(levels), batch.shape[0])
        assert np.max(np.abs(result - oracle.p1_levels_batch(
            batch, ansatz, levels))) <= 1e-12

    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_float32_backend_meets_single_precision(self, num_qubits):
        ansatz = RandomAutoencoderAnsatz(num_qubits, seed=42)
        batch = make_batch(num_samples=4, num_qubits=num_qubits, seed=2)
        noise = FakeBrisbane(2 * num_qubits + 1).to_noise_model()
        folded, _ = engines(noise, backend="numpy-float32")
        _, oracle = engines(noise)
        levels = list(range(num_qubits + 1))
        assert np.allclose(folded.p1_levels_batch(batch, ansatz, levels),
                           oracle.p1_levels_batch(batch, ansatz, levels),
                           atol=5e-5)

    def test_narrow_gate_error_acts_on_the_leading_qubit(self):
        """A one-qubit error registered for ``cx`` follows the gate on its
        control qubit, as in the per-sample simulator."""
        noise = NoiseModel().add_gate_error(
            "cx", QuantumError.from_kraus(depolarizing_kraus(0.1)))
        assert noise.is_gate_local()
        ansatz = RandomAutoencoderAnsatz(2, seed=43)
        batch = make_batch(num_samples=4, seed=3)
        folded, oracle = engines(noise)
        assert np.max(np.abs(folded.p1_levels_batch(batch, ansatz, [0, 1, 2])
                             - oracle.p1_levels_batch(batch, ansatz,
                                                      [0, 1, 2]))) <= 1e-12

    def test_mixed_validity_sweep_is_rejected_up_front(self):
        """Every level of a sweep is validated, not just the first one."""
        ansatz = RandomAutoencoderAnsatz(2, seed=44)
        batch = make_batch(seed=4)
        folded, _ = engines(FakeBrisbane(5).to_noise_model())
        with pytest.raises(ValueError, match="compression level"):
            folded.p1_levels_batch(batch, ansatz, [1, 7])
        with pytest.raises(ValueError, match="compression level"):
            folded.p1_levels_batch(batch, ansatz, [1, -1])
        with pytest.raises(ValueError, match="normalized"):
            folded.p1_levels_batch(batch * 2.0, ansatz, [1, 2])


class TestRowIndependence:
    @pytest.mark.parametrize("backend", ["numpy", "numpy-float32"])
    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_rows_are_bitwise_independent_of_the_batch(self, backend,
                                                       num_qubits):
        """Fit <-> replay stays bitwise: a row scored alone, in a slice, or
        in the whole batch gets the same bits, for any level sweep."""
        ansatz = RandomAutoencoderAnsatz(num_qubits, seed=45)
        batch = make_batch(num_samples=9, num_qubits=num_qubits, seed=6,
                           sparse_rows=(0, 4))
        noise = FakeBrisbane(2 * num_qubits + 1).to_noise_model()
        folded, _ = engines(noise, backend=backend)
        whole = folded.p1_levels_batch(batch, ansatz, [1, 2])
        alone = np.stack([folded.p1_levels_batch(batch[i:i + 1], ansatz,
                                                 [1, 2])[:, 0]
                          for i in range(batch.shape[0])], axis=1)
        assert np.array_equal(whole, alone)
        assert np.array_equal(whole[:, 3:7],
                              folded.p1_levels_batch(batch[3:7], ansatz,
                                                     [1, 2]))
        assert np.array_equal(whole[1],
                              folded.p1_levels_batch(batch, ansatz, [2])[0])


class TestGateLocality:
    def test_brisbane_and_depolarizing_models_are_gate_local(self):
        assert FakeBrisbane(7).to_noise_model().is_gate_local()
        assert depolarizing_model().is_gate_local()
        assert NoiseModel().is_gate_local()

    def test_qubit_dependent_and_wide_errors_are_not(self):
        assert not QubitDependentNoise().is_gate_local()
        wide = NoiseModel().add_gate_error(
            "h", QuantumError.from_kraus(depolarizing_kraus(0.1, 2)))
        assert not wide.is_gate_local()

    def test_non_local_model_falls_back_to_the_oracle_counted(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=46)
        batch = make_batch(num_samples=3, seed=7)
        compiler = CircuitCompiler()
        folded, oracle = engines(QubitDependentNoise(), compiler=compiler)
        result = folded.p1_levels_batch(batch, ansatz, [0, 1, 2])
        assert np.array_equal(result,
                              oracle.p1_levels_batch(batch, ansatz, [0, 1, 2]))
        assert compiler.stats.fallbacks == 1
        assert compiler.stats.compiles == 0
        # The fold would have given a different answer: qubit 0 of register
        # A is noisy while register B is not.
        local = DensityMatrixEngine(shots=None, gate_level_encoding=True,
                                    noise_model=NoiseModel(),
                                    compiler=CircuitCompiler())
        assert not np.allclose(result,
                               local.p1_levels_batch(batch, ansatz, [0, 1, 2]),
                               atol=1e-6)


class TestCompileCounters:
    def test_one_observable_per_member_and_level(self):
        compiler = CircuitCompiler()
        noise = FakeBrisbane(7).to_noise_model()
        folded, _ = engines(noise, compiler=compiler)
        batch = make_batch(num_samples=5, num_qubits=3, seed=8)
        members = [RandomAutoencoderAnsatz(3, seed=seed) for seed in (1, 2)]
        for ansatz in members:
            folded.p1_levels_batch(batch, ansatz, [1, 2])
        assert compiler.stats.compiles == len(members) * 2
        assert compiler.stats.fallbacks == 0
        # New rows reuse the cached observables: the angles of the data never
        # reach a compiled program.
        for ansatz in members:
            folded.p1_levels_batch(make_batch(num_samples=1, num_qubits=3,
                                              seed=9, sparse_rows=()),
                                   ansatz, [1, 2])
        assert compiler.stats.compiles == len(members) * 2
        assert compiler.stats.hits == len(members) * 2


class TestShotNoise:
    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    def test_sweep_draws_the_per_level_stream_bitwise(self, noise_name):
        """One binomial call over the ``(levels, samples)`` array consumes
        the stream in the level-major order of one call per level, so a
        fixed-seed score does not depend on how its sweep is split."""
        ansatz = RandomAutoencoderAnsatz(2, seed=47)
        batch = make_batch(seed=10)
        noise = NOISE_MODELS[noise_name](5)
        levels = [0, 1, 2]

        def engine(shots):
            return DensityMatrixEngine(shots=shots, noise_model=noise,
                                       gate_level_encoding=True,
                                       rng=np.random.default_rng(11),
                                       compiler=CircuitCompiler())

        swept = engine(2048).p1_levels_batch(batch, ansatz, levels)
        looped_engine = engine(2048)
        looped = np.stack([looped_engine.p1_batch(batch, ansatz, level)
                           for level in levels])
        assert np.array_equal(swept, looped)
        assert np.array_equal(swept * 2048, np.round(swept * 2048))
        # 2048 shots put one standard deviation at most ~0.011.
        exact = engine(None).p1_levels_batch(batch, ansatz, levels)
        assert np.max(np.abs(swept - exact)) < 0.06


class TestNoiselessFold:
    @pytest.mark.parametrize("num_qubits,level", [
        (2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3),
    ])
    def test_gate_level_fold_equals_the_exact_paths(self, num_qubits, level):
        """Without noise the Mottonen preparation is exact, so the folded
        gate-level circuit gives the register-A ``initialize`` path's and
        the analytic engine's probabilities at every level."""
        ansatz = RandomAutoencoderAnsatz(num_qubits, seed=48)
        batch = make_batch(num_samples=5, num_qubits=num_qubits, seed=11)
        folded = DensityMatrixEngine(shots=None, gate_level_encoding=True,
                                     compiler=CircuitCompiler())
        register_a = DensityMatrixEngine(shots=None)
        analytic = AnalyticEngine(shots=None)
        result = folded.p1_batch(batch, ansatz, level)
        assert np.max(np.abs(result - register_a.p1_batch(
            batch, ansatz, level))) <= 1e-12
        assert np.max(np.abs(result - analytic.p1_batch(
            batch, ansatz, level))) <= 1e-12

    def test_noiseless_initialize_runs_never_compile(self):
        compiler = CircuitCompiler()
        engine = DensityMatrixEngine(shots=None, compiler=compiler)
        engine.p1_levels_batch(make_batch(seed=12),
                               RandomAutoencoderAnsatz(2, seed=49), [0, 1, 2])
        assert compiler.stats.compiles == 0
        assert compiler.stats.fallbacks == 0
        assert compiler.cache_size() == 0


class TestPreparedDensities:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_noiseless_preparation_is_the_exact_projector(self, num_qubits):
        batch = make_batch(num_samples=5, num_qubits=num_qubits, seed=13)
        engine = DensityMatrixEngine(shots=None, gate_level_encoding=True)
        rhos = engine._prepared_densities(batch)
        assert rhos.shape == (5, 2 ** num_qubits, 2 ** num_qubits)
        expected = np.einsum("si,sj->sij", batch, batch)
        assert np.max(np.abs(rhos - expected)) <= 1e-12

    @pytest.mark.parametrize("backend,tolerance", [
        ("numpy", 1e-12), ("numpy-float32", 5e-6),
    ])
    @pytest.mark.parametrize("num_qubits", [2, 3])
    def test_noisy_preparation_matches_the_simulator(self, num_qubits,
                                                     backend, tolerance):
        """Step (a) alone: each row's fused, noisy preparation is the
        simulator's evolution of that row's preparation circuit, elided
        rotations included, and a valid density matrix."""
        noise = FakeBrisbane(2 * num_qubits + 1).to_noise_model()
        batch = make_batch(num_samples=4, num_qubits=num_qubits, seed=14)
        engine = DensityMatrixEngine(shots=None, noise_model=noise,
                                     gate_level_encoding=True,
                                     simulation_backend=backend)
        rhos = engine._prepared_densities(batch)
        simulator = DensityMatrixSimulator(noise_model=noise)
        for row, rho in zip(batch, rhos):
            expected = simulator.evolve(state_preparation_circuit(row)).data
            assert np.max(np.abs(rho - expected)) <= tolerance
            assert np.max(np.abs(rho - rho.conj().T)) <= tolerance
            assert abs(np.trace(rho) - 1.0) <= tolerance
            assert np.min(np.linalg.eigvalsh(rho)) >= -tolerance


class TestLevelKernels:
    @pytest.mark.parametrize("num_qubits", [2, 3])
    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    def test_level_observables_are_measurement_effects(self, noise_name,
                                                       num_qubits):
        """The ancilla-|0> block ``M`` behind each level's kernel is the
        pulled-back projector of a quantum channel: Hermitian, with every
        eigenvalue in [0, 1], and compiled once per level."""
        noise = NOISE_MODELS[noise_name](2 * num_qubits + 1)
        compiler = CircuitCompiler()
        folded, _ = engines(noise, compiler=compiler)
        ansatz = RandomAutoencoderAnsatz(num_qubits, seed=50)
        dim = 2 ** num_qubits
        for level in range(num_qubits + 1):
            kernel = folded._level_kernel(ansatz, level)
            assert kernel.shape == (dim * dim, dim * dim)
            # K[(b,B),(a,A)] = conj(M)[(b,a),(B,A)]; the transpose is its
            # own inverse.
            block = np.conj(kernel.reshape(dim, dim, dim, dim)
                            .transpose(0, 2, 1, 3).reshape(dim * dim,
                                                           dim * dim))
            assert np.max(np.abs(block - block.conj().T)) <= 1e-12
            eigenvalues = np.linalg.eigvalsh(block)
            assert eigenvalues.min() >= -1e-12
            assert eigenvalues.max() <= 1.0 + 1e-12
        assert compiler.stats.compiles == num_qubits + 1


class TestLevelSweeps:
    @pytest.mark.parametrize("levels", [(2, 0, 1), (1, 2), (0, 0, 2)])
    def test_level_order_does_not_change_bits(self, levels):
        """A level's row is the same bits whichever sweep asks for it."""
        ansatz = RandomAutoencoderAnsatz(2, seed=51)
        batch = make_batch(seed=15)
        folded, _ = engines(FakeBrisbane(5).to_noise_model())
        whole = folded.p1_levels_batch(batch, ansatz, [0, 1, 2])
        assert np.array_equal(folded.p1_levels_batch(batch, ansatz, levels),
                              whole[list(levels)])


class TestFallbackCounting:
    def test_every_fallback_sweep_is_counted(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=52)
        batch = make_batch(num_samples=2, seed=16)
        compiler = CircuitCompiler()
        folded, _ = engines(QubitDependentNoise(), compiler=compiler)
        for calls in (1, 2, 3):
            folded.p1_levels_batch(batch, ansatz, [1])
            assert compiler.stats.fallbacks == calls
        assert compiler.stats.compiles == 0

    def test_the_requested_oracle_is_not_a_fallback(self):
        """``compile_circuits=False`` selects the oracle on purpose; only a
        fold that could not run counts as a fallback."""
        compiler = CircuitCompiler()
        engine = DensityMatrixEngine(
            shots=None, noise_model=FakeBrisbane(5).to_noise_model(),
            gate_level_encoding=True, compile_circuits=False,
            compiler=compiler)
        engine.p1_levels_batch(make_batch(num_samples=2, seed=17),
                               RandomAutoencoderAnsatz(2, seed=53), [1, 2])
        assert compiler.stats.fallbacks == 0
        assert compiler.stats.compiles == 0
