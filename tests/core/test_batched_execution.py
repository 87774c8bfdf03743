"""Cross-validation of the batched engine paths against the per-sample paths.

The batched kernels must reproduce the per-sample full-circuit simulation to
float round-off on small registers: the analytic kernel behind noiseless
density-matrix runs, and the gate-level fold against the analytic engine.
"""

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.algorithms.autoencoder import build_autoencoder_circuit
from repro.core.config import QuorumConfig
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import AnalyticEngine, DensityMatrixEngine, make_engine
from repro.quantum.backend import NumpyBackend
from repro.quantum.simulator import DensityMatrixSimulator


def make_batch(num_samples=8, num_qubits=3, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                         size=(num_samples, 2 ** num_qubits - 1))
    return batch_amplitudes(values, num_qubits)


class TestBatchedDensityMatrixEngine:
    @pytest.mark.parametrize("num_qubits,level", [(2, 1), (2, 2), (3, 1),
                                                  (3, 2), (3, 3)])
    def test_matches_analytic_engine(self, num_qubits, level):
        ansatz = RandomAutoencoderAnsatz(num_qubits, seed=21)
        batch = make_batch(num_samples=6, num_qubits=num_qubits, seed=1)
        analytic = AnalyticEngine(shots=None).p1_batch(batch, ansatz, level)
        folded = DensityMatrixEngine(
            shots=None, gate_level_encoding=True).p1_batch(batch, ansatz, level)
        assert np.max(np.abs(analytic - folded)) <= 1e-12

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_matches_per_sample_circuit_path(self, level):
        """Noiseless runs (the analytic kernel) == full 2n+1-qubit circuit,
        per sample."""
        ansatz = RandomAutoencoderAnsatz(3, seed=22)
        batch = make_batch(num_samples=5, seed=2)
        batched = DensityMatrixEngine(shots=None).p1_batch(batch, ansatz, level)
        simulator = DensityMatrixSimulator()
        circuit_level = [
            simulator.evolve(build_autoencoder_circuit(
                row, ansatz, level, measure=False)).probability_of_outcome(6, 1)
            for row in batch
        ]
        assert np.allclose(batched, circuit_level, atol=1e-12)

    def test_noisy_runs_use_the_circuit_path(self):
        from repro.quantum.backends import FakeBrisbane

        ansatz = RandomAutoencoderAnsatz(2, seed=23)
        batch = make_batch(num_samples=2, num_qubits=2, seed=3)
        noisy = DensityMatrixEngine(
            shots=None, noise_model=FakeBrisbane(5).to_noise_model(),
            gate_level_encoding=True,
        ).p1_batch(batch, ansatz, 1)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        # Noise must actually perturb the outcome (i.e. the noisy path ran).
        assert not np.allclose(noisy, exact, atol=1e-12)
        assert np.max(np.abs(noisy - exact)) < 0.15

    def test_shot_noise_still_applied(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=24)
        batch = make_batch(num_samples=10, seed=4)
        exact = DensityMatrixEngine(shots=None).p1_batch(batch, ansatz, 1)
        sampled = DensityMatrixEngine(
            shots=128, rng=np.random.default_rng(0)
        ).p1_batch(batch, ansatz, 1)
        assert not np.allclose(exact, sampled)
        assert np.all(sampled * 128 == np.round(sampled * 128))


class TestEntanglementLayouts:
    @pytest.mark.parametrize("num_qubits", [2, 3])
    @pytest.mark.parametrize("entanglement", ["linear", "ring", "full"])
    def test_engines_agree_with_the_per_sample_circuit(self, entanglement,
                                                        num_qubits):
        """Every level of every layout: the noiseless density-matrix run is
        the analytic kernel, and both it and the gate-level fold match the
        full ``2n+1``-qubit circuit per sample."""
        ansatz = RandomAutoencoderAnsatz(num_qubits, entanglement=entanglement,
                                         seed=25)
        batch = make_batch(num_samples=3, num_qubits=num_qubits, seed=6)
        levels = list(range(num_qubits + 1))
        analytic = AnalyticEngine(shots=None).p1_levels_batch(batch, ansatz,
                                                              levels)
        noiseless = DensityMatrixEngine(shots=None).p1_levels_batch(
            batch, ansatz, levels)
        folded = DensityMatrixEngine(
            shots=None, gate_level_encoding=True).p1_levels_batch(
                batch, ansatz, levels)
        simulator = DensityMatrixSimulator()
        circuit_level = np.array([
            [simulator.evolve(build_autoencoder_circuit(
                row, ansatz, level, measure=False)).probability_of_outcome(
                    2 * num_qubits, 1) for row in batch]
            for level in levels])
        assert np.array_equal(noiseless, analytic)
        assert np.max(np.abs(folded - circuit_level)) <= 1e-12
        assert np.max(np.abs(analytic - circuit_level)) <= 1e-12


class TestNormalizationGuard:
    @pytest.mark.parametrize("engine_factory", [
        lambda: AnalyticEngine(shots=None),
        lambda: DensityMatrixEngine(shots=None),
        lambda: DensityMatrixEngine(shots=None, gate_level_encoding=True),
    ])
    def test_unnormalized_amplitudes_rejected(self, engine_factory):
        """The batched paths fail as loudly as circuit `initialize` used to."""
        ansatz = RandomAutoencoderAnsatz(3, seed=41)
        batch = make_batch(num_samples=3, seed=16) * 2.0
        with pytest.raises(ValueError, match="normalized"):
            engine_factory().p1_batch(batch, ansatz, 1)


class TestAnsatzUnitaryCache:
    def test_encoder_unitary_is_cached_and_read_only(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=30)
        first = ansatz.encoder_unitary()
        assert ansatz.encoder_unitary() is first
        with pytest.raises(ValueError):
            first[0, 0] = 0.0

    def test_cache_matches_circuit_unitary(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=31)
        cached = ansatz.encoder_unitary()
        rebuilt = ansatz.encoder_circuit(list(range(3))).to_unitary()
        assert np.allclose(cached, rebuilt, atol=1e-10)

    def test_fresh_angles_get_a_fresh_cache(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=32)
        other = ansatz.with_new_angles(seed=33)
        assert not np.allclose(ansatz.encoder_unitary(), other.encoder_unitary())


class TestBackendSelectionThreading:
    def test_engines_accept_backend_name_and_instance(self):
        backend = NumpyBackend()
        for name in ("analytic", "density_matrix"):
            by_name = make_engine(name, 128, simulation_backend="numpy")
            assert by_name.backend.name == "numpy"
            by_instance = make_engine(name, 128, simulation_backend=backend)
            assert by_instance.backend is backend

    def test_unknown_simulation_backend_raises(self):
        with pytest.raises(ValueError):
            make_engine("analytic", 128, simulation_backend="gpu")

    def test_config_validates_simulation_backend(self):
        config = QuorumConfig(simulation_backend="numpy")
        assert config.describe()["simulation_backend"] == "numpy"
        with pytest.raises(ValueError):
            QuorumConfig(simulation_backend="cupy")

    def test_detector_runs_with_explicit_simulation_backend(self):
        from repro.core.detector import QuorumDetector

        rng = np.random.default_rng(13)
        data = rng.uniform(0.0, 1.0, size=(24, 6))
        detector = QuorumDetector(ensemble_groups=2, shots=None, seed=5,
                                  simulation_backend="numpy")
        scores = detector.fit(data).anomaly_scores()
        assert scores.shape == (24,)
