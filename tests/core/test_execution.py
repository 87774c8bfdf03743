"""Tests for the SWAP-test execution engines (and their cross-validation)."""

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz, encoder_unitaries
from repro.core.ensemble import batch_amplitudes, exact_chunk_p1
from repro.core.execution import AnalyticEngine, DensityMatrixEngine, make_engine
from repro.quantum.backends import FakeBrisbane


def make_batch(num_samples=8, num_qubits=3, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                         size=(num_samples, 2 ** num_qubits - 1))
    return batch_amplitudes(values, num_qubits)


class TestAnalyticEngine:
    def test_exact_probabilities_in_range(self):
        engine = AnalyticEngine(shots=None)
        ansatz = RandomAutoencoderAnsatz(3, seed=1)
        p1 = engine.p1_batch(make_batch(), ansatz, 1)
        assert p1.shape == (8,)
        assert np.all(p1 >= 0.0)
        assert np.all(p1 <= 0.5 + 1e-12)

    def test_zero_compression_gives_zero(self):
        engine = AnalyticEngine(shots=None)
        ansatz = RandomAutoencoderAnsatz(3, seed=2)
        assert np.allclose(engine.p1_batch(make_batch(), ansatz, 0), 0.0)

    def test_shot_noise_changes_values_but_not_scale(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=3)
        batch = make_batch()
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 2)
        noisy = AnalyticEngine(shots=256,
                               rng=np.random.default_rng(0)).p1_batch(batch, ansatz, 2)
        assert not np.allclose(exact, noisy)
        assert np.max(np.abs(exact - noisy)) < 0.15

    def test_shot_noise_shrinks_with_more_shots(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=4)
        batch = make_batch(num_samples=40)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        few = AnalyticEngine(shots=64, rng=np.random.default_rng(1)).p1_batch(
            batch, ansatz, 1)
        many = AnalyticEngine(shots=8192, rng=np.random.default_rng(1)).p1_batch(
            batch, ansatz, 1)
        assert np.mean(np.abs(many - exact)) < np.mean(np.abs(few - exact))

    def test_single_sample_helper(self):
        engine = AnalyticEngine(shots=None)
        ansatz = RandomAutoencoderAnsatz(3, seed=5)
        batch = make_batch(num_samples=1)
        assert engine.p1_single(batch[0], ansatz, 1) == pytest.approx(
            engine.p1_batch(batch, ansatz, 1)[0])

    def test_rejects_bad_shapes(self):
        engine = AnalyticEngine(shots=None)
        ansatz = RandomAutoencoderAnsatz(3, seed=6)
        with pytest.raises(ValueError):
            engine.p1_batch(np.ones(8), ansatz, 1)
        with pytest.raises(ValueError):
            engine.p1_batch(np.ones((4, 4)), ansatz, 1)
        with pytest.raises(ValueError):
            engine.p1_batch(make_batch(), ansatz, 5)

    def test_invalid_shots_raise(self):
        with pytest.raises(ValueError):
            AnalyticEngine(shots=0)


class TestEngineCrossValidation:
    """Analytic runs against the gate-level fold, which does not go through
    the analytic kernel."""

    def test_analytic_matches_density_matrix(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=7)
        batch = make_batch(num_samples=4, seed=2)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        circuit_level = DensityMatrixEngine(
            shots=None, gate_level_encoding=True).p1_batch(batch, ansatz, 1)
        assert np.max(np.abs(exact - circuit_level)) <= 1e-12

    def test_analytic_matches_density_matrix_full_compression(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=8)
        batch = make_batch(num_samples=3, num_qubits=2, seed=3)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 2)
        circuit_level = DensityMatrixEngine(
            shots=None, gate_level_encoding=True).p1_batch(batch, ansatz, 2)
        assert np.max(np.abs(exact - circuit_level)) <= 1e-12

    def test_noiseless_density_matrix_chunk_is_bitwise_the_analytic_stack(self):
        ansatzes = [RandomAutoencoderAnsatz(3, seed=seed) for seed in (13, 14)]
        amplitudes = np.stack([make_batch(num_samples=5, seed=seed)
                               for seed in (7, 8)])
        levels = [0, 1, 2]
        analytic = AnalyticEngine(shots=None).exact_levels_stack(
            amplitudes, encoder_unitaries(ansatzes), levels)
        engine = DensityMatrixEngine(shots=None)
        assert engine.analytic
        assert np.array_equal(
            exact_chunk_p1(engine, amplitudes, ansatzes, levels), analytic)
        for member, ansatz in enumerate(ansatzes):
            assert np.array_equal(
                engine.p1_levels_batch(amplitudes[member], ansatz, levels),
                analytic[member])

    def test_noisy_engine_stays_close_to_ideal(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=10)
        batch = make_batch(num_samples=3, seed=5)
        exact = AnalyticEngine(shots=None).p1_batch(batch, ansatz, 1)
        noisy = DensityMatrixEngine(
            shots=None, noise_model=FakeBrisbane(7).to_noise_model(),
            gate_level_encoding=True,
        ).p1_batch(batch, ansatz, 1)
        assert np.max(np.abs(exact - noisy)) < 0.12


class TestMakeEngine:
    def test_analytic(self):
        assert isinstance(make_engine("analytic", 1024), AnalyticEngine)

    def test_density_matrix_with_noise(self):
        engine = make_engine("density_matrix", 1024, noisy=True)
        assert isinstance(engine, DensityMatrixEngine)
        assert engine.noise_model is not None
        assert engine.gate_level_encoding

    def test_analytic_cannot_be_noisy(self):
        with pytest.raises(ValueError):
            make_engine("analytic", 1024, noisy=True)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError):
            make_engine("tensor_network", 1024)
