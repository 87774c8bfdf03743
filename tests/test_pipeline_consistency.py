"""Cross-layer consistency tests.

These tests tie the layers together in ways the unit suites do not: the gate-level
circuits must produce the same SWAP-test statistics as the abstract ones, and the
detector's scores must be invariant to implementation details that should not
matter (sample order, engine choice without shot noise).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.algorithms.autoencoder import analytic_swap_test_p1, build_autoencoder_circuit
from repro.core.detector import QuorumDetector
from repro.core.ensemble import batch_amplitudes
from repro.data.datasets import make_gaussian_anomaly_dataset
from repro.quantum.simulator import DensityMatrixSimulator


def toy_dataset(seed=0):
    return make_gaussian_anomaly_dataset(
        name="consistency", num_samples=50, num_anomalies=5, num_features=9,
        num_clusters=1, separation=5.0, anomaly_spread=1.5, seed=seed,
    )


class TestGateLevelCircuits:
    @given(seed=st.integers(min_value=0, max_value=100),
           level=st.integers(min_value=1, max_value=2))
    @settings(max_examples=8, deadline=None)
    def test_gate_level_quorum_circuit_preserves_swap_statistics(self, seed,
                                                                  level):
        rng = np.random.default_rng(seed)
        amplitudes = batch_amplitudes(
            rng.uniform(0, 1 / np.sqrt(7), size=(1, 7)), 3)[0]
        ansatz = RandomAutoencoderAnsatz(3, seed=seed)
        circuit = build_autoencoder_circuit(amplitudes, ansatz, level,
                                            gate_level_encoding=True, measure=False)
        expected = analytic_swap_test_p1(amplitudes, ansatz, level)
        simulated = DensityMatrixSimulator().evolve(circuit)
        assert simulated.probability_of_outcome(6, 1) == pytest.approx(expected,
                                                                       abs=1e-12)


class TestDetectorInvariances:
    def test_scores_do_not_depend_on_sample_order(self):
        dataset = toy_dataset()
        detector = QuorumDetector(ensemble_groups=6, shots=None, seed=3)
        scores = detector.fit(dataset).anomaly_scores()

        permutation = np.random.default_rng(0).permutation(dataset.num_samples)
        permuted = dataset.subset(permutation)
        permuted_scores = QuorumDetector(ensemble_groups=6, shots=None, seed=3).fit(
            permuted).anomaly_scores()
        # The two runs see different row orders, so per-sample scores differ in
        # detail (buckets shuffle), but the overall score distribution must be
        # statistically indistinguishable.
        assert np.isclose(scores.mean(), permuted_scores.mean(), rtol=0.15)
        assert np.isclose(scores.std(), permuted_scores.std(), rtol=0.3)

    def test_anomalies_rank_high_under_both_exact_engines(self):
        dataset = toy_dataset()
        analytic = QuorumDetector(ensemble_groups=4, shots=None, seed=5).fit(dataset)
        # Gate-level preparation folds the full circuit: an independent check
        # of the analytic kernel, which noiseless `initialize` runs share.
        circuit_level = QuorumDetector(ensemble_groups=4, shots=None, seed=5,
                                       backend="density_matrix",
                                       gate_level_encoding=True).fit(dataset)
        assert np.max(np.abs(analytic.anomaly_scores()
                             - circuit_level.anomaly_scores())) <= 1e-12

    def test_feature_scaling_modes_all_run(self):
        dataset = toy_dataset()
        for mode in ("circuit_sqrt", "dataset_sqrt", "dataset_linear"):
            detector = QuorumDetector(ensemble_groups=3, shots=None, seed=7,
                                      feature_scaling=mode)
            scores = detector.fit(dataset).anomaly_scores()
            assert scores.shape == (dataset.num_samples,)
            assert np.all(np.isfinite(scores))
