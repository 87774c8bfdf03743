"""Tests for the QuorumDetector facade (including end-to-end behaviour)."""

import numpy as np
import pytest

from repro.core.config import QuorumConfig
from repro.core.detector import QuorumDetector
from repro.data.datasets import make_gaussian_anomaly_dataset
from repro.metrics.classification import evaluate_top_k


def easy_dataset(seed=0):
    """A small, well separated dataset the detector must crack quickly."""
    return make_gaussian_anomaly_dataset(
        name="easy", num_samples=80, num_anomalies=6, num_features=10,
        num_clusters=1, separation=6.0, anomaly_spread=2.0, seed=seed,
    )


class TestConstruction:
    def test_default_construction(self):
        detector = QuorumDetector()
        assert detector.config.num_qubits == 3
        assert not detector.is_fitted

    def test_keyword_overrides(self):
        detector = QuorumDetector(ensemble_groups=7, seed=3)
        assert detector.config.ensemble_groups == 7

    def test_config_plus_overrides(self):
        config = QuorumConfig(ensemble_groups=5)
        detector = QuorumDetector(config, shots=128)
        assert detector.config.ensemble_groups == 5
        assert detector.config.shots == 128

    def test_repr_mentions_status(self):
        assert "unfitted" in repr(QuorumDetector())


class TestFitAndScores:
    def _detector(self, **overrides):
        defaults = {"ensemble_groups": 8, "shots": None, "seed": 1}
        defaults.update(overrides)
        return QuorumDetector(**defaults)

    def test_requires_fit_before_queries(self):
        detector = self._detector()
        with pytest.raises(RuntimeError):
            detector.anomaly_scores()
        with pytest.raises(RuntimeError):
            detector.detect(num_anomalies=1)

    def test_fit_on_dataset_and_matrix_agree(self):
        dataset = easy_dataset()
        from_dataset = self._detector().fit(dataset).anomaly_scores()
        from_matrix = self._detector().fit(dataset.data).anomaly_scores()
        assert np.allclose(from_dataset, from_matrix)

    def test_scores_shape_and_positivity(self):
        dataset = easy_dataset()
        scores = self._detector().fit(dataset).anomaly_scores()
        assert scores.shape == (dataset.num_samples,)
        assert np.all(scores >= 0.0)

    def test_detects_planted_anomalies(self):
        dataset = easy_dataset()
        detector = self._detector(ensemble_groups=15)
        detector.fit(dataset)
        report = evaluate_top_k(detector.anomaly_scores(), dataset.labels,
                                dataset.num_anomalies)
        assert report.recall >= 0.5

    def test_seed_reproducibility(self):
        dataset = easy_dataset()
        first = self._detector().fit(dataset).anomaly_scores()
        second = self._detector().fit(dataset).anomaly_scores()
        assert np.allclose(first, second)

    def test_detect_flag_counts(self):
        dataset = easy_dataset()
        detector = self._detector().fit(dataset)
        assert detector.detect(num_anomalies=4).sum() == 4
        assert detector.detect(contamination=0.1).sum() == 8
        # Default uses the config's anomaly-fraction estimate (5% of 80 = 4).
        assert detector.detect().sum() == 4

    def test_fit_detect_shortcut(self):
        dataset = easy_dataset()
        flags = self._detector().fit_detect(dataset, num_anomalies=6)
        assert flags.sum() == 6

    def test_ranking_is_consistent_with_scores(self):
        dataset = easy_dataset()
        detector = self._detector().fit(dataset)
        scores = detector.anomaly_scores()
        ranking = detector.ranking()
        assert scores[ranking[0]] == scores.max()

    def test_diagnostics_and_member_results(self):
        dataset = easy_dataset()
        detector = self._detector(ensemble_groups=4).fit(dataset)
        diagnostics = detector.diagnostics()
        assert diagnostics["ensemble_groups"] == 4
        assert diagnostics["num_samples"] == dataset.num_samples
        assert diagnostics["num_runs"] == 4 * 2
        assert len(detector.member_results()) == 4

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError):
            self._detector().fit(np.zeros(10))

    def test_statevector_backend_is_rejected(self):
        with pytest.raises(ValueError, match="analytic.*density_matrix"):
            QuorumConfig(backend="statevector")

    def test_density_matrix_backend_matches_analytic_without_shots(self):
        dataset = easy_dataset().subset(range(24))
        analytic = QuorumDetector(ensemble_groups=2, shots=None, seed=5).fit(dataset)
        circuit_level = QuorumDetector(ensemble_groups=2, shots=None, seed=5,
                                       backend="density_matrix",
                                       gate_level_encoding=True).fit(dataset)
        assert np.max(np.abs(analytic.anomaly_scores()
                             - circuit_level.anomaly_scores())) <= 1e-12
