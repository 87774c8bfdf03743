"""End-to-end integration tests spanning the whole pipeline.

These tests exercise the public API exactly the way the examples and the paper's
evaluation do: load a dataset, run Quorum, compare against baselines, and check the
qualitative claims (at a reduced, fast scale).
"""

import numpy as np

from repro import (
    QuorumDetector,
    detection_rate_curve,
    evaluate_top_k,
    load_dataset,
)
from repro.baselines import IsolationForestDetector, QNNClassifier
from repro.data.preprocessing import preprocess_records


class TestPublicApi:
    def test_version_and_exports(self):
        import repro

        assert repro.__version__
        assert "QuorumDetector" in repro.__all__

    def test_quickstart_flow(self):
        dataset = load_dataset("power_plant", seed=3).subset(range(150))
        detector = QuorumDetector(ensemble_groups=10, shots=None, seed=2,
                                  anomaly_fraction_estimate=0.05)
        detector.fit(dataset)
        flags = detector.detect(num_anomalies=dataset.num_anomalies)
        report = evaluate_top_k(detector.anomaly_scores(), dataset.labels,
                                dataset.num_anomalies)
        assert flags.sum() == dataset.num_anomalies
        assert report.f1 > 0.3


class TestPaperClaimsAtSmallScale:
    def test_quorum_separates_breast_cancer_surrogate(self):
        dataset = load_dataset("breast_cancer", seed=0)
        detector = QuorumDetector(ensemble_groups=25, shots=4096, seed=1,
                                  bucket_probability=0.75,
                                  anomaly_fraction_estimate=10 / 367)
        detector.fit(dataset)
        curve = detection_rate_curve(detector.anomaly_scores(), dataset.labels)
        # Paper: ~80%+ of anomalies within the top 10% of scores.
        assert curve.rate_at(0.10) >= 0.6

    def test_quorum_beats_untrained_guess_on_every_dataset(self):
        for name in ("breast_cancer", "power_plant"):
            dataset = load_dataset(name, seed=0)
            detector = QuorumDetector(ensemble_groups=15, shots=None, seed=4)
            detector.fit(dataset)
            report = evaluate_top_k(detector.anomaly_scores(), dataset.labels,
                                    dataset.num_anomalies)
            assert report.f1 > 2 * dataset.anomaly_fraction

    def test_shot_noise_resilience(self):
        dataset = load_dataset("power_plant", seed=0).subset(range(300))
        exact = QuorumDetector(ensemble_groups=12, shots=None, seed=6).fit(dataset)
        shots = QuorumDetector(ensemble_groups=12, shots=1024, seed=6).fit(dataset)
        exact_curve = detection_rate_curve(exact.anomaly_scores(), dataset.labels)
        shots_curve = detection_rate_curve(shots.anomaly_scores(), dataset.labels)
        assert abs(exact_curve.rate_at(0.2) - shots_curve.rate_at(0.2)) <= 0.35

    def test_quorum_competitive_with_isolation_forest_on_easy_data(self):
        dataset = load_dataset("power_plant", seed=0).subset(range(250))
        quorum = QuorumDetector(ensemble_groups=15, shots=None, seed=7).fit(dataset)
        forest_scores = IsolationForestDetector(num_trees=50, seed=7).fit_scores(
            dataset.data)
        quorum_report = evaluate_top_k(quorum.anomaly_scores(), dataset.labels,
                                       dataset.num_anomalies)
        forest_report = evaluate_top_k(forest_scores, dataset.labels,
                                       dataset.num_anomalies)
        assert quorum_report.f1 >= forest_report.f1 - 0.35

    def test_supervised_qnn_is_conservative(self):
        dataset = load_dataset("breast_cancer", seed=0)
        qnn = QNNClassifier(epochs=20, seed=3)
        qnn.fit(dataset.data, dataset.labels)
        predictions = qnn.predict(dataset.data)
        # The supervised baseline flags no more samples than twice the true
        # anomaly count -- the "overly conservative" behaviour the paper reports.
        assert predictions.sum() <= 2 * dataset.num_anomalies


class TestCustomDataFlow:
    def test_record_pipeline_feeds_detector(self):
        rng = np.random.default_rng(0)
        records = []
        for index in range(60):
            records.append({
                "amount": float(rng.normal(50, 5)),
                "merchant": "grocer" if index % 2 else "pharmacy",
                "is_fraud": 0,
            })
        for _ in range(4):
            records.append({
                "amount": float(rng.normal(5000, 100)),
                "merchant": "casino",
                "is_fraud": 1,
            })
        dataset = preprocess_records(records, label_key="is_fraud", name="fraud")
        detector = QuorumDetector(ensemble_groups=10, shots=None, seed=1,
                                  anomaly_fraction_estimate=0.08)
        detector.fit(dataset)
        report = evaluate_top_k(detector.anomaly_scores(), dataset.labels,
                                dataset.num_anomalies)
        assert report.recall >= 0.5
