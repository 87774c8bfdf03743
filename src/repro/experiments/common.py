"""Shared plumbing for the experiment runners.

The paper runs 1,000 ensemble members at 4,096 shots per circuit (over 100,000
circuit executions per dataset).  The runners here default to a scaled-down sweep
that preserves the qualitative results while finishing in minutes on a laptop; the
``ExperimentSettings`` dataclass makes the full-scale run a one-liner.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.qnn import QNNClassifier, QNNConfig
from repro.core.config import QuorumConfig
from repro.core.detector import QuorumDetector
from repro.data.dataset import Dataset
from repro.data.registry import DATASET_SPECS
from repro.metrics.classification import ClassificationReport, evaluate_flags, evaluate_top_k

__all__ = [
    "ExperimentSettings",
    "DEFAULT_DATASETS",
    "run_quorum",
    "run_qnn_baseline",
    "markdown_table",
]

DEFAULT_DATASETS: Tuple[str, ...] = ("breast_cancer", "pen_global", "letter",
                                     "power_plant")


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale knobs shared by all experiment runners.

    Attributes
    ----------
    ensemble_groups:
        Ensemble members per Quorum run (paper: 1,000).
    shots:
        Shots per circuit (paper: 4,096).
    seed:
        Master seed for dataset generation and detector randomness.
    noisy_ensemble_groups:
        Ensemble members for noisy (density-matrix) runs, which are far more
        expensive per circuit.
    noisy_subsample:
        Number of samples drawn (stratified) for noisy runs; ``None`` uses the
        whole dataset.
    qnn_epochs:
        Training epochs of the QNN baseline.
    qnn_train_fraction:
        Fraction of the dataset (with labels) given to the supervised QNN.
    n_jobs:
        Ensemble workers: ``1`` runs members serially, a larger value runs
        them on a process pool of that size.  Defaults to the
        ``QUORUM_N_JOBS`` environment variable so the benchmark harness can
        set it without editing every experiment module.
    compile_circuits:
        Execute compiled observables (default) or the per-sample reference
        simulator; defaults to the ``QUORUM_COMPILE`` environment variable
        (set it to ``0`` for the reference).
    """

    ensemble_groups: int = 60
    shots: Optional[int] = 4096
    seed: int = 11
    noisy_ensemble_groups: int = 6
    noisy_subsample: Optional[int] = 140
    qnn_epochs: int = 60
    qnn_train_fraction: float = 0.6
    n_jobs: int = field(
        default_factory=lambda: int(os.environ.get("QUORUM_N_JOBS", "1")))
    compile_circuits: bool = field(
        default_factory=lambda: os.environ.get("QUORUM_COMPILE", "1") != "0")

    def quorum_config(self, dataset_name: str, **overrides: object) -> QuorumConfig:
        """Base Quorum config for ``dataset_name`` (Table I bucket probability)."""
        spec = DATASET_SPECS[dataset_name]
        base = QuorumConfig(
            ensemble_groups=self.ensemble_groups,
            shots=self.shots,
            bucket_probability=spec.bucket_probability,
            anomaly_fraction_estimate=spec.anomalies / spec.samples,
            seed=self.seed,
            n_jobs=self.n_jobs,
            compile_circuits=self.compile_circuits,
        )
        return base.with_overrides(**overrides) if overrides else base


def run_quorum(dataset: Dataset, config: QuorumConfig
               ) -> Tuple[np.ndarray, QuorumDetector]:
    """Fit a QuorumDetector and return (scores, detector)."""
    detector = QuorumDetector(config)
    detector.fit(dataset)
    return detector.anomaly_scores(), detector


def run_qnn_baseline(dataset: Dataset, settings: ExperimentSettings
                     ) -> Tuple[np.ndarray, ClassificationReport]:
    """Train the supervised QNN on a labeled split and evaluate on the full set.

    Returns the binary predictions over the whole dataset and the resulting
    classification report (the QNN bars of Fig. 8).
    """
    rng = np.random.default_rng(settings.seed)
    order = rng.permutation(dataset.num_samples)
    cut = int(settings.qnn_train_fraction * dataset.num_samples)
    train_indices = order[:cut]
    # Guarantee the training split holds at least one anomaly (a supervised
    # baseline cannot be trained on a single class).
    if dataset.labels[train_indices].sum() == 0:
        anomaly_index = int(dataset.anomaly_indices[0])
        train_indices = np.append(train_indices, anomaly_index)
    classifier = QNNClassifier(QNNConfig(epochs=settings.qnn_epochs,
                                         seed=settings.seed))
    classifier.fit(dataset.data[train_indices], dataset.labels[train_indices])
    predictions = classifier.predict(dataset.data)
    report = evaluate_flags(dataset.labels, predictions)
    return predictions, report


def evaluate_quorum_scores(dataset: Dataset, scores: np.ndarray
                           ) -> ClassificationReport:
    """Fig. 8 protocol for Quorum: flag as many samples as there are anomalies."""
    return evaluate_top_k(scores, dataset.labels, dataset.num_anomalies)


def stratified_subsample(dataset: Dataset, size: int, seed: int) -> Dataset:
    """A label-stratified subsample (keeps the dataset's anomaly fraction)."""
    if size >= dataset.num_samples:
        return dataset
    rng = np.random.default_rng(seed)
    anomaly_indices = dataset.anomaly_indices
    normal_indices = np.flatnonzero(dataset.labels == 0)
    num_anomalies = max(1, int(round(dataset.anomaly_fraction * size)))
    num_anomalies = min(num_anomalies, anomaly_indices.shape[0])
    chosen_anomalies = rng.choice(anomaly_indices, size=num_anomalies, replace=False)
    chosen_normals = rng.choice(normal_indices, size=size - num_anomalies,
                                replace=False)
    chosen = np.concatenate([chosen_anomalies, chosen_normals])
    rng.shuffle(chosen)
    return dataset.subset(chosen, name_suffix=f"sub{size}")


def markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a GitHub-flavoured markdown table (used by the format_* helpers)."""
    lines = ["| " + " | ".join(str(h) for h in headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(lines)
