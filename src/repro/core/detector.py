"""The QuorumDetector facade: the paper's end-to-end pipeline behind one class.

Quorum is a *transductive* detector: it scores the dataset it is given (there is no
train/test split because there is no training).  ``fit`` runs the full ensemble,
after which ``anomaly_scores`` / ``detect`` expose the results.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.bucketing import bucket_size_for_probability
from repro.core.config import QuorumConfig
from repro.core.ensemble import EnsembleMemberResult, MemberPlan
from repro.core.parallel import derive_member_seeds, run_ensemble_members
from repro.core.scoring import AnomalyScores
from repro.data.dataset import Dataset
from repro.encoding.normalization import QuorumNormalizer

__all__ = ["QuorumDetector"]


class QuorumDetector:
    """Zero-training unsupervised quantum anomaly detector.

    Parameters
    ----------
    config:
        Full configuration; built from ``overrides`` when omitted.
    **overrides:
        Convenience keyword overrides applied on top of the default
        :class:`QuorumConfig` (e.g. ``QuorumDetector(ensemble_groups=100)``).

    Examples
    --------
    >>> from repro import QuorumDetector, load_dataset
    >>> dataset = load_dataset("breast_cancer")
    >>> detector = QuorumDetector(ensemble_groups=20, seed=7)
    >>> scores = detector.fit(dataset).anomaly_scores()
    >>> flags = detector.detect(num_anomalies=dataset.num_anomalies)
    """

    def __init__(self, config: Optional[QuorumConfig] = None, **overrides: object):
        if config is None:
            config = QuorumConfig(**overrides)  # type: ignore[arg-type]
        elif overrides:
            config = config.with_overrides(**overrides)
        self.config = config
        self.normalizer: Optional[QuorumNormalizer] = None
        self._scores: Optional[AnomalyScores] = None
        self._member_results: List[EnsembleMemberResult] = []
        self._member_plans: List[MemberPlan] = []
        self._num_samples: Optional[int] = None

    # ----------------------------------------------------------------- fitting
    def fit(self, data: Union[Dataset, np.ndarray]) -> "QuorumDetector":
        """Run the full ensemble over ``data`` (a Dataset or a raw feature matrix).

        Labels carried by a :class:`Dataset` are ignored -- they are only used by
        the evaluation harness after the fact.
        """
        features = data.features_only() if isinstance(data, Dataset) else np.asarray(
            data, dtype=float)
        if features.ndim != 2:
            raise ValueError("expected a 2-D feature matrix")
        self.normalizer = QuorumNormalizer(
            target_max=self.config.feature_ceiling(features.shape[1])
        )
        normalized = self.normalizer.fit_transform(features)
        num_samples = normalized.shape[0]

        bucket_size = bucket_size_for_probability(
            num_samples, self.config.effective_anomaly_fraction,
            self.config.bucket_probability,
        )
        seeds = derive_member_seeds(self.config.seed, self.config.ensemble_groups)
        results, plans, executor = run_ensemble_members(
            normalized, self.config, seeds, bucket_size=bucket_size)

        total = np.zeros(num_samples)
        runs = 0
        for result in results:
            total += result.deviations
            runs += result.num_runs
        self._member_results = results
        self._member_plans = plans
        self._num_samples = num_samples
        self._scores = AnomalyScores(
            scores=total,
            num_runs=runs,
            metadata={
                "bucket_size": bucket_size,
                "ensemble_groups": self.config.ensemble_groups,
                "compression_levels": list(self.config.effective_compression_levels),
                "backend": self.config.backend,
                "noisy": self.config.noisy,
                "executor": executor,
                "n_jobs": self.config.n_jobs,
            },
        )
        return self

    def fit_detect(self, data: Union[Dataset, np.ndarray],
                   num_anomalies: Optional[int] = None,
                   contamination: Optional[float] = None) -> np.ndarray:
        """``fit`` followed by ``detect`` in one call."""
        return self.fit(data).detect(num_anomalies=num_anomalies,
                                     contamination=contamination)

    # ----------------------------------------------------------------- queries
    @property
    def is_fitted(self) -> bool:
        """True once ``fit`` has produced scores."""
        return self._scores is not None

    def _require_fitted(self) -> AnomalyScores:
        if self._scores is None:
            raise RuntimeError("the detector has not been fit yet")
        return self._scores

    def anomaly_scores(self) -> np.ndarray:
        """Per-sample summed absolute deviations (higher = more anomalous)."""
        return self._require_fitted().scores.copy()

    def scores(self) -> AnomalyScores:
        """The full :class:`AnomalyScores` container (ranking helpers, metadata)."""
        return self._require_fitted()

    def ranking(self) -> np.ndarray:
        """Sample indices sorted from most to least anomalous."""
        return self._require_fitted().ranking()

    def detect(self, num_anomalies: Optional[int] = None,
               contamination: Optional[float] = None) -> np.ndarray:
        """Binary anomaly flags for the top-scoring samples.

        Exactly one of ``num_anomalies`` (absolute count) or ``contamination``
        (fraction of the dataset) must be provided.  When neither is given, the
        config's anomaly-fraction estimate is used as the contamination.
        """
        scores = self._require_fitted()
        if num_anomalies is None and contamination is None:
            contamination = self.config.effective_anomaly_fraction
        return scores.predictions(num_flagged=num_anomalies,
                                  contamination=contamination)

    def member_results(self) -> List[EnsembleMemberResult]:
        """Per-member diagnostics (feature subsets, bucket counts, P(1) stats)."""
        self._require_fitted()
        return list(self._member_results)

    def member_plans(self) -> List[MemberPlan]:
        """The executed member plans, in member order.

        Each plan carries the member's frozen configuration (feature subset,
        buckets, ansatz angles) plus the post-planning RNG snapshot
        (``plan.rng_state``); together with the per-member bucket reference
        statistics in :meth:`member_results` this is everything
        :mod:`repro.serving.artifact` persists.
        """
        self._require_fitted()
        return list(self._member_plans)

    def save_model(self, path: Union[str, Path]) -> Path:
        """Persist the fitted ensemble as a versioned serving artifact.

        Convenience wrapper around :func:`repro.serving.artifact.save_model`;
        the saved bundle restores an online scorer in a fresh process without
        refitting (see :mod:`repro.serving`).
        """
        from repro.serving.artifact import save_model

        return save_model(self, path)

    def diagnostics(self) -> Dict[str, object]:
        """Run-level diagnostics: bucket size, runs, score distribution summary."""
        scores = self._require_fitted()
        values = scores.scores
        return {
            **scores.metadata,
            "num_samples": self._num_samples,
            "num_runs": scores.num_runs,
            "score_mean": float(values.mean()),
            "score_std": float(values.std()),
            "score_max": float(values.max()),
        }

    def __repr__(self) -> str:
        status = "fitted" if self.is_fitted else "unfitted"
        return (
            f"QuorumDetector(backend={self.config.backend!r}, "
            f"ensemble_groups={self.config.ensemble_groups}, status={status})"
        )
