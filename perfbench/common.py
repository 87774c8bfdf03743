"""Result bookkeeping and the statistics the benchmark computes itself."""

from __future__ import annotations

import resource
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.stats import rankdata


class Result:
    """Metrics (value, unit, sample count) plus the correctness ledger."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str, int]] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def check(self, ok: bool, what: str) -> None:
        """Count one gated operation; record ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def p99(values: Sequence[float]) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), 99.0))


def roc_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney ROC AUC (ties get average ranks); anomalies are label 1."""
    labels = np.asarray(labels).astype(bool)
    positives = int(labels.sum())
    negatives = labels.size - positives
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs both anomalies and normal rows")
    ranks = rankdata(np.asarray(scores, dtype=float))
    return float((ranks[labels].sum() - positives * (positives + 1) / 2)
                 / (positives * negatives))


def bitwise_equal(left: np.ndarray, right: np.ndarray) -> bool:
    left = np.ascontiguousarray(left, dtype=np.float64)
    right = np.ascontiguousarray(right, dtype=np.float64)
    return left.shape == right.shape and left.tobytes() == right.tobytes()


def own_peak_rss_mb() -> float:
    """VmHWM of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
