"""The fit workloads: whole-dataset ``QuorumDetector.fit`` at two scales.

* ``fit-paper``: analytic engine, 1,000 members and 4,096 shots on the
  ``power_plant`` surrogate (1000 x 5), the paper's headline configuration.
  Its time is spread over scoring, execution + compiler and planning; the
  density-matrix kernels stay idle.
* ``fit-noisy``: density-matrix engine with Brisbane noise and gate-level
  encoding, 4 members on ``breast_cancer`` (367 x 30).  Almost all of its time
  is the noisy circuit evolution; scoring is negligible.

Every timed fit gets a fresh detector seed derived from the workload seed:
reused angles would hit the compiled-program cache, which a one-shot
``detect`` never does.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core import QuorumConfig, QuorumDetector
from repro.data import load_dataset
from repro.quantum.compiler import default_compiler

from common import Result, bitwise_equal, median, own_peak_rss_mb, p99, roc_auc
from fitlayers import trace_fit_layers
from serve import probe_layers
from spans import Tracer

WORKLOADS: Dict[str, Dict[str, object]] = {
    "fit-paper": {
        "dataset": "power_plant",
        "config": QuorumConfig(ensemble_groups=1000, shots=4096),
    },
    "fit-noisy": {
        "dataset": "breast_cancer",
        "config": QuorumConfig(ensemble_groups=4, shots=4096,
                               backend="density_matrix", noisy=True,
                               gate_level_encoding=True),
    },
}
SETUP_REPEATS = 3


def fit_seeds(seed: int) -> List[int]:
    """Detector seeds for one run; the first is the warm-up fit's."""
    rng = np.random.default_rng([seed, 2])
    return [int(value) for value in rng.integers(0, 2 ** 31 - 1, size=4096)]


def _setup(name: str, config: QuorumConfig, seed: int, warm_seed: int):
    """Dataset generation plus one untimed warm-up fit, from a cold compiler
    cache so that every repeat does the same work.

    Returns ``(setup_s, dataset, warm-up scores)``.
    """
    default_compiler().clear()
    start = time.perf_counter()
    dataset = load_dataset(name, seed=seed)
    scores = QuorumDetector(config.with_overrides(seed=warm_seed)).fit(
        dataset).anomaly_scores()
    return time.perf_counter() - start, dataset, scores


def _gate_scores(result: Result, scores: np.ndarray, labels: np.ndarray,
                 what: str) -> float:
    auc = roc_auc(scores, labels) if np.all(np.isfinite(scores)) else float("nan")
    result.check(auc > 0.5, f"{what}: scores non-finite or AUC {auc:.4f} <= 0.5")
    return auc


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        tracer: Tracer) -> Result:
    spec = WORKLOADS[workload]
    config = spec["config"]
    result = Result()
    seeds = fit_seeds(seed)
    if trace:
        dataset = load_dataset(spec["dataset"], seed=seed)
        detector = trace_fit_layers(result, tracer, dataset, config, seeds,
                                    seconds)
        probe_layers(result, tracer, detector, dataset.features_only(), seed,
                     workdir)
        return result

    setups: List[float] = []
    first = None
    for repeat in range(SETUP_REPEATS):
        setup_s, dataset, scores = _setup(spec["dataset"], config, seed,
                                          seeds[0])
        setups.append(setup_s)
        if first is None:
            first = scores
            _gate_scores(result, scores, dataset.labels, "warm-up fit")
        else:
            result.check(bitwise_equal(scores, first),
                         f"set-up repeat {repeat}: same-seed fit differs")

    walls: List[float] = []
    aucs: List[float] = []
    deadline = time.perf_counter() + seconds
    for fit_seed in seeds[1:]:
        detector = QuorumDetector(config.with_overrides(seed=fit_seed))
        start = time.perf_counter()
        scores = detector.fit(dataset).anomaly_scores()
        walls.append(time.perf_counter() - start)
        aucs.append(_gate_scores(result, scores, dataset.labels,
                                 f"fit seed {fit_seed}"))
        if time.perf_counter() >= deadline:
            break

    rows = dataset.num_samples
    walls_ms = [wall * 1e3 for wall in walls]
    result.metric("setup_s", median(setups), "s", len(setups))
    result.metric("rows_per_s", rows / median(walls), "1/s", len(walls))
    result.metric("p50_ms", median(walls_ms), "ms", len(walls))
    result.metric("p99_ms", p99(walls_ms), "ms", len(walls))
    result.metric("detect_auc", median(aucs), "ratio", len(aucs))
    result.metric("peak_rss_mb", own_peak_rss_mb(), "MB", 1)
    return result
