"""Statistical scoring of SWAP-test outputs (Section IV-E, Fig. 7).

For each run (ensemble member x compression level) and each bucket, the mean and
standard deviation of the SWAP-test P(1) values inside the bucket are computed;
a sample's contribution is the absolute z-score of its own P(1) against its
bucket's statistics.  Contributions are summed over every run and bucket, giving
the "sum absolute std. deviation" score plotted in Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bucketing import BucketAssignment

__all__ = [
    "BucketStatistics",
    "bucket_deviations",
    "bucket_statistics",
    "reference_deviations",
    "stacked_bucket_scores",
    "StackedReference",
    "AnomalyScores",
]

_MIN_STD = 1e-12


@dataclass(frozen=True, eq=False)
class BucketStatistics:
    """Frozen per-bucket moments with the degenerate-bucket mask hoisted.

    ``live`` marks buckets whose standard deviation is resolvable
    (``stds >= 1e-12``); degenerate buckets contribute zero deviation.  The
    mask is computed once here instead of being re-derived from ``stds`` by
    every scoring call -- fit-time deviations, frozen serving references, and
    replay all share the same mask by construction.

    Unpacks and indexes like the legacy ``(means, stds)`` tuple
    (``means, stds = statistics``), so persisted-artifact readers and older
    call sites keep working unchanged.
    """

    means: np.ndarray
    stds: np.ndarray
    live: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float).ravel()
        stds = np.asarray(self.stds, dtype=float).ravel()
        if means.shape != stds.shape:
            raise ValueError("means and stds must have the same length")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)
        object.__setattr__(self, "live", stds >= _MIN_STD)

    @property
    def num_buckets(self) -> int:
        return int(self.means.shape[0])

    # Tuple compatibility: behave as the 2-tuple ``(means, stds)``.
    def __iter__(self):
        return iter((self.means, self.stds))

    def __getitem__(self, index):
        return (self.means, self.stds)[index]

    def __len__(self) -> int:
        return 2


def _check_coverage(p1_values: np.ndarray, buckets: BucketAssignment) -> None:
    if buckets.num_samples != p1_values.shape[0]:
        raise ValueError(
            f"bucket assignment covers {buckets.num_samples} samples but "
            f"{p1_values.shape[0]} P(1) values were provided"
        )


def _bucket_moments(p1_values: np.ndarray, bins: np.ndarray,
                    num_bins: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-bin mean and population std of ``p1_values`` grouped by ``bins``.

    ``np.bincount`` adds each bin's values in the order they occur, so a bin
    gets the same sums whether it is scored alone or next to other runs.
    """
    counts = np.bincount(bins, minlength=num_bins)
    means = np.bincount(bins, weights=p1_values, minlength=num_bins) / counts
    centered = p1_values - means[bins]
    variances = np.bincount(bins, weights=centered * centered,
                            minlength=num_bins) / counts
    return means, np.sqrt(variances)


def _bucket_z_scores(p1_values: np.ndarray, bins: np.ndarray,
                     means: np.ndarray, stds: np.ndarray,
                     live: np.ndarray) -> np.ndarray:
    """``|p1 - mean| / std`` of every value in its bin; 0 in degenerate bins."""
    scale = np.where(live, stds, 1.0)
    deviations = np.abs(p1_values - means[bins]) / scale[bins]
    deviations[~live[bins]] = 0.0
    return deviations


def stacked_bucket_scores(p1_values: np.ndarray, labels: np.ndarray,
                          num_buckets: Sequence[int]
                          ) -> Tuple[List[BucketStatistics], np.ndarray]:
    """Bucket statistics and deviations of many runs in one array pass.

    ``p1_values`` is ``(runs, samples)`` -- one row per (member, level) pair
    -- and ``labels[r, i]`` the bucket of sample ``i`` in run ``r``, with run
    ``r`` using ``num_buckets[r]`` buckets.  Offsetting every run's labels by
    the buckets of the runs before it turns the whole stack into one
    ``np.bincount`` problem.  Returns one :class:`BucketStatistics` per run and
    the ``(runs, samples)`` absolute z-scores; both are bitwise what
    :func:`bucket_statistics` and :func:`bucket_deviations` give for each run
    on its own.
    """
    p1_values = np.asarray(p1_values, dtype=float)
    labels = np.asarray(labels)
    num_buckets = np.asarray(num_buckets, dtype=np.intp)
    if p1_values.ndim != 2 or labels.shape != p1_values.shape:
        raise ValueError("p1_values and labels must both be (runs, samples)")
    if num_buckets.shape != (p1_values.shape[0],):
        raise ValueError("num_buckets must hold one count per run")
    stops = np.cumsum(num_buckets)
    starts = stops - num_buckets
    bins = (labels + starts[:, None]).ravel()
    flat = p1_values.ravel()
    means, stds = _bucket_moments(flat, bins, int(stops[-1]))
    live = stds >= _MIN_STD
    deviations = _bucket_z_scores(flat, bins, means, stds, live)
    statistics = [BucketStatistics(means=means[start:stop],
                                   stds=stds[start:stop])
                  for start, stop in zip(starts, stops)]
    return statistics, deviations.reshape(p1_values.shape)


def bucket_statistics(p1_values: np.ndarray, buckets: BucketAssignment
                      ) -> BucketStatistics:
    """Per-bucket :class:`BucketStatistics` (means, stds, live mask).

    These are the *reference statistics* a serving artifact freezes at fit
    time: a previously unseen sample is later scored against them with
    :func:`reference_deviations` instead of recomputing in-batch statistics.
    This is the one-run case of :func:`stacked_bucket_scores`.
    """
    p1_values = np.asarray(p1_values, dtype=float).ravel()
    _check_coverage(p1_values, buckets)
    means, stds = _bucket_moments(p1_values, buckets.labels,
                                  buckets.num_buckets)
    return BucketStatistics(means=means, stds=stds)


def bucket_deviations(p1_values: np.ndarray, buckets: BucketAssignment,
                      statistics: Optional[BucketStatistics] = None
                      ) -> np.ndarray:
    """Absolute per-sample z-scores of ``p1_values`` within their buckets.

    Buckets whose standard deviation vanishes (e.g. all-identical outputs)
    contribute zero for every member, since no sample deviates from the rest;
    the degenerate set comes from the statistics' precomputed ``live`` mask.
    ``statistics`` accepts the output of :func:`bucket_statistics` (or a
    legacy ``(means, stds)`` tuple) for the same ``(p1_values, buckets)``
    pair so callers that need both do not compute the bucket moments twice.
    This is the one-run case of :func:`stacked_bucket_scores`.
    """
    p1_values = np.asarray(p1_values, dtype=float).ravel()
    _check_coverage(p1_values, buckets)
    if statistics is None:
        statistics = bucket_statistics(p1_values, buckets)
    elif not isinstance(statistics, BucketStatistics):
        means, stds = statistics
        statistics = BucketStatistics(means=means, stds=stds)
    return _bucket_z_scores(p1_values, buckets.labels, statistics.means,
                            statistics.stds, statistics.live)


def reference_deviations(p1_values: np.ndarray, means: np.ndarray,
                         stds: np.ndarray) -> np.ndarray:
    """Deviations of (possibly unseen) samples against frozen bucket statistics.

    At fit time a sample belongs to exactly one random bucket and contributes
    its absolute z-score within it.  A sample scored *online* has no bucket, so
    its deviation is the expectation of that rule under a uniformly random
    bucket assignment: the mean over buckets of ``|p1 - mean_b| / std_b``, with
    degenerate buckets (vanishing std) contributing zero exactly as they do in
    :func:`bucket_deviations`.  This is the one-member case of
    :class:`StackedReference`.
    """
    p1_values = np.asarray(p1_values, dtype=float).ravel()
    means = np.asarray(means, dtype=float).ravel()
    stds = np.asarray(stds, dtype=float).ravel()
    if means.shape != stds.shape:
        raise ValueError("means and stds must have the same length")
    if means.size == 0:
        raise ValueError("reference statistics cannot be empty")
    live = stds >= _MIN_STD
    if not np.any(live):
        return np.zeros_like(p1_values)
    scores = np.abs(p1_values[:, None] - means[None, live]) / stds[None, live]
    return scores.sum(axis=1) / float(means.size)


class StackedReference:
    """One compression level's frozen reference statistics for many members.

    Built once from each member's :class:`BucketStatistics` at that level,
    it scores a ``(members, samples)`` stack of P(1) values the way
    :func:`reference_deviations` scores one member, bitwise.  Each member's
    dead buckets are dropped and members are grouped by their live-bucket
    count, so every group is one ``(members, samples, live)`` array pass
    that sums exactly the terms :func:`reference_deviations` sums, in the
    same order.  A member with no live bucket belongs to no group and
    scores zero.
    """

    def __init__(self, statistics: Sequence[BucketStatistics]) -> None:
        if not statistics:
            raise ValueError("at least one member's statistics are required")
        self.num_buckets = np.array([stats.num_buckets for stats in statistics],
                                    dtype=float)
        if not np.all(self.num_buckets > 0):
            raise ValueError("reference statistics cannot be empty")
        live_counts = np.array([int(stats.live.sum()) for stats in statistics])
        #: ``(members, means, stds)`` per live-bucket count: ascending member
        #: indices and their live buckets' ``(members, live)`` moments.
        self.groups: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for count in np.unique(live_counts[live_counts > 0]):
            members = np.flatnonzero(live_counts == count)
            self.groups.append((
                members,
                np.stack([statistics[m].means[statistics[m].live]
                          for m in members]),
                np.stack([statistics[m].stds[statistics[m].live]
                          for m in members]),
            ))

    def deviations(self, p1_values: np.ndarray, start: int = 0) -> np.ndarray:
        """Deviations of members ``start .. start + len(p1_values)``.

        ``p1_values`` is ``(members, samples)``; row ``i`` belongs to member
        ``start + i``.  The ``(members, samples, live)`` temporary of each
        group is computed in place.
        """
        p1_values = np.asarray(p1_values, dtype=float)
        deviations = np.zeros_like(p1_values)
        stop = start + p1_values.shape[0]
        for members, means, stds in self.groups:
            low, high = np.searchsorted(members, (start, stop))
            if low == high:
                continue
            chosen = members[low:high]
            scores = (p1_values[chosen - start, :, None]
                      - means[low:high, None, :])
            np.abs(scores, out=scores)
            scores /= stds[low:high, None, :]
            deviations[chosen - start] = (scores.sum(axis=2)
                                          / self.num_buckets[chosen, None])
        return deviations


@dataclass
class AnomalyScores:
    """Accumulated anomaly scores for a dataset.

    Attributes
    ----------
    scores:
        Per-sample summed absolute deviations (higher = more anomalous).
    num_runs:
        Number of (ensemble member x compression level) runs accumulated, useful
        for averaging across differently sized sweeps.
    metadata:
        Extra diagnostics recorded by the detector.
    """

    scores: np.ndarray
    num_runs: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=float).ravel()
        if self.scores.size == 0:
            raise ValueError("scores cannot be empty")
        if self.num_runs < 0:
            raise ValueError("num_runs cannot be negative")

    @property
    def num_samples(self) -> int:
        """Number of scored samples."""
        return int(self.scores.shape[0])

    def mean_scores(self) -> np.ndarray:
        """Scores averaged over runs (shape-preserving when ``num_runs`` is 0)."""
        if self.num_runs == 0:
            return self.scores.copy()
        return self.scores / self.num_runs

    def ranking(self) -> np.ndarray:
        """Sample indices sorted from most to least anomalous."""
        return np.argsort(self.scores)[::-1]

    def top_k(self, k: int) -> np.ndarray:
        """Indices of the ``k`` highest-scoring samples."""
        if not 0 <= k <= self.num_samples:
            raise ValueError("k out of range")
        return self.ranking()[:k]

    def predictions(self, num_flagged: Optional[int] = None,
                    contamination: Optional[float] = None) -> np.ndarray:
        """Binary anomaly flags for the ``num_flagged`` top-scoring samples.

        Exactly one of ``num_flagged`` / ``contamination`` must be given;
        ``contamination`` is a fraction of the dataset.
        """
        if (num_flagged is None) == (contamination is None):
            raise ValueError("provide exactly one of num_flagged or contamination")
        if contamination is not None:
            if not 0.0 <= contamination <= 1.0:
                raise ValueError("contamination must be in [0, 1]")
            num_flagged = int(round(contamination * self.num_samples))
        flags = np.zeros(self.num_samples, dtype=int)
        flags[self.top_k(int(num_flagged))] = 1
        return flags

    def threshold_at_percentile(self, percentile: float) -> float:
        """Score value at the given percentile (e.g. 90 for the top 10%)."""
        if not 0.0 <= percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        return float(np.percentile(self.scores, percentile))

    def merged_with(self, other: "AnomalyScores") -> "AnomalyScores":
        """Combine two accumulations (e.g. from parallel workers)."""
        if other.num_samples != self.num_samples:
            raise ValueError("cannot merge scores over different sample counts")
        return AnomalyScores(
            scores=self.scores + other.scores,
            num_runs=self.num_runs + other.num_runs,
            metadata={**self.metadata, **other.metadata},
        )
