"""Bucketing (Section IV-C): random data subsets sized by anomaly probability.

The bucket size is the smallest ``b`` such that a uniformly random subset of ``b``
samples contains at least one anomaly with probability at least ``p`` (Table I's
right-most column).  With ``N`` samples of which ``A`` are anomalous, that
probability is hypergeometric:

``P(>=1 anomaly) = 1 - C(N - A, b) / C(N, b)``.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "probability_of_anomalous_bucket",
    "bucket_size_for_probability",
    "BucketAssignment",
    "assign_buckets",
]


def probability_of_anomalous_bucket(num_samples: int, num_anomalies: int,
                                    bucket_size: int) -> float:
    """Probability that a random bucket of ``bucket_size`` holds >= 1 anomaly."""
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if not 0 <= num_anomalies <= num_samples:
        raise ValueError("num_anomalies must be between 0 and num_samples")
    if not 1 <= bucket_size <= num_samples:
        raise ValueError("bucket_size must be between 1 and num_samples")
    if num_anomalies == 0:
        return 0.0
    normals = num_samples - num_anomalies
    if bucket_size > normals:
        return 1.0
    log_miss = (_log_comb(normals, bucket_size)
                - _log_comb(num_samples, bucket_size))
    return 1.0 - math.exp(log_miss)


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def bucket_size_for_probability(num_samples: int, anomaly_fraction: float,
                                target_probability: float) -> int:
    """Smallest bucket size reaching the target anomaly-containment probability.

    Parameters
    ----------
    num_samples:
        Dataset size ``N``.
    anomaly_fraction:
        Estimated fraction of anomalous samples (the detector never sees labels,
        so this is a user-supplied prior).
    target_probability:
        Desired probability of at least one anomaly per bucket (``p`` in Table I).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if not 0.0 < anomaly_fraction < 1.0:
        raise ValueError("anomaly_fraction must be in (0, 1)")
    if not 0.0 < target_probability < 1.0:
        raise ValueError("target_probability must be in (0, 1)")
    estimated_anomalies = max(1, int(round(anomaly_fraction * num_samples)))
    for bucket_size in range(2, num_samples + 1):
        probability = probability_of_anomalous_bucket(
            num_samples, estimated_anomalies, bucket_size
        )
        if probability >= target_probability:
            return bucket_size
    return num_samples


class BucketAssignment:
    """A partition of sample indices into random buckets.

    Two read-only index arrays hold the partition.  ``labels[i]`` is the
    bucket of sample ``i``, the form the scoring kernels group by.
    ``members`` lists the samples bucket after bucket, each bucket in the
    order its samples were dealt.  ``buckets`` is the same partition as a
    tuple of tuples, the form a serving artifact persists; it is built on
    first use, so a fit that never saves a model never builds it.
    """

    def __init__(self, buckets: Sequence[Sequence[int]]) -> None:
        sizes = [len(bucket) for bucket in buckets]
        members = np.fromiter(itertools.chain.from_iterable(buckets),
                              dtype=np.intp, count=sum(sizes))
        labels = np.full(members.size, -1, dtype=np.intp)
        in_range = members.size == 0 or (
            members.min() >= 0 and members.max() < members.size)
        if in_range:
            labels[members] = np.repeat(np.arange(len(sizes)), sizes)
        if not in_range or np.any(labels < 0):
            raise ValueError("buckets must partition 0 .. num_samples-1")
        self._set(labels, members, len(sizes))

    @classmethod
    def _dealt(cls, order: np.ndarray, num_buckets: int) -> "BucketAssignment":
        """Deal ``order`` round-robin: position ``p`` joins bucket ``p % B``."""
        dealt_position, bucket_of_position = _round_robin(order.size,
                                                          num_buckets)
        assignment = cls.__new__(cls)
        labels = np.empty(order.size, dtype=np.intp)
        labels[order] = bucket_of_position
        assignment._set(labels, order[dealt_position], num_buckets)
        return assignment

    def _set(self, labels: np.ndarray, members: np.ndarray,
             num_buckets: int) -> None:
        labels.setflags(write=False)
        members.setflags(write=False)
        self.labels = labels
        self.members = members
        self._num_buckets = num_buckets
        self._buckets: Optional[Tuple[Tuple[int, ...], ...]] = None

    @property
    def buckets(self) -> Tuple[Tuple[int, ...], ...]:
        """Each bucket's samples, in the order they were dealt."""
        if self._buckets is None:
            sizes = np.bincount(self.labels, minlength=self._num_buckets)
            members = self.members.tolist()
            starts = np.cumsum(sizes) - sizes
            self._buckets = tuple(
                tuple(members[start:start + size])
                for start, size in zip(starts.tolist(), sizes.tolist()))
        return self._buckets

    @property
    def num_buckets(self) -> int:
        """Number of buckets."""
        return self._num_buckets

    @property
    def num_samples(self) -> int:
        """Total number of assigned samples."""
        return int(self.labels.size)

    def bucket_of(self, sample_index: int) -> int:
        """Bucket index containing ``sample_index`` (raises if missing)."""
        if not 0 <= sample_index < self.labels.size:
            raise KeyError(f"sample {sample_index} is not assigned to any bucket")
        return int(self.labels[sample_index])

    def as_lists(self) -> List[List[int]]:
        """Buckets as plain lists (handy for numpy indexing)."""
        return [list(bucket) for bucket in self.buckets]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BucketAssignment):
            return NotImplemented
        return (np.array_equal(self.labels, other.labels)
                and np.array_equal(self.members, other.members))

    def __repr__(self) -> str:
        return (f"BucketAssignment(num_buckets={self.num_buckets}, "
                f"num_samples={self.num_samples})")


@functools.lru_cache(maxsize=8)
def _round_robin(num_samples: int,
                 num_buckets: int) -> Tuple[np.ndarray, np.ndarray]:
    """Dealing positions grouped by bucket, and each position's bucket.

    Every member of a fit deals the same ``(num_samples, num_buckets)``
    pattern, so it is built once and shared (read-only).
    """
    bucket_of_position = np.arange(num_samples) % num_buckets
    dealt_position = np.argsort(bucket_of_position, kind="stable")
    bucket_of_position.setflags(write=False)
    dealt_position.setflags(write=False)
    return dealt_position, bucket_of_position


def assign_buckets(num_samples: int, bucket_size: int,
                   rng: Optional[np.random.Generator] = None) -> BucketAssignment:
    """Randomly partition ``num_samples`` indices into buckets of ~``bucket_size``.

    Every sample lands in exactly one bucket.  A random permutation is dealt
    round-robin: the sample at position ``p`` of the permutation joins bucket
    ``p % num_buckets``, so when the sample count is not a multiple of the
    bucket size the remainder is spread over the existing buckets (no bucket
    ends up pathologically small, which would break the z-score statistics).
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    if not 1 <= bucket_size <= num_samples:
        raise ValueError("bucket_size must be between 1 and num_samples")
    rng = rng or np.random.default_rng()
    order = rng.permutation(num_samples)
    return BucketAssignment._dealt(order, max(1, num_samples // bucket_size))
