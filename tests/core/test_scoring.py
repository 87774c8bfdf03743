"""Tests for bucket z-scoring and the AnomalyScores container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bucketing import BucketAssignment, assign_buckets
from repro.core.scoring import (
    AnomalyScores,
    BucketStatistics,
    StackedReference,
    bucket_deviations,
    bucket_statistics,
    reference_deviations,
    stacked_bucket_scores,
)


class TestBucketDeviations:
    def test_outlier_gets_largest_deviation(self):
        buckets = BucketAssignment(buckets=((0, 1, 2, 3, 4),))
        p1 = np.array([0.1, 0.11, 0.09, 0.1, 0.45])
        deviations = bucket_deviations(p1, buckets)
        assert deviations.argmax() == 4
        assert deviations[4] > 1.5

    def test_identical_values_give_zero(self):
        buckets = BucketAssignment(buckets=((0, 1, 2),))
        deviations = bucket_deviations(np.full(3, 0.2), buckets)
        assert np.allclose(deviations, 0.0)

    def test_deviations_computed_per_bucket(self):
        buckets = BucketAssignment(buckets=((0, 1), (2, 3)))
        p1 = np.array([0.1, 0.3, 0.5, 0.7])
        deviations = bucket_deviations(p1, buckets)
        # Within each two-sample bucket, both members are exactly one std away.
        assert np.allclose(deviations, 1.0)

    def test_size_mismatch_raises(self):
        buckets = BucketAssignment(buckets=((0, 1),))
        with pytest.raises(ValueError):
            bucket_deviations(np.zeros(3), buckets)

    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_deviations_are_nonnegative_and_finite(self, seed):
        rng = np.random.default_rng(seed)
        p1 = rng.uniform(0, 0.5, size=40)
        buckets = assign_buckets(40, 8, rng)
        deviations = bucket_deviations(p1, buckets)
        assert np.all(deviations >= 0.0)
        assert np.all(np.isfinite(deviations))


class TestBucketStatistics:
    def test_statistics_match_numpy_per_bucket(self):
        buckets = BucketAssignment(buckets=((0, 2), (1, 3, 4)))
        p1 = np.array([0.1, 0.3, 0.5, 0.7, 0.2])
        means, stds = bucket_statistics(p1, buckets)
        assert means[0] == p1[[0, 2]].mean()
        assert stds[0] == p1[[0, 2]].std()
        assert means[1] == p1[[1, 3, 4]].mean()
        assert stds[1] == p1[[1, 3, 4]].std()

    def test_size_mismatch_raises(self):
        buckets = BucketAssignment(buckets=((0, 1),))
        with pytest.raises(ValueError):
            bucket_statistics(np.zeros(5), buckets)

    def test_precomputed_statistics_reproduce_deviations_bitwise(self):
        rng = np.random.default_rng(3)
        p1 = rng.uniform(0, 0.5, size=30)
        buckets = assign_buckets(30, 6, np.random.default_rng(1))
        plain = bucket_deviations(p1, buckets)
        reused = bucket_deviations(p1, buckets,
                                   statistics=bucket_statistics(p1, buckets))
        assert np.array_equal(plain, reused)

    def test_statistics_hoist_degenerate_bucket_mask(self):
        buckets = BucketAssignment(buckets=((0, 1), (2, 3)))
        p1 = np.array([0.1, 0.3, 0.2, 0.2])  # second bucket is degenerate
        statistics = bucket_statistics(p1, buckets)
        assert isinstance(statistics, BucketStatistics)
        assert statistics.live.tolist() == [True, False]
        assert statistics.num_buckets == 2
        # Tuple compatibility: unpacking and indexing see (means, stds).
        means, stds = statistics
        assert means is statistics.means and stds is statistics.stds
        assert statistics[0] is statistics.means
        assert statistics[1] is statistics.stds
        assert len(statistics) == 2

    def test_legacy_tuple_statistics_still_accepted_bitwise(self):
        rng = np.random.default_rng(7)
        p1 = rng.uniform(0, 0.5, size=24)
        buckets = assign_buckets(24, 6, np.random.default_rng(2))
        statistics = bucket_statistics(p1, buckets)
        legacy = bucket_deviations(
            p1, buckets, statistics=(statistics.means, statistics.stds))
        assert np.array_equal(legacy, bucket_deviations(p1, buckets))


class TestStackedBucketScores:
    def test_runs_with_different_bucket_counts_match_one_run_calls(self):
        rng = np.random.default_rng(12)
        assignments = [assign_buckets(30, 6, np.random.default_rng(1)),
                       assign_buckets(30, 10, np.random.default_rng(2)),
                       BucketAssignment(buckets=(tuple(range(30)),))]
        p1 = rng.uniform(size=(3, 30))
        p1[1, assignments[1].labels == 0] = 0.25  # one degenerate bucket
        statistics, deviations = stacked_bucket_scores(
            p1, np.stack([a.labels for a in assignments]),
            [a.num_buckets for a in assignments])
        for run, assignment in enumerate(assignments):
            alone = bucket_statistics(p1[run], assignment)
            assert np.array_equal(statistics[run].means, alone.means)
            assert np.array_equal(statistics[run].stds, alone.stds)
            assert np.array_equal(statistics[run].live, alone.live)
            assert np.array_equal(deviations[run],
                                  bucket_deviations(p1[run], assignment))
        assert not statistics[1].live[0]

    def test_shape_mismatches_raise(self):
        labels = np.zeros((2, 4), dtype=int)
        with pytest.raises(ValueError, match="runs, samples"):
            stacked_bucket_scores(np.zeros((2, 5)), labels, [1, 1])
        with pytest.raises(ValueError, match="one count per run"):
            stacked_bucket_scores(np.zeros((2, 4)), labels, [1])


class TestReferenceDeviations:
    def test_matches_mean_absolute_z_over_buckets(self):
        means = np.array([0.2, 0.4])
        stds = np.array([0.1, 0.2])
        p1 = np.array([0.3])
        expected = (abs(0.3 - 0.2) / 0.1 + abs(0.3 - 0.4) / 0.2) / 2.0
        assert np.allclose(reference_deviations(p1, means, stds), expected)

    def test_degenerate_buckets_contribute_zero(self):
        means = np.array([0.2, 0.4])
        stds = np.array([0.1, 0.0])  # the second bucket had identical values
        p1 = np.array([0.3])
        expected = (abs(0.3 - 0.2) / 0.1) / 2.0  # averaged over ALL buckets
        assert np.allclose(reference_deviations(p1, means, stds), expected)

    def test_all_degenerate_buckets_give_zero(self):
        scores = reference_deviations(np.array([0.1, 0.9]),
                                      np.array([0.5]), np.array([0.0]))
        assert np.array_equal(scores, np.zeros(2))

    def test_far_samples_score_higher(self):
        rng = np.random.default_rng(0)
        p1 = rng.uniform(0.2, 0.3, size=50)
        buckets = assign_buckets(50, 10, rng)
        means, stds = bucket_statistics(p1, buckets)
        near = reference_deviations(np.array([0.25]), means, stds)
        far = reference_deviations(np.array([0.9]), means, stds)
        assert far[0] > near[0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            reference_deviations(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_empty_reference_raises(self):
        with pytest.raises(ValueError):
            reference_deviations(np.zeros(2), np.zeros(0), np.zeros(0))


class TestAnomalyScores:
    def _scores(self):
        return AnomalyScores(scores=np.array([1.0, 5.0, 3.0, 0.5]), num_runs=2)

    def test_ranking(self):
        assert self._scores().ranking().tolist() == [1, 2, 0, 3]

    def test_top_k(self):
        assert self._scores().top_k(2).tolist() == [1, 2]

    def test_top_k_out_of_range(self):
        with pytest.raises(ValueError):
            self._scores().top_k(10)

    def test_predictions_by_count(self):
        flags = self._scores().predictions(num_flagged=1)
        assert flags.tolist() == [0, 1, 0, 0]

    def test_predictions_by_contamination(self):
        flags = self._scores().predictions(contamination=0.5)
        assert flags.sum() == 2

    def test_predictions_requires_exactly_one_argument(self):
        with pytest.raises(ValueError):
            self._scores().predictions()
        with pytest.raises(ValueError):
            self._scores().predictions(num_flagged=1, contamination=0.5)

    def test_invalid_contamination_raises(self):
        with pytest.raises(ValueError):
            self._scores().predictions(contamination=1.5)

    def test_mean_scores(self):
        assert np.allclose(self._scores().mean_scores(),
                           np.array([0.5, 2.5, 1.5, 0.25]))

    def test_threshold_at_percentile(self):
        assert self._scores().threshold_at_percentile(100) == 5.0

    def test_merge(self):
        merged = self._scores().merged_with(self._scores())
        assert merged.num_runs == 4
        assert np.allclose(merged.scores, np.array([2.0, 10.0, 6.0, 1.0]))

    def test_merge_size_mismatch_raises(self):
        other = AnomalyScores(scores=np.zeros(3))
        with pytest.raises(ValueError):
            self._scores().merged_with(other)

    def test_empty_scores_raise(self):
        with pytest.raises(ValueError):
            AnomalyScores(scores=np.array([]))


class TestStackedReference:
    def test_matches_reference_deviations_bitwise(self):
        """Members with different bucket counts and dead buckets, scored
        through offset windows of the member stack."""
        rng = np.random.default_rng(0)
        statistics = []
        for member, buckets in enumerate((3, 9, 9, 140, 4, 1)):
            stds = rng.uniform(0.01, 0.2, size=buckets)
            if member in (1, 3):
                stds[rng.choice(buckets, size=2, replace=False)] = 0.0
            if member == 5:
                stds[:] = 0.0
            statistics.append(BucketStatistics(
                means=rng.uniform(0.0, 0.5, size=buckets), stds=stds))
        reference = StackedReference(statistics)
        p1 = rng.uniform(0.0, 0.5, size=(len(statistics), 17))
        for start, stop in ((0, 6), (1, 4), (3, 6), (5, 6)):
            stacked = reference.deviations(p1[start:stop], start)
            for offset, member in enumerate(range(start, stop)):
                expected = reference_deviations(
                    p1[member], statistics[member].means,
                    statistics[member].stds)
                assert np.array_equal(stacked[offset], expected)

    def test_rejects_empty_statistics(self):
        with pytest.raises(ValueError):
            StackedReference([])
        with pytest.raises(ValueError, match="empty"):
            StackedReference([BucketStatistics(means=np.zeros(0),
                                               stds=np.zeros(0))])

