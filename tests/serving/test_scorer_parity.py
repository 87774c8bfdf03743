"""The stacked ``OnlineScorer`` against the member-by-member oracle.

``tests/oracle.py::loop_serve`` scores one member at a time with the
one-run kernels (``p1_levels_batch``, ``reference_deviations``,
``bucket_deviations``).  The scorer runs chunks of members through one
array pass per layer; its scores must equal the oracle's bitwise, for
every mode and request size, with dead buckets in the reference too.
"""

import copy

import numpy as np
import pytest

from repro.core import ensemble
from repro.core.detector import QuorumDetector
from repro.serving.artifact import ModelArtifact
from repro.serving.scorer import OnlineScorer
from tests.oracle import loop_serve

MODELS = {
    "analytic": dict(ensemble_groups=5, seed=7, shots=4096),
    "noisy_density_matrix": dict(ensemble_groups=3, seed=5, shots=256,
                                 backend="density_matrix", noisy=True,
                                 num_qubits=2),
}
TRAIN_SAMPLES = 40
FEATURES = 5


@pytest.fixture(scope="module", params=sorted(MODELS))
def fitted(request):
    rng = np.random.default_rng(3)
    data = rng.normal(size=(TRAIN_SAMPLES, FEATURES))
    detector = QuorumDetector(**MODELS[request.param]).fit(data)
    return ModelArtifact.from_detector(detector), data, detector


def _probes(rows, seed=11):
    return np.random.default_rng(seed).normal(size=(rows, FEATURES))


def _chunked(monkeypatch, rows, members):
    """Shrink the chunk so that ``rows``-row requests split ``members``
    members into chunks of two."""
    monkeypatch.setattr(ensemble, "CHUNK_ROWS", 2 * rows)
    assert ensemble.members_per_chunk(rows) == 2 < members


class TestReference:
    @pytest.mark.parametrize("rows", [1, 64])
    def test_matches_oracle_bitwise(self, fitted, rows):
        artifact, _, _ = fitted
        probes = _probes(rows)
        with OnlineScorer(artifact) as scorer:
            served = scorer.score(probes)
        assert np.array_equal(served.scores, loop_serve(artifact, probes))
        assert served.num_runs == len(artifact.members) * len(artifact.levels)

    def test_chunk_boundary_matches_oracle_bitwise(self, fitted,
                                                   monkeypatch):
        artifact, _, _ = fitted
        probes = _probes(7)
        _chunked(monkeypatch, 7, len(artifact.members))
        with OnlineScorer(artifact) as scorer:
            served = scorer.score(probes).scores
        assert np.array_equal(served, loop_serve(artifact, probes))

    def test_coalesced_batch_matches_oracle_bitwise(self, fitted):
        """Rows of several requests share one sweep; each request still
        draws its own noise."""
        artifact, _, _ = fitted
        requests = [_probes(rows, seed=20 + rows) for rows in (1, 3, 64)]
        windows, offset = [], 0
        for request in requests:
            windows.append((slice(offset, offset + len(request)),
                            "reference"))
            offset += len(request)
        with OnlineScorer(artifact) as scorer:
            results = scorer._run(scorer._normalize(np.vstack(requests)),
                                  windows)
        for request, result in zip(requests, results):
            assert np.array_equal(result.scores,
                                  loop_serve(artifact, request))


class TestReplay:
    def test_matches_oracle_and_fit_bitwise(self, fitted):
        artifact, data, detector = fitted
        with OnlineScorer(artifact) as scorer:
            served = scorer.score(data, mode="replay").scores
        assert np.array_equal(served, loop_serve(artifact, data, "replay"))
        assert np.array_equal(served, detector.anomaly_scores())

    def test_chunk_boundary_matches_oracle_bitwise(self, fitted,
                                                   monkeypatch):
        artifact, data, _ = fitted
        _chunked(monkeypatch, TRAIN_SAMPLES, len(artifact.members))
        with OnlineScorer(artifact) as scorer:
            served = scorer.score(data, mode="replay").scores
        assert np.array_equal(served, loop_serve(artifact, data, "replay"))


class TestStateful:
    @pytest.mark.parametrize("chunked", [False, True])
    def test_three_sequential_requests_match_oracle_bitwise(
            self, fitted, monkeypatch, chunked):
        """The session's generators advance across requests exactly as the
        oracle's restored generators do."""
        artifact, data, _ = fitted
        requests = [(_probes(1, seed=1), "reference"),
                    (data, "replay"),
                    (_probes(64, seed=2), "reference")]
        if chunked:
            _chunked(monkeypatch, 1, len(artifact.members))
        with OnlineScorer(artifact) as scorer:
            session = scorer.fresh_member_rngs()
            served = [scorer.score_stateful(rows, session, mode=mode).scores
                      for rows, mode in requests]
        oracle_rngs = [member.restored_rng() for member in artifact.members]
        for (rows, mode), scores in zip(requests, served):
            assert np.array_equal(
                scores, loop_serve(artifact, rows, mode, rngs=oracle_rngs))


def _with_dead_buckets(artifact):
    """A copy of ``artifact`` whose reference statistics hold dead buckets:
    one bucket of member 0 at the first level, and every bucket of the last
    member at the last level."""
    dead = copy.deepcopy(artifact)
    first, last = dead.levels[0], dead.levels[-1]
    means, stds = dead.members[0].reference[first]
    stds = stds.copy()
    stds[1] = 5e-13
    dead.members[0].reference[first] = (means, stds)
    means, stds = dead.members[-1].reference[last]
    dead.members[-1].reference[last] = (means, np.zeros_like(stds))
    return dead


class TestDeadBuckets:
    @pytest.mark.parametrize("rows", [1, 64])
    def test_matches_oracle_bitwise(self, fitted, rows):
        artifact = _with_dead_buckets(fitted[0])
        probes = _probes(rows, seed=5)
        with OnlineScorer(artifact) as scorer:
            served = scorer.score(probes).scores
            level_groups = [len(reference.groups)
                            for reference in scorer._references]
        assert np.array_equal(served, loop_serve(artifact, probes))
        # The dead buckets split each level's members into live-count groups.
        assert level_groups[0] >= 2 and level_groups[-1] >= 1
        with OnlineScorer(fitted[0]) as scorer:
            assert not np.array_equal(served, scorer.score(probes).scores)
