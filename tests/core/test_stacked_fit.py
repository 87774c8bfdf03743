"""The stacked fit against the per-member loop oracle, and its bitwise bars.

Parity bars (see docs/EXECUTION.md section 3):

* against the loop oracle in ``tests/oracle.py``: <= 1e-12 relative;
* bitwise between chunk sizes, serial and process-pool runs, and fit and
  ``OnlineScorer`` replay.
"""

import numpy as np
import pytest

import repro.core.ensemble as ensemble
from repro.core.config import QuorumConfig
from repro.core.detector import QuorumDetector
from repro.core.ensemble import members_per_chunk, plan_member
from repro.quantum.compiler import CircuitCompiler
from repro.serving.artifact import ModelArtifact, load_model, save_model
from repro.serving.scorer import OnlineScorer
from tests.oracle import frozen_plan_member, loop_fit

SAMPLES = 160
#: More members than one default chunk, so a fit runs a full and a partial one.
MEMBERS = members_per_chunk(SAMPLES) + 6
RTOL = 1e-12


def _features(samples=SAMPLES, features=6, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(samples, features))
    data[:8] += 4.0  # a few outliers
    return data


def _fit(config, features=None):
    return QuorumDetector(config).fit(
        _features() if features is None else features)


def _assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0)


def _member_state(detector):
    """Everything a fit records per member, as plain comparable arrays."""
    return [
        (result.deviations, result.p1_statistics,
         {level: (stats.means, stats.stds)
          for level, stats in result.bucket_statistics.items()})
        for result in detector.member_results()
    ]


def _assert_bitwise(first, second):
    assert np.array_equal(first.anomaly_scores(), second.anomaly_scores())
    for (dev_a, p1_a, buckets_a), (dev_b, p1_b, buckets_b) in zip(
            _member_state(first), _member_state(second), strict=True):
        assert np.array_equal(dev_a, dev_b)
        assert p1_a == p1_b
        assert buckets_a.keys() == buckets_b.keys()
        for level in buckets_a:
            assert np.array_equal(buckets_a[level][0], buckets_b[level][0])
            assert np.array_equal(buckets_a[level][1], buckets_b[level][1])


CONFIGS = {
    "analytic-4096": dict(shots=4096),
    "analytic-exact": dict(shots=None),
    "density-matrix-4096": dict(shots=4096, backend="density_matrix"),
}


class TestLoopOracleParity:
    @pytest.mark.parametrize("overrides", CONFIGS.values(), ids=CONFIGS.keys())
    def test_scores_and_statistics_match_the_loops(self, overrides):
        config = QuorumConfig(ensemble_groups=MEMBERS, seed=21, **overrides)
        detector = _fit(config)
        oracle = loop_fit(_features(), config)
        _assert_close(detector.anomaly_scores(), oracle.scores)
        for result, p1_statistics, bucket_statistics in zip(
                detector.member_results(), oracle.p1_statistics,
                oracle.bucket_statistics, strict=True):
            assert result.p1_statistics.keys() == p1_statistics.keys()
            for level, (mean, std) in p1_statistics.items():
                _assert_close(result.p1_statistics[level], (mean, std))
                means, stds = bucket_statistics[level]
                _assert_close(result.bucket_statistics[level].means, means)
                _assert_close(result.bucket_statistics[level].stds, stds)


class TestBitwiseBars:
    @pytest.mark.parametrize("shots", [4096, None])
    def test_any_chunk_size_gives_the_same_fit(self, monkeypatch, shots):
        config = QuorumConfig(ensemble_groups=MEMBERS, seed=22, shots=shots)
        default = _fit(config)
        for members in (1, MEMBERS):
            monkeypatch.setattr(ensemble, "CHUNK_ROWS", members * SAMPLES)
            assert ensemble.members_per_chunk(SAMPLES) == members
            _assert_bitwise(_fit(config), default)

    @pytest.mark.parametrize("shots", [4096, None])
    def test_serial_and_process_pool_fits_are_bitwise_equal(self, shots):
        config = QuorumConfig(ensemble_groups=MEMBERS, seed=23, shots=shots)
        pooled = _fit(config.with_overrides(n_jobs=2))
        if pooled.diagnostics()["executor"] != "processes":
            pytest.skip("the process pool fell back to serial on this host")
        _assert_bitwise(_fit(config), pooled)

    @pytest.mark.parametrize("shots", [4096, None])
    def test_replay_reproduces_the_fit_bitwise(self, shots):
        config = QuorumConfig(ensemble_groups=MEMBERS, seed=24, shots=shots)
        detector = _fit(config)
        with OnlineScorer(ModelArtifact.from_detector(detector)) as scorer:
            replay = scorer.score(_features(), mode="replay")
        assert np.array_equal(replay.scores, detector.anomaly_scores())


class TestPlanning:
    def test_plans_match_the_frozen_loop_planner(self):
        config = QuorumConfig()
        for seed in range(20):
            plan = plan_member(150, 9, config, 0, seed, bucket_size=11)
            frozen = frozen_plan_member(150, 9, config, seed, 11)
            assert np.array_equal(plan.selected_features,
                                  frozen.selected_features)
            assert plan.buckets.buckets == frozen.buckets
            assert np.array_equal(plan.ansatz.angles_, frozen.angles)
            assert plan.rng_state == frozen.rng_state
            assert plan.rng.random() == frozen.rng.random()
            for bucket, samples in enumerate(frozen.buckets):
                assert all(plan.buckets.bucket_of(sample) == bucket
                           for sample in samples)


class TestCompilerIsIdle:
    def test_analytic_fit_never_compiles(self, monkeypatch):
        import repro.core.execution as execution

        compiler = CircuitCompiler()
        monkeypatch.setattr(execution, "default_compiler", lambda: compiler)
        _fit(QuorumConfig(ensemble_groups=8, seed=25, shots=4096))
        assert compiler.stats.compiles == 0
        assert compiler.stats.hits == compiler.stats.misses == 0
        # The counter is live: a circuit-level fit does compile through it.
        _fit(QuorumConfig(ensemble_groups=2, seed=25, shots=4096,
                          backend="density_matrix", gate_level_encoding=True),
             _features(samples=12))
        assert compiler.stats.compiles > 0

    def test_noisy_fit_compiles_one_observable_per_member_and_level(
            self, monkeypatch):
        import repro.core.execution as execution

        compiler = CircuitCompiler()
        monkeypatch.setattr(execution, "default_compiler", lambda: compiler)
        config = QuorumConfig(ensemble_groups=3, seed=27, shots=4096,
                              backend="density_matrix", noisy=True)
        _fit(config, _features(samples=12))
        members_x_levels = 3 * len(config.effective_compression_levels)
        assert compiler.stats.compiles == members_x_levels
        assert compiler.stats.misses == members_x_levels
        assert compiler.stats.fallbacks == 0


class TestLoopBuiltArtifacts:
    """Artifacts keep ``schema_version`` 1: the payload fields are unchanged."""

    def test_loop_built_artifact_loads_and_replays(self, tmp_path):
        config = QuorumConfig(ensemble_groups=MEMBERS, seed=26, shots=4096)
        detector = _fit(config)
        oracle = loop_fit(_features(), config)
        # The artifact a loop-built fit saves: same plans, loop statistics.
        artifact = ModelArtifact.from_detector(detector)
        for member, plan, statistics in zip(artifact.members, oracle.plans,
                                            oracle.bucket_statistics,
                                            strict=True):
            assert member.buckets == plan.buckets
            member.reference = statistics
        loaded = load_model(save_model(artifact, tmp_path / "loop_built.json"))
        assert loaded.schema_version == 1
        with OnlineScorer(loaded) as scorer:
            replay = scorer.score(_features(), mode="replay").scores
            reference = scorer.score(_features()[:5]).scores
        with OnlineScorer(ModelArtifact.from_detector(detector)) as scorer:
            refit_reference = scorer.score(_features()[:5]).scores
        # Replay rescores the saved plans, so it is the refit bitwise and the
        # loop-built fit to round-off; reference scoring reads the saved
        # loop statistics.
        assert np.array_equal(replay, detector.anomaly_scores())
        _assert_close(replay, oracle.scores)
        _assert_close(reference, refit_reference)
