"""Tests for the parallel ensemble dispatcher."""

import logging
import pickle

import numpy as np
import pytest

from repro.core.config import QuorumConfig
from repro.core.parallel import derive_member_seeds, run_ensemble_members


def toy_data(seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0 / np.sqrt(7), size=(30, 8))


class TestSeedDerivation:
    def test_count_and_determinism(self):
        first = derive_member_seeds(42, 5)
        second = derive_member_seeds(42, 5)
        assert len(first) == 5
        assert first == second

    def test_distinct_seeds(self):
        seeds = derive_member_seeds(1, 50)
        assert len(set(seeds)) == 50

    def test_different_master_seed_differs(self):
        assert derive_member_seeds(1, 3) != derive_member_seeds(2, 3)

    def test_none_master_seed_is_random_but_valid(self):
        seeds = derive_member_seeds(None, 4)
        assert len(seeds) == 4

    def test_zero_count_raises(self):
        with pytest.raises(ValueError):
            derive_member_seeds(1, 0)


class TestRunMembers:
    def test_serial_execution(self):
        config = QuorumConfig(ensemble_groups=3, shots=None, seed=0, n_jobs=1)
        seeds = derive_member_seeds(0, 3)
        run = run_ensemble_members(toy_data(), config, seeds)
        assert run.executor == "serial"
        assert len(run.results) == 3
        assert len(run.plans) == 3
        assert all(result.deviations.shape == (30,) for result in run.results)

    def test_parallel_matches_serial(self):
        data = toy_data()
        seeds = derive_member_seeds(3, 4)
        serial_config = QuorumConfig(ensemble_groups=4, shots=None, seed=3, n_jobs=1)
        parallel_config = QuorumConfig(ensemble_groups=4, shots=None, seed=3, n_jobs=2)
        serial = run_ensemble_members(data, serial_config, seeds).results
        pooled = run_ensemble_members(data, parallel_config, seeds)
        if pooled.executor != "processes":
            pytest.skip("process pool unavailable here; it fell back to serial")
        for serial_result, parallel_result in zip(serial, pooled.results):
            assert np.array_equal(serial_result.deviations,
                                  parallel_result.deviations)

    def test_explicit_bucket_size_passed_through(self):
        config = QuorumConfig(ensemble_groups=2, shots=None, seed=1)
        results = run_ensemble_members(toy_data(), config, derive_member_seeds(1, 2),
                                       bucket_size=15).results
        assert all(result.bucket_size == 15 for result in results)

    def test_member_indices_are_sequential(self):
        config = QuorumConfig(ensemble_groups=3, shots=None, seed=1)
        results = run_ensemble_members(toy_data(), config,
                                       derive_member_seeds(1, 3)).results
        assert [result.member_index for result in results] == [0, 1, 2]


class TestExecutorSelectionAndFallback:
    @pytest.mark.parametrize("n_jobs,members,expected", [
        (1, 1, "serial"),
        (1, 3, "serial"),
        (2, 1, "serial"),
        (2, 3, "processes"),
        (3, 2, "processes"),
    ])
    def test_executor_chosen_by_n_jobs_and_member_count(
            self, caplog, monkeypatch, n_jobs, members, expected):
        from repro.core import parallel

        pool_calls = []

        def recording_pool(normalized_data, plans, config):
            pool_calls.append(len(plans))
            return parallel.execute_members(normalized_data, plans, config)

        monkeypatch.setattr(parallel, "_run_process_pool", recording_pool)
        config = QuorumConfig(ensemble_groups=members, shots=None, seed=5,
                              n_jobs=n_jobs)
        with caplog.at_level(logging.INFO, logger="repro.core.parallel"):
            run = run_ensemble_members(toy_data(), config,
                                       derive_member_seeds(5, members))
        assert run.executor == expected
        assert f"{expected!r} executor" in caplog.text
        assert pool_calls == ([members] if expected == "processes" else [])
        assert len(run.results) == members

    @pytest.mark.parametrize("error", [
        OSError("no /dev/shm"),
        ValueError("bad shared-memory size"),
        pickle.PicklingError("cannot pickle the plans"),
        RuntimeError("context has already been set"),
    ], ids=lambda error: type(error).__name__)
    def test_every_pool_error_falls_back_bitwise(self, caplog, monkeypatch,
                                                 error):
        from repro.core import parallel

        def failing_pool(normalized_data, plans, config):
            raise error

        monkeypatch.setattr(parallel, "_run_process_pool", failing_pool)
        config = QuorumConfig(ensemble_groups=3, shots=4096, seed=8, n_jobs=2)
        seeds = derive_member_seeds(8, 3)
        with caplog.at_level(logging.INFO, logger="repro.core.parallel"):
            run = run_ensemble_members(toy_data(), config, seeds)
        assert run.executor == "serial"
        assert [result.member_index for result in run.results] == [0, 1, 2]
        assert "falling back to serial" in caplog.text
        assert "'serial' executor" in caplog.text
        reference = run_ensemble_members(
            toy_data(), config.with_overrides(n_jobs=1), seeds).results
        for result, expected in zip(run.results, reference):
            assert np.array_equal(result.deviations, expected.deviations)

    def test_unexpected_pool_error_is_not_masked(self, monkeypatch):
        from repro.core import parallel

        def buggy_pool(normalized_data, plans, config):
            raise KeyError("bug in the pool path")

        monkeypatch.setattr(parallel, "_run_process_pool", buggy_pool)
        config = QuorumConfig(ensemble_groups=2, shots=None, seed=9, n_jobs=2)
        with pytest.raises(KeyError, match="bug in the pool path"):
            run_ensemble_members(toy_data(), config, derive_member_seeds(9, 2))

    def test_pool_failure_recorded_as_serial_in_diagnostics(self, monkeypatch):
        from repro.core import parallel
        from repro.core.detector import QuorumDetector

        def exploding_pool(normalized_data, plans, config):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(parallel, "_run_process_pool", exploding_pool)
        detector = QuorumDetector(ensemble_groups=2, shots=None, seed=3,
                                  n_jobs=2)
        detector.fit(toy_data())
        assert detector.diagnostics()["executor"] == "serial"
        assert detector.diagnostics()["n_jobs"] == 2

    def test_serial_strategy_errors_propagate(self, monkeypatch):
        from repro.core import parallel

        def broken_execute(normalized_data, plans, config):
            raise RuntimeError("member exploded")

        monkeypatch.setattr(parallel, "execute_members", broken_execute)
        config = QuorumConfig(ensemble_groups=2, shots=None, seed=4, n_jobs=1)
        with pytest.raises(RuntimeError, match="member exploded"):
            run_ensemble_members(toy_data(), config, derive_member_seeds(4, 2))

    def test_fallback_after_partial_run_stays_bit_identical(self, monkeypatch):
        """A pool that executes some members before failing must not leak
        their consumed RNG state into the serial fallback."""
        from repro.core import parallel

        def partially_failing_pool(normalized_data, plans, config):
            # Consume the first plan's RNG exactly like a real run would...
            parallel.execute_members(normalized_data, plans[:1], config)
            # ...then die as if the pool broke mid-flight.
            raise RuntimeError("pool collapsed mid-run")

        monkeypatch.setattr(parallel, "_run_process_pool",
                            partially_failing_pool)
        config = QuorumConfig(ensemble_groups=3, shots=4096, seed=6, n_jobs=2)
        seeds = derive_member_seeds(6, 3)
        results = run_ensemble_members(toy_data(), config, seeds).results
        reference = run_ensemble_members(
            toy_data(), config.with_overrides(n_jobs=1), seeds).results
        for result, expected in zip(results, reference):
            assert np.array_equal(result.deviations, expected.deviations)
