"""Determinism and regression suite for the plan/execute architecture.

Three invariants guard the refactor:

* for a fixed seed, the serial loop and the process pool produce *identical*
  detector scores (the plans carry the member RNG, so where a plan runs
  cannot change its randomness);
* the fused ``(levels x samples)`` batch reproduces the historical per-level
  loop (bit-identically for the engines that override it);
* the batched noisy circuit walk reproduces the per-sample walk to 1e-10.
"""

import pickle

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.config import QuorumConfig
from repro.core.detector import QuorumDetector
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import (
    AnalyticEngine,
    DensityMatrixEngine,
    StatevectorEngine,
)


def toy_data(num_samples=50, num_features=9, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(num_samples, num_features))


def make_batch(num_samples=12, num_qubits=3, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits - 1),
                         size=(num_samples, 2 ** num_qubits - 1))
    return batch_amplitudes(values, num_qubits)


def require_pool(detector):
    """Skip when the pool fell back to serial: serial vs serial shows nothing."""
    if detector.diagnostics()["executor"] != "processes":
        pytest.skip("process pool unavailable here; it fell back to serial")


class TestExecutorDeterminism:
    """Fixed seed => identical scores, serial or on the process pool."""

    @pytest.mark.parametrize("shots", [None, 4096])
    def test_scores_identical_serial_and_processes(self, shots):
        data = toy_data()
        serial = QuorumDetector(ensemble_groups=4, shots=shots, seed=42,
                                n_jobs=1).fit(data)
        pooled = QuorumDetector(ensemble_groups=4, shots=shots, seed=42,
                                n_jobs=2).fit(data)
        require_pool(pooled)
        assert np.array_equal(serial.anomaly_scores(), pooled.anomaly_scores())

    def test_noisy_backend_identical_serial_and_processes(self):
        data = toy_data(num_samples=16, num_features=4)
        base = dict(ensemble_groups=2, shots=256, seed=9, num_qubits=2,
                    backend="density_matrix", noisy=True)
        serial = QuorumDetector(**base, n_jobs=1).fit(data)
        pooled = QuorumDetector(**base, n_jobs=2).fit(data)
        require_pool(pooled)
        assert np.array_equal(serial.anomaly_scores(), pooled.anomaly_scores())

    def test_serial_run_recorded_in_diagnostics(self):
        detector = QuorumDetector(ensemble_groups=2, shots=None, seed=1,
                                  n_jobs=1)
        detector.fit(toy_data(num_samples=20))
        assert detector.diagnostics()["executor"] == "serial"
        assert detector.diagnostics()["n_jobs"] == 1

    def test_pool_run_recorded_in_diagnostics(self, monkeypatch):
        from repro.core import parallel

        # A stand-in pool that always succeeds, so the recorded executor does
        # not depend on whether this host can start worker processes.
        monkeypatch.setattr(parallel, "_run_process_pool", parallel.execute_members)
        detector = QuorumDetector(ensemble_groups=2, shots=None, seed=1,
                                  n_jobs=2)
        detector.fit(toy_data(num_samples=20))
        assert detector.diagnostics()["executor"] == "processes"


class TestFusedLevelBatch:
    """p1_levels_batch == the historical per-level p1_batch loop."""

    @pytest.mark.parametrize("engine_cls", [AnalyticEngine, DensityMatrixEngine])
    @pytest.mark.parametrize("shots", [None, 2048])
    def test_fused_matches_per_level_loop_bitwise(self, engine_cls, shots):
        ansatz = RandomAutoencoderAnsatz(3, seed=21)
        batch = make_batch(seed=1)
        levels = [1, 2]
        fused = engine_cls(
            shots=shots, rng=np.random.default_rng(5)
        ).p1_levels_batch(batch, ansatz, levels)
        loop_engine = engine_cls(shots=shots, rng=np.random.default_rng(5))
        looped = np.stack([loop_engine.p1_batch(batch, ansatz, level)
                           for level in levels])
        assert fused.shape == (2, batch.shape[0])
        assert np.array_equal(fused, looped)

    def test_statevector_default_stacking_matches_loop(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=22)
        batch = make_batch(seed=2)
        fused = StatevectorEngine(
            shots=128, rng=np.random.default_rng(3)
        ).p1_levels_batch(batch, ansatz, [1, 2])
        loop_engine = StatevectorEngine(shots=128, rng=np.random.default_rng(3))
        looped = np.stack([loop_engine.p1_batch(batch, ansatz, level)
                           for level in [1, 2]])
        assert np.array_equal(fused, looped)

    def test_fused_noisy_matches_per_level_loop(self):
        from repro.quantum.backends import FakeBrisbane

        ansatz = RandomAutoencoderAnsatz(2, seed=23)
        batch = make_batch(num_samples=4, num_qubits=2, seed=3)
        noise = FakeBrisbane(5).to_noise_model()
        fused = DensityMatrixEngine(
            shots=None, noise_model=noise, gate_level_encoding=True
        ).p1_levels_batch(batch, ansatz, [1, 2])
        loop_engine = DensityMatrixEngine(shots=None, noise_model=noise,
                                          gate_level_encoding=True)
        looped = np.stack([loop_engine.p1_batch(batch, ansatz, level)
                           for level in [1, 2]])
        assert np.allclose(fused, looped, atol=1e-10)

    def test_empty_levels_rejected(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=24)
        with pytest.raises(ValueError, match="at least one compression level"):
            AnalyticEngine(shots=None).p1_levels_batch(make_batch(), ansatz, [])

    def test_out_of_range_level_rejected(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=25)
        with pytest.raises(ValueError, match="compression level"):
            AnalyticEngine(shots=None).p1_levels_batch(make_batch(), ansatz,
                                                       [1, 7])


class TestBatchedNoisyWalk:
    """The batched circuit walk == the per-sample reference walk (<= 1e-10)."""

    @pytest.mark.parametrize("gate_level", [False, True])
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_noiseless_walks_agree(self, gate_level, level):
        ansatz = RandomAutoencoderAnsatz(2, seed=31)
        batch = make_batch(num_samples=5, num_qubits=2, seed=4)
        engine = DensityMatrixEngine(shots=None,
                                     gate_level_encoding=gate_level)
        batched = engine.p1_batch_circuit_level(batch, ansatz, level)
        per_sample = engine.p1_per_sample_circuit_level(batch, ansatz, level)
        assert np.allclose(batched, per_sample, atol=1e-10)

    @pytest.mark.parametrize("gate_level", [False, True])
    def test_noisy_walks_agree(self, gate_level):
        from repro.quantum.backends import FakeBrisbane

        ansatz = RandomAutoencoderAnsatz(2, seed=32)
        batch = make_batch(num_samples=4, num_qubits=2, seed=5)
        noise = FakeBrisbane(5).to_noise_model()
        engine = DensityMatrixEngine(shots=None, noise_model=noise,
                                     gate_level_encoding=gate_level)
        batched = engine.p1_batch_circuit_level(batch, ansatz, 1)
        per_sample = engine.p1_per_sample_circuit_level(batch, ansatz, 1)
        assert np.allclose(batched, per_sample, atol=1e-10)

    def test_chunked_walk_matches_unchunked(self):
        from repro.quantum.simulator import BatchedDensityMatrixSimulator
        from repro.algorithms.autoencoder import build_autoencoder_circuit

        ansatz = RandomAutoencoderAnsatz(2, seed=33)
        batch = make_batch(num_samples=6, num_qubits=2, seed=6)
        circuits = [build_autoencoder_circuit(row, ansatz, 1, measure=False)
                    for row in batch]
        walker = BatchedDensityMatrixSimulator()
        unchunked = walker.evolve_batch(circuits)
        walker.MAX_FLAT_ELEMENTS = 2 ** 5  # forces one-circuit chunks
        chunked = walker.evolve_batch(circuits)
        assert np.allclose(unchunked, chunked, atol=1e-12)

    def test_structurally_different_circuits_grouped_correctly(self):
        """Zero-amplitude features elide prep rotations; grouping must scatter
        results back into input order."""
        ansatz = RandomAutoencoderAnsatz(2, seed=34)
        batch = make_batch(num_samples=4, num_qubits=2, seed=7)
        # Make two samples structurally different: all mass on the overflow
        # state zeroes several multiplexed-RY angles.
        sparse = np.zeros(4)
        sparse[-1] = 1.0
        batch[1] = sparse
        batch[3] = sparse
        engine = DensityMatrixEngine(shots=None, gate_level_encoding=True)
        batched = engine.p1_batch_circuit_level(batch, ansatz, 1)
        per_sample = engine.p1_per_sample_circuit_level(batch, ansatz, 1)
        assert np.allclose(batched, per_sample, atol=1e-10)


class TestMemberPlans:
    def test_plans_are_picklable_and_reusable(self):
        from repro.core.ensemble import execute_member, plan_member

        config = QuorumConfig(ensemble_groups=1, shots=None, seed=0)
        data = toy_data(num_samples=30)
        normalized = data / (np.max(data) * np.sqrt(7))
        plan = plan_member(30, 9, config, member_index=2, member_seed=77)
        restored = pickle.loads(pickle.dumps(plan))
        original = execute_member(normalized, plan, config)
        roundtripped = execute_member(normalized, restored, config)
        assert np.array_equal(original.deviations, roundtripped.deviations)
        assert original.member_index == roundtripped.member_index == 2

    def test_plan_plus_execute_equals_run_ensemble_member(self):
        from repro.core.ensemble import (
            execute_member,
            plan_member,
            run_ensemble_member,
        )

        config = QuorumConfig(ensemble_groups=1, shots=4096, seed=0)
        data = toy_data(num_samples=40)
        normalized = data / (np.max(data) * np.sqrt(7))
        plan = plan_member(40, 9, config, member_index=0, member_seed=5)
        split = execute_member(normalized, plan, config)
        direct = run_ensemble_member(normalized, config, 0, member_seed=5)
        assert np.array_equal(split.deviations, direct.deviations)
        assert np.array_equal(split.selected_features, direct.selected_features)
        assert split.p1_statistics == direct.p1_statistics

    def test_planning_needs_only_the_shape(self):
        from repro.core.ensemble import plan_member

        config = QuorumConfig(ensemble_groups=1, shots=None, seed=0)
        plan = plan_member(100, 20, config, member_index=1, member_seed=3)
        assert plan.selected_features.shape == (7,)
        assert plan.buckets.num_samples == 100
        with pytest.raises(ValueError):
            plan_member(0, 20, config, 0, 0)
