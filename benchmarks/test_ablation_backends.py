"""Ablation: execution-engine comparison (analytic fast path vs full circuits).

DESIGN.md calls out the analytic reduced-density-matrix fast path as a
substitution for full circuit simulation; this benchmark shows the two agree on
the scores they produce and quantifies the speed difference, plus the cost of the
Brisbane-like noisy simulation.
"""

import numpy as np

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import AnalyticEngine, DensityMatrixEngine
from repro.quantum.backends import FakeBrisbane


def _batch(num_samples=32, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.uniform(0.0, 1.0 / np.sqrt(7), size=(num_samples, 7))
    return batch_amplitudes(values, 3)


ANSATZ = RandomAutoencoderAnsatz(3, seed=11)
BATCH = _batch()


def test_engine_analytic_fast_path(benchmark):
    engine = AnalyticEngine(shots=None)
    result = benchmark(engine.p1_batch, BATCH, ANSATZ, 1)
    assert result.shape == (32,)
    assert np.all(result <= 0.5 + 1e-12)


def test_engine_density_matrix_circuit_level(benchmark):
    # Gate-level preparation folds the full circuit, so this is the circuit
    # simulation rather than the analytic kernel noiseless `initialize` runs.
    engine = DensityMatrixEngine(shots=None, gate_level_encoding=True)
    result = benchmark.pedantic(engine.p1_batch, args=(BATCH, ANSATZ, 1),
                                rounds=3, iterations=1)
    exact = AnalyticEngine(shots=None).p1_batch(BATCH, ANSATZ, 1)
    assert np.max(np.abs(result - exact)) <= 1e-12


def test_engine_density_matrix_noisy_brisbane(benchmark):
    engine = DensityMatrixEngine(shots=None,
                                 noise_model=FakeBrisbane(7).to_noise_model(),
                                 gate_level_encoding=True)
    small_batch = BATCH[:8]
    result = benchmark.pedantic(engine.p1_batch, args=(small_batch, ANSATZ, 1),
                                rounds=1, iterations=1)
    exact = AnalyticEngine(shots=None).p1_batch(small_batch, ANSATZ, 1)
    # Noise perturbs but does not destroy the signal.
    assert np.max(np.abs(result - exact)) < 0.15
