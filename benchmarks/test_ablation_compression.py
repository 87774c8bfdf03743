"""Ablation: compression-level sweep vs single compression levels.

Quorum sweeps every compression level (number of qubits reset) inside each
ensemble group (Fig. 6).  This ablation compares the sweep against using only the
shallowest or only the deepest bottleneck, and checks the folded noisy
multi-level sweep against the per-sample oracle.
"""

import numpy as np
from _harness import run_once

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import DensityMatrixEngine
from repro.data.registry import load_dataset
from repro.experiments.common import ExperimentSettings, markdown_table, run_quorum
from repro.metrics.classification import evaluate_top_k
from repro.quantum.backends import FakeBrisbane
from repro.quantum.compiler import CircuitCompiler

SETTINGS = ExperimentSettings(ensemble_groups=40, seed=11)
VARIANTS = {
    "level 1 only": (1,),
    "level 2 only": (2,),
    "sweep (1, 2)": (1, 2),
}


def _sweep():
    results = {}
    for dataset_name in ("breast_cancer", "letter"):
        dataset = load_dataset(dataset_name, seed=SETTINGS.seed)
        per_variant = {}
        for label, levels in VARIANTS.items():
            config = SETTINGS.quorum_config(dataset_name,
                                            compression_levels=levels)
            scores, _ = run_quorum(dataset, config)
            report = evaluate_top_k(scores, dataset.labels, dataset.num_anomalies)
            per_variant[label] = report.f1
        results[dataset_name] = per_variant
    return results


def test_ablation_compression_levels(benchmark):
    results = run_once(benchmark, _sweep)
    print("\n[Ablation] Compression-level sweep vs single levels (F1)\n")
    rows = []
    for dataset_name, per_variant in results.items():
        for label, f1 in per_variant.items():
            rows.append((dataset_name, label, f"{f1:.3f}"))
    print(markdown_table(["Dataset", "Compression", "F1"], rows))

    for dataset_name, per_variant in results.items():
        best_single = max(per_variant["level 1 only"], per_variant["level 2 only"])
        # The multi-level sweep is competitive with the best single level.
        assert per_variant["sweep (1, 2)"] >= best_single - 0.15


def _noisy_fold_parity():
    """The folded noisy sweep against the per-sample oracle on one 7-qubit
    member.

    32 samples x 4 compression levels under the Brisbane-like noise model with
    gate-level state preparation -- the exact shape of one noisy ensemble
    member's compression sweep.  The fold prepares every sample's 3-qubit
    state at once and contracts it with one compiled observable per level;
    the oracle evolves every (sample, level) circuit on all 7 qubits.
    """
    ansatz = RandomAutoencoderAnsatz(3, seed=5)
    rng = np.random.default_rng(0)
    values = rng.uniform(0.0, 1.0 / np.sqrt(7), size=(32, 7))
    values[3] = 0.0  # elides preparation rotations in one row
    amplitudes = batch_amplitudes(values, 3)
    levels = (0, 1, 2, 3)
    noise = FakeBrisbane(7).to_noise_model()
    compiler = CircuitCompiler()
    folded = DensityMatrixEngine(shots=None, noise_model=noise,
                                 gate_level_encoding=True, compiler=compiler)
    oracle = DensityMatrixEngine(shots=None, noise_model=noise,
                                 gate_level_encoding=True,
                                 compile_circuits=False)
    result = folded.p1_levels_batch(amplitudes, ansatz, levels)
    reference = oracle.p1_levels_batch(amplitudes, ansatz, levels)
    return {
        "fold_error": float(np.max(np.abs(result - reference))),
        "compiles": compiler.stats.compiles,
        "fallbacks": compiler.stats.fallbacks,
        "levels": len(levels),
    }


def test_noisy_fold_matches_oracle(benchmark):
    results = run_once(benchmark, _noisy_fold_parity)
    print("\n[Ablation] Noisy level sweep, fold vs per-sample oracle "
          "(32 samples x 4 levels, Brisbane noise)\n")
    print(markdown_table(
        ["Max error", "Observables compiled", "Fallbacks"],
        [(f"{results['fold_error']:.2e}", str(results["compiles"]),
          str(results["fallbacks"]))]))
    assert results["fold_error"] <= 1e-12
    # One compiled observable per level of the member, and no fallback:
    # Brisbane noise is gate-local.
    assert results["compiles"] == results["levels"]
    assert results["fallbacks"] == 0
