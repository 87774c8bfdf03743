"""Ablation: compression-level sweep vs single compression levels.

Quorum sweeps every compression level (number of qubits reset) inside each
ensemble group (Fig. 6).  This ablation compares the sweep against using only the
shallowest or only the deepest bottleneck, and benchmarks the prefix-checkpointed
noisy multi-level walk against the historical per-level walk.
"""

import time

import numpy as np
from _harness import run_once

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core.ensemble import batch_amplitudes
from repro.core.execution import DensityMatrixEngine
from repro.data.registry import load_dataset
from repro.experiments.common import ExperimentSettings, markdown_table, run_quorum
from repro.metrics.classification import evaluate_top_k
from repro.quantum.backends import FakeBrisbane

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


def _noisy_sweep_timings():
    """Compiled vs checkpointed vs per-level noisy sweep on one 7-qubit member.

    32 samples x 4 compression levels under the Brisbane-like noise model with
    gate-level state preparation -- the exact shape of one noisy ensemble
    member's compression sweep.  Three generations of the same computation:

    * per-level: the original walk, re-simulating the full circuit per level;
    * checkpointed: the PR 3 walk -- shared prefix evolved once, the suffix
      interpreted gate by gate per level (``compile_circuits=False``);
    * compiled: the current default -- shared prefix runs execute as fused
      operators and each level's suffix is one cached Heisenberg-picture
      observable, i.e. a single batched matmul against the checkpoint.
    """
    ansatz = RandomAutoencoderAnsatz(3, seed=5)
    rng = np.random.default_rng(0)
    amplitudes = batch_amplitudes(
        rng.uniform(0.0, 1.0 / np.sqrt(7), size=(32, 7)), 3
    )
    levels = (0, 1, 2, 3)
    noise = FakeBrisbane(7).to_noise_model()
    compiled_engine = DensityMatrixEngine(shots=None, noise_model=noise,
                                          gate_level_encoding=True)
    interpreted_engine = DensityMatrixEngine(shots=None, noise_model=noise,
                                             gate_level_encoding=True,
                                             compile_circuits=False)

    compiled_seconds = checkpointed_seconds = per_level_seconds = float("inf")
    for _ in range(2):  # best-of-two damps scheduler jitter on shared CI hosts
        start = time.perf_counter()
        compiled = compiled_engine.p1_levels_batch(amplitudes, ansatz, levels)
        compiled_seconds = min(compiled_seconds, time.perf_counter() - start)
        start = time.perf_counter()
        checkpointed = interpreted_engine.p1_levels_batch(amplitudes, ansatz,
                                                          levels)
        checkpointed_seconds = min(checkpointed_seconds,
                                   time.perf_counter() - start)
        start = time.perf_counter()
        per_level = np.stack([
            interpreted_engine.p1_batch_circuit_level(amplitudes, ansatz, level)
            for level in levels
        ])
        per_level_seconds = min(per_level_seconds, time.perf_counter() - start)

    reference = np.stack([
        interpreted_engine.p1_per_sample_circuit_level(amplitudes, ansatz, level)
        for level in levels
    ])
    return {
        "compiled_seconds": compiled_seconds,
        "checkpointed_seconds": checkpointed_seconds,
        "per_level_seconds": per_level_seconds,
        "per_level_error": float(np.max(np.abs(checkpointed - per_level))),
        "reference_error": float(np.max(np.abs(checkpointed - reference))),
        "compiled_error": float(np.max(np.abs(compiled - reference))),
    }


def test_noisy_checkpointed_sweep_beats_per_level_walk(benchmark):
    results = run_once(benchmark, _noisy_sweep_timings)
    checkpoint_speedup = (results["per_level_seconds"]
                          / results["checkpointed_seconds"])
    compile_speedup = (results["checkpointed_seconds"]
                       / results["compiled_seconds"])
    print("\n[Ablation] Noisy level sweep "
          "(32 samples x 4 levels, Brisbane noise)\n")
    print(markdown_table(
        ["Walk", "Seconds", "Max error vs per-sample reference"],
        [("per-level", f"{results['per_level_seconds']:.3f}", "--"),
         ("checkpointed", f"{results['checkpointed_seconds']:.3f}",
          f"{results['reference_error']:.2e}"),
         ("compiled", f"{results['compiled_seconds']:.3f}",
          f"{results['compiled_error']:.2e}")]))
    print(f"\ncheckpoint speedup: {checkpoint_speedup:.2f}x, "
          f"compilation speedup on top: {compile_speedup:.2f}x")

    # Correctness gates every run: both fast walks must match the per-sample
    # reference (and the checkpointed walk its per-level twin).
    assert results["per_level_error"] <= 1e-10
    assert results["reference_error"] <= 1e-10
    assert results["compiled_error"] <= 1e-10
    # The wall-clock claims -- the checkpoint walks the prefix once per sweep
    # (~1.9x observed), and compilation turns the per-level suffix into one
    # cached matmul (~3x observed on top of the checkpoint; 1.5x leaves
    # headroom for CI noise) -- are only asserted where timings are the job's
    # purpose: the tier-1 suite runs these files with --benchmark-disable (and
    # coverage tracing), where a wall-clock assert would just add flake to
    # unrelated changes.
    if benchmark.enabled:
        assert checkpoint_speedup >= 1.5
        assert compile_speedup >= 1.5
