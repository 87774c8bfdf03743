"""The traced fit: ``QuorumDetector.fit`` rebuilt from public layer calls.

Each layer call is wrapped in a span from this file; nothing is added to the
program.  The rebuild is checked bitwise against ``QuorumDetector.fit`` with
the same seed, so the spans time exactly the work a fit does.

The rebuild runs on a private ``CircuitCompiler`` that stays warm across the
run, while the untraced fits use the process-wide one.  Both caches then hold
the angle-independent programs and neither holds the angles of the fit being
timed, so traced and untraced fits do the same compiles and their wall times
can be compared.
"""

from __future__ import annotations

import time
from typing import Dict, List, Sequence

import numpy as np

from repro.core import (QuorumConfig, QuorumDetector, apply_shot_noise,
                        bucket_deviations, bucket_size_for_probability,
                        bucket_statistics, make_engine, plan_members)
from repro.core.ensemble import batch_amplitudes
from repro.core.parallel import derive_member_seeds
from repro.encoding import QuorumNormalizer
from repro.quantum.compiler import CircuitCompiler

from common import Result, bitwise_equal, median
from spans import Tracer, coverage, layer_self_times

#: Span name -> per-layer metric name (milliseconds of self time per fit).
LAYERS = {
    "normalization.fit": "normalization.fit_ms",
    "parallel.plan": "parallel.plan_ms",
    "ensemble.amplitudes": "ensemble.amplitudes_ms",
    "execution.engine": "execution.engine_ms",
    "execution.shot_noise": "execution.shot_noise_ms",
    "scoring.bucket": "scoring.bucket_ms",
}


def traced_fit(tracer: Tracer, features: np.ndarray, config: QuorumConfig,
               compiler: CircuitCompiler, request_id: str) -> np.ndarray:
    """Anomaly scores of ``QuorumDetector(config).fit(features)``, one span
    per layer call; the root span is ``fit``."""
    with tracer.span("fit", request_id=request_id):
        with tracer.span("normalization.fit"):
            normalizer = QuorumNormalizer(
                target_max=config.feature_ceiling(features.shape[1]))
            normalized = normalizer.fit_transform(features)
        rows, columns = normalized.shape
        with tracer.span("parallel.plan"):
            bucket_size = bucket_size_for_probability(
                rows, config.effective_anomaly_fraction,
                config.bucket_probability)
            seeds = derive_member_seeds(config.seed, config.ensemble_groups)
            plans = plan_members(rows, columns, config, seeds,
                                 bucket_size=bucket_size)
        levels = config.effective_compression_levels
        total = np.zeros(rows)
        for plan in plans:
            with tracer.span("ensemble.amplitudes"):
                amplitudes = batch_amplitudes(
                    normalized[:, plan.selected_features], config.num_qubits)
            with tracer.span("execution.engine"):
                engine = make_engine(
                    config.backend, None, noisy=config.noisy,
                    gate_level_encoding=config.gate_level_encoding,
                    num_qubits=config.num_qubits,
                    simulation_backend=config.simulation_backend,
                    compile_circuits=config.compile_circuits,
                    compiler=compiler)
                exact = engine.p1_levels_batch(amplitudes, plan.ansatz, levels)
            with tracer.span("execution.shot_noise"):
                p1 = apply_shot_noise(exact, config.shots, plan.rng)
            with tracer.span("scoring.bucket"):
                deviations = np.zeros(rows)
                for position in range(len(levels)):
                    reference = bucket_statistics(p1[position], plan.buckets)
                    deviations += bucket_deviations(p1[position], plan.buckets,
                                                    statistics=reference)
            total += deviations
    return total


def trace_fit_layers(result: Result, tracer: Tracer, dataset,
                     config: QuorumConfig, seeds: Sequence[int],
                     seconds: float) -> QuorumDetector:
    """Alternate untraced fits and traced rebuilds on fresh seeds for
    ``seconds``; report the fit layers and return the last fitted detector.

    The first seed warms the private compiler and is not reported.
    """
    features = dataset.features_only()
    rows = features.shape[0]
    compiler = CircuitCompiler()
    per_layer: Dict[str, List[float]] = {name: [] for name in LAYERS}
    untraced: List[float] = []
    traced: List[float] = []
    covered: List[float] = []
    compiles: List[float] = []
    hit_ratio: List[float] = []
    deadline = None
    for iteration, fit_seed in enumerate(seeds):
        if traced and time.perf_counter() >= deadline:
            break
        seeded = config.with_overrides(seed=int(fit_seed))
        start = time.perf_counter()
        detector = QuorumDetector(seeded).fit(dataset)
        untraced_s = time.perf_counter() - start
        before = (compiler.stats.compiles, compiler.stats.hits,
                  compiler.stats.misses)
        root = len(tracer.spans)
        start = time.perf_counter()
        rebuilt = traced_fit(tracer, features, seeded, compiler,
                             request_id=f"fit{iteration}")
        traced_s = time.perf_counter() - start
        result.check(bitwise_equal(rebuilt, detector.anomaly_scores()),
                     f"traced rebuild of fit seed {fit_seed} differs from "
                     "QuorumDetector.fit")
        if deadline is None:
            deadline = time.perf_counter() + seconds
            continue
        untraced.append(untraced_s)
        traced.append(traced_s)
        selves = layer_self_times(tracer.spans, root)
        for name in LAYERS:
            per_layer[name].append(selves.get(name, 0.0))
        covered.append(coverage(tracer.spans, root))
        lookups_hits = compiler.stats.hits - before[1]
        lookups = lookups_hits + compiler.stats.misses - before[2]
        compiles.append(compiler.stats.compiles - before[0])
        hit_ratio.append(lookups_hits / lookups if lookups else 0.0)

    fits = len(traced)
    for name, metric in LAYERS.items():
        result.metric(metric, median(per_layer[name]) * 1e3, "ms", fits)
    runs = config.ensemble_groups * len(config.effective_compression_levels) * rows
    result.metric("execution.engine_us_per_run",
                  median(per_layer["execution.engine"]) * 1e6 / runs, "us", fits)
    result.metric("compiler.compiles_per_fit", median(compiles), "count", fits)
    result.metric("compiler.hit_ratio", median(hit_ratio), "ratio", fits)
    result.metric("compiler.cache_mb", compiler.cache_bytes() / 2 ** 20, "MB", 1)
    result.metric("trace.coverage", median(covered), "ratio", fits)
    result.metric("trace.overhead", median(traced) / median(untraced) - 1.0,
                  "ratio", fits)
    return detector
