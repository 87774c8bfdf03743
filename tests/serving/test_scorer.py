"""Online-scorer tests: bitwise round-trip parity, micro-batching, determinism."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.core import ensemble
from repro.core.detector import QuorumDetector
from repro.core.ensemble import CHUNK_ROWS, members_per_chunk
from repro.core.execution import AnalyticEngine
from repro.quantum.compiler import CircuitCompiler
from repro.serving import scorer as scorer_module
from repro.serving.artifact import MemberArtifact, load_model, save_model
from repro.serving.scorer import OnlineScorer

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _toy_data(samples=36, features=7, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(samples, features))


def _spy(monkeypatch, owner, name):
    """Record every call of ``owner.name`` (a class method or a module
    function) in the returned list, then run the original."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _fit_and_save(tmp_path, data, **overrides):
    detector = QuorumDetector(**overrides)
    detector.fit(data)
    path = save_model(detector, tmp_path / "model.json")
    return detector, path


class TestReplayParity:
    """fit -> save -> load -> replay must equal anomaly_scores() bitwise."""

    @pytest.mark.parametrize("compile_circuits", [True, False])
    @pytest.mark.parametrize("shots", [None, 4096])
    def test_analytic(self, tmp_path, shots, compile_circuits):
        data = _toy_data()
        detector, path = _fit_and_save(
            tmp_path, data, ensemble_groups=4, seed=7, shots=shots,
            compile_circuits=compile_circuits)
        with OnlineScorer(load_model(path)) as scorer:
            replay = scorer.score(data, mode="replay")
        assert np.array_equal(replay.scores, detector.anomaly_scores())
        assert replay.num_runs == detector.scores().num_runs

    @pytest.mark.parametrize("compile_circuits", [True, False])
    def test_noisy_density_matrix(self, tmp_path, compile_circuits):
        data = _toy_data(samples=18, features=3)
        detector, path = _fit_and_save(
            tmp_path, data, ensemble_groups=2, seed=5, shots=256,
            backend="density_matrix", noisy=True, num_qubits=2,
            compile_circuits=compile_circuits)
        with OnlineScorer(load_model(path)) as scorer:
            replay = scorer.score(data, mode="replay")
        assert np.array_equal(replay.scores, detector.anomaly_scores())

    def test_noiseless_density_matrix(self, tmp_path):
        data = _toy_data()
        detector, path = _fit_and_save(
            tmp_path, data, ensemble_groups=3, seed=9, shots=1024,
            backend="density_matrix")
        with OnlineScorer(load_model(path)) as scorer:
            replay = scorer.score(data, mode="replay")
        assert np.array_equal(replay.scores, detector.anomaly_scores())

    def test_statevector(self, tmp_path):
        data = _toy_data(samples=20, features=5)
        detector, path = _fit_and_save(
            tmp_path, data, ensemble_groups=2, seed=13, shots=256,
            backend="statevector")
        with OnlineScorer(load_model(path)) as scorer:
            replay = scorer.score(data, mode="replay")
        assert np.array_equal(replay.scores, detector.anomaly_scores())

    def test_replay_in_a_fresh_process(self, tmp_path):
        """The acceptance criterion verbatim: a new interpreter, no refit."""
        data = _toy_data()
        detector, path = _fit_and_save(tmp_path, data, ensemble_groups=3,
                                       seed=21, shots=2048)
        data_path = tmp_path / "train.npy"
        np.save(data_path, data)
        script = (
            "import json, sys; import numpy as np; "
            "from repro.serving import load_model, OnlineScorer; "
            f"data = np.load({str(data_path)!r}); "
            f"scorer = OnlineScorer(load_model({str(path)!r})); "
            "result = scorer.score(data, mode='replay'); scorer.close(); "
            "print(json.dumps(result.scores.tolist()))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        output = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True, check=True)
        fresh = np.array(json.loads(output.stdout))
        assert np.array_equal(fresh, detector.anomaly_scores())

    def test_replay_rejects_wrong_sample_count(self, tmp_path):
        data = _toy_data()
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=2, seed=1,
                                shots=128)
        with OnlineScorer(load_model(path)) as scorer:
            with pytest.raises(ValueError, match="replay mode requires"):
                scorer.score(data[:5], mode="replay")


class TestReferenceScoring:
    def test_unseen_samples_score_deterministically(self, tmp_path):
        data = _toy_data()
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=3, seed=3,
                                shots=1024)
        unseen = _toy_data(samples=6, seed=99)
        with OnlineScorer(load_model(path)) as scorer:
            first = scorer.score(unseen)
            second = scorer.score(unseen)
        assert np.array_equal(first.scores, second.scores)
        assert first.num_samples == 6
        assert first.num_runs == 3 * 2

    def test_submitted_request_matches_direct_score(self, tmp_path):
        """Per-request RNG restoration: routing a request through the
        micro-batch queue cannot change its scores."""
        data = _toy_data()
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=3, seed=3,
                                shots=512)
        unseen = _toy_data(samples=4, seed=50)
        with OnlineScorer(load_model(path)) as scorer:
            direct = scorer.score(unseen).scores
            queued = scorer.submit(unseen).result(timeout=60).scores
        assert np.array_equal(direct, queued)

    def test_obvious_outlier_ranks_first(self, tmp_path):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(60, 6))
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=8, seed=17,
                                shots=None)
        probes = np.vstack([rng.normal(size=(7, 6)),
                            np.full((1, 6), 30.0)])  # far outside the range
        with OnlineScorer(load_model(path)) as scorer:
            scores = scorer.score(probes).scores
        assert scores.argmax() == 7

    def test_input_validation(self, tmp_path):
        data = _toy_data()
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=2, seed=1,
                                shots=64)
        with OnlineScorer(load_model(path)) as scorer:
            with pytest.raises(ValueError, match="features"):
                scorer.score(np.zeros((3, 99)))
            with pytest.raises(ValueError, match="unknown scoring mode"):
                scorer.score(data[:2], mode="nope")
            single = scorer.score(data[0])  # 1-D row is promoted to a batch
            assert single.num_samples == 1


class TestConcurrencyAndCaching:
    def test_concurrent_submission_matches_serial_bitwise(self, tmp_path):
        data = _toy_data(samples=48)
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=4, seed=31,
                                shots=2048)
        requests = [_toy_data(samples=1 + (i % 5), seed=100 + i)
                    for i in range(24)]
        with OnlineScorer(load_model(path)) as scorer:
            serial = [scorer.score(request).scores for request in requests]
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = list(pool.map(scorer.submit, requests))
            concurrent = [future.result(timeout=120).scores
                          for future in futures]
            diagnostics = scorer.diagnostics()
        for expected, actual in zip(serial, concurrent):
            assert np.array_equal(expected, actual)
        assert diagnostics["serving"]["requests"] == 48
        assert diagnostics["serving"]["batches"] >= 1

    def test_shared_generators_survive_thread_contention(self, tmp_path):
        """Direct, queued and session requests from more threads than cores
        share the member generators; a reset or draw racing another
        request's would change its bits."""
        data = _toy_data(samples=48)
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=4, seed=31,
                                shots=2048)
        requests = [_toy_data(samples=1 + (i % 3), seed=200 + i)
                    for i in range(12)]
        with OnlineScorer(load_model(path)) as scorer:
            serial = [scorer.score(request).scores for request in requests]

            def work(index):
                request = requests[index]
                if index % 3 == 0:
                    return scorer.submit(request).result(timeout=60).scores
                if index % 3 == 1:
                    return scorer.score_stateful(
                        request, scorer.fresh_member_rngs()).scores
                return scorer.score(request).scores

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    results = list(pool.map(
                        work, list(range(len(requests))) * 3, timeout=120))
            finally:
                sys.setswitchinterval(interval)
        for index, scores in enumerate(results):
            assert np.array_equal(scores, serial[index % len(requests)])

    def test_compiled_programs_are_reused_across_requests(self, tmp_path):
        data = _toy_data(samples=12)
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=3, seed=2,
                                shots=512, backend="density_matrix",
                                gate_level_encoding=True)
        compiler = CircuitCompiler()
        with OnlineScorer(load_model(path), compiler=compiler) as scorer:
            scorer.score(data[:2])  # cold: compiles each member's programs
            cold = compiler.stats
            compiles_after_warmup = cold.compiles
            assert compiles_after_warmup > 0
            hits_before = cold.hits
            for start in range(0, 10, 2):
                scorer.score(_toy_data(samples=2, seed=start))
            warm = compiler.stats
        assert warm.compiles == compiles_after_warmup  # nothing recompiled
        assert warm.hits >= hits_before + 5 * 3  # every request reused programs

    def test_noisy_one_row_requests_compile_only_once(self, tmp_path):
        """Sample data never reaches a compiled program: the first request
        compiles one observable per (member, level), later ones none."""
        data = _toy_data(samples=18, features=3)
        detector, path = _fit_and_save(
            tmp_path, data, ensemble_groups=2, seed=5, shots=256,
            backend="density_matrix", noisy=True, num_qubits=2)
        levels = len(detector.config.effective_compression_levels)
        compiler = CircuitCompiler()
        with OnlineScorer(load_model(path), compiler=compiler) as scorer:
            scorer.score(data[:1])
            assert compiler.stats.compiles == 2 * levels
            scorer.score(data[1:2])
            scorer.score(_toy_data(samples=1, features=3, seed=9))
        assert compiler.stats.compiles == 2 * levels
        assert compiler.stats.hits == 2 * 2 * levels
        assert compiler.stats.fallbacks == 0

    def test_analytic_requests_reuse_cached_encoders_without_compiling(
            self, tmp_path, monkeypatch):
        """The encoder stack is built once at load; requests build none."""
        data = _toy_data()
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=3, seed=2,
                                shots=512)
        compiler = CircuitCompiler()
        with OnlineScorer(load_model(path), compiler=compiler) as scorer:
            stacks = _spy(monkeypatch, scorer_module, "encoder_unitaries")
            encoders = _spy(monkeypatch, RandomAutoencoderAnsatz,
                            "encoder_unitary")
            for start in range(0, 10, 2):
                scorer.score(_toy_data(samples=2, seed=start))
        assert stacks == encoders == []
        assert compiler.stats.compiles == 0
        assert compiler.stats.hits == compiler.stats.misses == 0

    @pytest.mark.parametrize("chunk_rows", [CHUNK_ROWS, 2])
    def test_one_row_analytic_score_takes_the_stacked_path(
            self, tmp_path, monkeypatch, chunk_rows):
        """One ``exact_levels_stack`` per member chunk; no per-member engine
        call and no RNG decode after load."""
        data = _toy_data()
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=5, seed=2,
                                shots=512)
        with OnlineScorer(load_model(path)) as scorer:
            monkeypatch.setattr(ensemble, "CHUNK_ROWS", chunk_rows)
            stacks = _spy(monkeypatch, AnalyticEngine, "exact_levels_stack")
            per_member = _spy(monkeypatch, AnalyticEngine, "p1_levels_batch")
            decodes = _spy(monkeypatch, MemberArtifact, "restored_rng")
            first = scorer.score(data[:1]).scores
            chunks = len(stacks)
            second = scorer.score(data[:1]).scores
        assert chunks == -(-5 // members_per_chunk(1))
        assert len(stacks) == 2 * chunks
        assert per_member == decodes == []
        assert np.array_equal(first, second)

    def test_micro_batch_respects_sample_budget(self, tmp_path):
        data = _toy_data()
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=2, seed=4,
                                shots=128)
        with OnlineScorer(load_model(path), max_batch_samples=4,
                          batch_window_s=0.05) as scorer:
            futures = [scorer.submit(_toy_data(samples=3, seed=i))
                       for i in range(6)]
            results = [future.result(timeout=120) for future in futures]
            diagnostics = scorer.diagnostics()
        assert all(result.num_samples == 3 for result in results)
        # 6 requests x 3 samples with a 4-sample budget cannot fit one batch.
        assert diagnostics["serving"]["batches"] >= 2

    def test_cancelled_request_is_skipped(self, tmp_path):
        """A future cancelled before the worker reaches it does no work."""
        data = _toy_data()
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=2, seed=4,
                                shots=128)
        with OnlineScorer(load_model(path), batch_window_s=0.2) as scorer:
            doomed = scorer.submit(data[:1])
            survivor = scorer.submit(data[1:2])
            assert doomed.cancel()  # still pending inside the window
            result = survivor.result(timeout=60)
        assert result.num_samples == 1
        assert doomed.cancelled()

    def test_submit_after_close_raises(self, tmp_path):
        data = _toy_data()
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=2, seed=4,
                                shots=128)
        scorer = OnlineScorer(load_model(path))
        scorer.close()
        with pytest.raises(RuntimeError, match="closed"):
            scorer.submit(data[:1])

    def test_diagnostics_shape(self, tmp_path):
        data = _toy_data()
        _, path = _fit_and_save(tmp_path, data, ensemble_groups=2, seed=4,
                                shots=128)
        with OnlineScorer(load_model(path)) as scorer:
            scorer.score(data[:1])
            diagnostics = scorer.diagnostics()
        assert diagnostics["model"]["schema_version"] == 1
        assert {"compiles", "hits", "misses",
                "entries", "bytes"} <= set(diagnostics["compiler_cache"])
        assert diagnostics["serving"]["samples"] == 1
