"""ModelRegistry: identity, lifecycle, and the shared compiler cache."""

from datetime import datetime, timezone

import numpy as np
import pytest

from repro.core.detector import QuorumDetector
from repro.quantum.compiler import CircuitCompiler
from repro.serving.artifact import ModelArtifact, load_model, save_model
from repro.serving.models import ApiError
from repro.serving.registry import ID_DIGEST_CHARS, ModelRegistry
from repro.serving.scorer import OnlineScorer


def _toy_data(samples=24, features=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(samples, features))


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    data = _toy_data()
    detector = QuorumDetector(ensemble_groups=2, seed=11, shots=512,
                              compile_circuits=True)
    detector.fit(data)
    path = save_model(detector,
                      tmp_path_factory.mktemp("registry") / "model.json")
    return {"data": data, "detector": detector, "path": path}


@pytest.fixture(scope="module")
def circuit_bundle(tmp_path_factory):
    """A model whose engine runs compiled circuit programs (the analytic
    engine never uses the compiler)."""
    data = _toy_data(samples=12)
    detector = QuorumDetector(ensemble_groups=2, seed=11, shots=512,
                              backend="density_matrix",
                              gate_level_encoding=True)
    detector.fit(data)
    path = save_model(detector,
                      tmp_path_factory.mktemp("registry") / "circuit.json")
    return {"data": data, "path": path}


class TestIdentity:
    def test_derived_id_is_sha_prefix(self, bundle):
        with ModelRegistry(compiler=CircuitCompiler()) as registry:
            entry = registry.load(bundle["path"])
            assert entry.model_id == entry.sha256[:ID_DIGEST_CHARS]
            assert len(entry.sha256) == 64

    def test_sha_is_stable_across_load_and_memory(self, bundle):
        artifact = load_model(bundle["path"])
        in_memory = ModelArtifact.from_detector(bundle["detector"])
        assert artifact.content_sha256() == in_memory.content_sha256()

    def test_creation_stamp_does_not_change_identity(self, bundle,
                                                     monkeypatch, tmp_path):
        import repro.serving.artifact as artifact_module

        stamps = iter([datetime(2026, 1, 1, 0, 0, 0, tzinfo=timezone.utc),
                       datetime(2026, 1, 1, 0, 0, 1, tzinfo=timezone.utc)])

        class SteppingClock:
            @staticmethod
            def now(tz=None):
                return next(stamps)

        monkeypatch.setattr(artifact_module, "datetime", SteppingClock)
        first = ModelArtifact.from_detector(bundle["detector"])
        second = ModelArtifact.from_detector(bundle["detector"])
        assert first.created_at != second.created_at
        assert first.content_sha256() == second.content_sha256()
        first_path = save_model(first, tmp_path / "first.json")
        second_path = save_model(second, tmp_path / "second.json")
        with ModelRegistry(compiler=CircuitCompiler()) as registry:
            first_entry = registry.load(first_path)
            second_entry = registry.load(second_path)
            assert first_entry.sha256 == second_entry.sha256
            assert first_entry.model_id == second_entry.model_id

    def test_identical_reload_is_idempotent(self, bundle):
        with ModelRegistry(compiler=CircuitCompiler()) as registry:
            first = registry.load(bundle["path"], model_id="m")
            second = registry.load(bundle["path"], model_id="m")
            assert second is first
            assert len(registry) == 1

    def test_id_conflict_with_different_content_is_model_exists(self, bundle,
                                                                tmp_path):
        other = QuorumDetector(ensemble_groups=2, seed=99, shots=512)
        other.fit(bundle["data"])
        other_path = save_model(other, tmp_path / "other.json")
        with ModelRegistry(compiler=CircuitCompiler()) as registry:
            registry.load(bundle["path"], model_id="m")
            with pytest.raises(ApiError) as excinfo:
                registry.load(other_path, model_id="m")
            assert excinfo.value.code == "model_exists"
            assert excinfo.value.http_status == 409

    def test_resolve_by_id_sha_and_default(self, bundle):
        with ModelRegistry(compiler=CircuitCompiler()) as registry:
            entry = registry.load(bundle["path"], model_id="prod")
            assert registry.get("prod") is entry
            assert registry.get(entry.sha256) is entry
            assert registry.get() is entry  # None -> default (first loaded)
            assert registry.default_id() == "prod"

    def test_unknown_id_is_model_not_found(self, bundle):
        with ModelRegistry(compiler=CircuitCompiler()) as registry:
            registry.load(bundle["path"])
            with pytest.raises(ApiError) as excinfo:
                registry.get("missing")
            assert excinfo.value.code == "model_not_found"
            assert excinfo.value.http_status == 404

    def test_corrupt_bundle_is_bad_request(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with ModelRegistry(compiler=CircuitCompiler()) as registry:
            with pytest.raises(ApiError) as excinfo:
                registry.load(bad)
            assert excinfo.value.code == "bad_request"


class TestLifecycle:
    def test_unload_removes_and_closes(self, bundle):
        with ModelRegistry(compiler=CircuitCompiler()) as registry:
            registry.load(bundle["path"], model_id="a")
            entry = registry.unload("a")
            assert len(registry) == 0
            with pytest.raises(ApiError):
                registry.get("a")
            # the scorer is closed: its worker rejects new work
            with pytest.raises(RuntimeError):
                entry.scorer.submit(bundle["data"][:1])

    def test_closed_registry_refuses_loads(self, bundle):
        registry = ModelRegistry(compiler=CircuitCompiler())
        registry.close()
        with pytest.raises(ApiError) as excinfo:
            registry.load(bundle["path"])
        assert excinfo.value.code == "shutting_down"

    def test_adopt_scorer_keeps_prebuilt_instance(self, bundle):
        scorer = OnlineScorer(load_model(bundle["path"]))
        with ModelRegistry(compiler=CircuitCompiler()) as registry:
            entry = registry.adopt_scorer(scorer, model_id="pre")
            assert entry.scorer is scorer
            assert registry.get("pre").sha256 == entry.sha256


class TestSharedCompilerCache:
    def test_two_models_share_compiled_programs(self, circuit_bundle):
        """Acceptance criterion: two concurrently served artifacts share the
        compiler cache -- scoring via the second id adds NO new compiles,
        only hits."""
        compiler = CircuitCompiler()
        with ModelRegistry(compiler=compiler) as registry:
            registry.load(circuit_bundle["path"], model_id="a")
            registry.load(circuit_bundle["path"], model_id="b")
            probe = circuit_bundle["data"][:4]

            registry.get("a").scorer.submit(probe).result(timeout=60)
            warm = compiler.stats
            warm_compiles, warm_hits = warm.compiles, warm.hits
            assert warm_compiles > 0

            registry.get("b").scorer.submit(probe).result(timeout=60)
            after = compiler.stats
            assert after.compiles == warm_compiles
            assert after.hits > warm_hits

    def test_diagnostics_exposes_cache_counters(self, bundle):
        with ModelRegistry(compiler=CircuitCompiler()) as registry:
            registry.load(bundle["path"], model_id="a")
            diag = registry.diagnostics()
            assert [m["model_id"] for m in diag["models"]] == ["a"]
            assert diag["models"][0]["is_default"] is True
            assert set(diag["compiler_cache"]) == {
                "compiles", "hits", "misses", "fallbacks", "entries", "bytes"}
