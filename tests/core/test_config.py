"""Tests for QuorumConfig validation and derived properties."""

import pytest

from repro.core.config import QuorumConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = QuorumConfig()
        assert config.num_qubits == 3
        assert config.total_circuit_qubits == 7
        assert config.features_per_circuit == 7

    @pytest.mark.parametrize("overrides", [
        {"num_qubits": 1},
        {"num_layers": 0},
        {"entanglement": "star"},
        {"ensemble_groups": 0},
        {"shots": 0},
        {"bucket_probability": 1.5},
        {"anomaly_fraction_estimate": 0.0},
        {"default_anomaly_fraction": 1.0},
        {"backend": "qasm"},
        {"n_jobs": 0},
        {"compression_levels": ()},
        {"compression_levels": (0,)},
        {"compression_levels": (5,)},
        {"feature_scaling": "weird"},
        {"noisy": True},  # noisy requires the density_matrix backend
    ])
    def test_invalid_values_raise(self, overrides):
        with pytest.raises(ValueError):
            QuorumConfig(**overrides)

    def test_noisy_with_density_matrix_backend_is_valid(self):
        config = QuorumConfig(backend="density_matrix", noisy=True)
        assert config.noisy


class TestDerivedProperties:
    def test_default_compression_sweep(self):
        assert QuorumConfig(num_qubits=3).effective_compression_levels == (1, 2)
        assert QuorumConfig(num_qubits=4).effective_compression_levels == (1, 2, 3)

    def test_explicit_compression_levels(self):
        config = QuorumConfig(compression_levels=[2])
        assert config.effective_compression_levels == (2,)

    def test_effective_anomaly_fraction(self):
        assert QuorumConfig().effective_anomaly_fraction == 0.05
        assert QuorumConfig(anomaly_fraction_estimate=0.1).effective_anomaly_fraction == 0.1

    def test_feature_ceiling_modes(self):
        config = QuorumConfig(feature_scaling="circuit_sqrt")
        assert config.feature_ceiling(30) == pytest.approx(1.0 / 7 ** 0.5)
        assert config.feature_ceiling(5) == pytest.approx(1.0 / 5 ** 0.5)
        config = QuorumConfig(feature_scaling="dataset_sqrt")
        assert config.feature_ceiling(16) == pytest.approx(0.25)
        config = QuorumConfig(feature_scaling="dataset_linear")
        assert config.feature_ceiling(10) == pytest.approx(0.1)

    def test_feature_ceiling_rejects_empty(self):
        with pytest.raises(ValueError):
            QuorumConfig().feature_ceiling(0)

    def test_with_overrides_returns_new_config(self):
        base = QuorumConfig()
        modified = base.with_overrides(ensemble_groups=5)
        assert base.ensemble_groups == 50
        assert modified.ensemble_groups == 5

    def test_describe_contains_key_fields(self):
        description = QuorumConfig(seed=9).describe()
        assert description["circuit_qubits"] == 7
        assert description["seed"] == 9


class TestDictRoundTrip:
    def test_to_dict_from_dict_round_trips_every_field(self):
        config = QuorumConfig(num_qubits=4, ensemble_groups=7, shots=None,
                              compression_levels=(1, 3), seed=5, n_jobs=2,
                              compile_circuits=False)
        assert QuorumConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_json_friendly(self):
        import json

        payload = QuorumConfig(compression_levels=(1, 2)).to_dict()
        restored = QuorumConfig.from_dict(json.loads(json.dumps(payload)))
        assert restored.compression_levels == (1, 2)

    def test_from_dict_rejects_unknown_fields(self):
        payload = QuorumConfig().to_dict()
        payload["mystery_knob"] = 1
        with pytest.raises(ValueError, match="mystery_knob"):
            QuorumConfig.from_dict(payload)

    def test_from_dict_drops_retired_scheduling_fields(self):
        config = QuorumConfig(ensemble_groups=3, n_jobs=2)
        payload = config.to_dict()
        payload["executor"] = "threads"
        payload["fused_members"] = True
        assert QuorumConfig.from_dict(payload) == config

    def test_retired_fields_do_not_excuse_unknown_ones(self):
        payload = QuorumConfig().to_dict()
        payload["executor"] = "auto"
        payload["mystery_knob"] = 1
        with pytest.raises(ValueError, match="mystery_knob") as error:
            QuorumConfig.from_dict(payload)
        assert "executor" not in str(error.value)

    def test_from_dict_validates_values(self):
        payload = QuorumConfig().to_dict()
        payload["backend"] = "quantum_annealer"
        with pytest.raises(ValueError):
            QuorumConfig.from_dict(payload)
