"""Tests for the full Quorum circuit assembly and the analytic fast path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from repro.algorithms.autoencoder import (
    QuorumCircuitFactory,
    analytic_swap_test_p1,
    build_autoencoder_circuit,
    build_autoencoder_prefix,
    build_autoencoder_suffix,
)
from repro.algorithms.swap_test import p1_from_counts
from repro.encoding.amplitude import amplitudes_from_features
from repro.quantum.simulator import DensityMatrixSimulator


def sample_amplitudes(seed=0, num_qubits=3):
    rng = np.random.default_rng(seed)
    features = rng.uniform(0, 1.0 / np.sqrt(2 ** num_qubits),
                           size=2 ** num_qubits - 1)
    return amplitudes_from_features(features, num_qubits)


class TestCircuitAssembly:
    def test_circuit_dimensions(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=1)
        circuit = build_autoencoder_circuit(sample_amplitudes(), ansatz, 1)
        assert circuit.num_qubits == 7
        assert circuit.count_ops()["measure"] == 1
        assert circuit.count_ops()["cswap"] == 3
        assert circuit.count_ops()["reset"] == 1

    def test_compression_level_controls_reset_count(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=1)
        for level in range(4):
            circuit = build_autoencoder_circuit(sample_amplitudes(), ansatz, level)
            assert circuit.count_ops().get("reset", 0) == level

    def test_gate_level_encoding_has_no_initialize(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=1)
        circuit = build_autoencoder_circuit(sample_amplitudes(1, 2), ansatz, 1,
                                            gate_level_encoding=True)
        assert "initialize" not in circuit.count_ops()
        assert circuit.count_ops()["ry"] > 0

    def test_wrong_amplitude_length_raises(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=1)
        with pytest.raises(ValueError):
            build_autoencoder_circuit(np.array([1.0, 0.0]), ansatz, 1)

    def test_invalid_compression_level_raises(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=1)
        with pytest.raises(ValueError):
            build_autoencoder_circuit(sample_amplitudes(), ansatz, 4)

    def test_factory_accessors(self):
        factory = QuorumCircuitFactory(RandomAutoencoderAnsatz(3, seed=2))
        assert factory.num_qubits == 3
        assert factory.total_qubits == 7


class TestPrefixSuffixSplit:
    """The prefix/suffix builders must compose into exactly the full circuit."""

    @pytest.mark.parametrize("gate_level", [False, True])
    @pytest.mark.parametrize("level", [0, 1, 3])
    def test_prefix_plus_suffix_equals_full_circuit(self, gate_level, level):
        ansatz = RandomAutoencoderAnsatz(3, seed=4)
        amplitudes = sample_amplitudes(7)
        full = build_autoencoder_circuit(amplitudes, ansatz, level,
                                         gate_level_encoding=gate_level)
        prefix = build_autoencoder_prefix(amplitudes, ansatz,
                                          gate_level_encoding=gate_level)
        suffix = build_autoencoder_suffix(ansatz, level)
        assert full.instructions == prefix.instructions + suffix.instructions

    def test_prefix_is_level_independent_and_suffix_is_sample_independent(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=4)
        prefix = build_autoencoder_prefix(sample_amplitudes(7), ansatz)
        # The prefix carries the sample data but no reset/decoder/SWAP block ...
        ops = prefix.count_ops()
        assert "reset" not in ops and "cswap" not in ops and "measure" not in ops
        # ... while the suffix carries the level but no sample data.
        suffix = build_autoencoder_suffix(ansatz, 2, measure=False)
        assert suffix.count_ops()["reset"] == 2
        assert suffix.count_ops()["cswap"] == 3
        assert all(instruction.state is None
                   for instruction in suffix.instructions)

    def test_suffix_rejects_out_of_range_level(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=4)
        with pytest.raises(ValueError, match="compression level"):
            build_autoencoder_suffix(ansatz, 4)

    def test_factory_exposes_the_split(self):
        factory = QuorumCircuitFactory(RandomAutoencoderAnsatz(2, seed=2))
        amplitudes = sample_amplitudes(3, 2)
        combined = factory.prefix(amplitudes).compose(factory.suffix(1))
        assert combined.instructions == factory.circuit(amplitudes, 1).instructions


class TestAnalyticFastPath:
    def test_zero_compression_gives_zero_p1(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=5)
        assert analytic_swap_test_p1(sample_amplitudes(), ansatz, 0) == pytest.approx(0.0)

    def test_p1_bounded_by_half(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=6)
        for level in (1, 2, 3):
            p1 = analytic_swap_test_p1(sample_amplitudes(3), ansatz, level)
            assert 0.0 <= p1 <= 0.5

    def test_more_compression_does_not_decrease_p1_on_average(self):
        values = {1: [], 2: []}
        for seed in range(12):
            ansatz = RandomAutoencoderAnsatz(3, seed=seed)
            amplitudes = sample_amplitudes(seed)
            for level in (1, 2):
                values[level].append(analytic_swap_test_p1(amplitudes, ansatz, level))
        assert np.mean(values[2]) >= np.mean(values[1]) - 1e-6

    @given(seed=st.integers(min_value=0, max_value=200),
           level=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_analytic_matches_density_matrix_simulation(self, seed, level):
        ansatz = RandomAutoencoderAnsatz(3, seed=seed)
        amplitudes = sample_amplitudes(seed)
        analytic = analytic_swap_test_p1(amplitudes, ansatz, level)
        circuit = build_autoencoder_circuit(amplitudes, ansatz, level, measure=False)
        final = DensityMatrixSimulator().evolve(circuit)
        simulated = final.probability_of_outcome(6, 1)
        assert analytic == pytest.approx(simulated, abs=1e-9)

    def test_analytic_matches_sampled_counts(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=11)
        amplitudes = sample_amplitudes(4, 2)
        analytic = analytic_swap_test_p1(amplitudes, ansatz, 1)
        circuit = build_autoencoder_circuit(amplitudes, ansatz, 1, measure=True)
        result = DensityMatrixSimulator(seed=3).run(circuit, shots=4000)
        sampled = p1_from_counts(result.counts)
        assert abs(sampled - analytic) < 0.05

    def test_identical_samples_have_identical_p1(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=8)
        amplitudes = sample_amplitudes(9)
        first = analytic_swap_test_p1(amplitudes, ansatz, 2)
        second = analytic_swap_test_p1(amplitudes, ansatz, 2)
        assert first == pytest.approx(second)

    def test_wrong_amplitude_length_raises(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=1)
        with pytest.raises(ValueError):
            analytic_swap_test_p1(np.array([1.0, 0.0]), ansatz, 1)
