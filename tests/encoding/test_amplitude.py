"""Tests for amplitude encoding and the state-preparation synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.amplitude import (
    AmplitudeEncoder,
    amplitude_probabilities,
    amplitudes_from_features,
    preparation_schedule,
    state_preparation_circuit,
)
from repro.quantum.simulator import DensityMatrixSimulator


def random_features(num_features, seed, scale=None):
    rng = np.random.default_rng(seed)
    scale = scale if scale is not None else 1.0 / np.sqrt(num_features)
    return rng.uniform(0.0, scale, size=num_features)


def prepared_magnitudes(circuit):
    """``|amplitude|`` of every basis state the circuit prepares from |0>."""
    rho = DensityMatrixSimulator().evolve(circuit).data
    return np.sqrt(np.clip(np.real(np.diag(rho)), 0.0, None))


class TestAmplitudeProbabilities:
    def test_probabilities_sum_to_one(self):
        probs = amplitude_probabilities([0.2, 0.3, 0.1], 2)
        assert np.isclose(probs.sum(), 1.0)

    def test_overflow_takes_residual_mass(self):
        probs = amplitude_probabilities([0.5], 1)
        assert np.isclose(probs[0], 0.25)
        assert np.isclose(probs[1], 0.75)

    def test_too_many_features_raises(self):
        with pytest.raises(ValueError):
            amplitude_probabilities([0.1] * 4, 2)

    def test_negative_feature_raises(self):
        with pytest.raises(ValueError):
            amplitude_probabilities([-0.5, 0.1], 2)

    def test_oversized_mass_raises(self):
        with pytest.raises(ValueError):
            amplitude_probabilities([1.0, 1.0], 2)

    def test_amplitudes_are_square_roots(self):
        features = [0.3, 0.4]
        probs = amplitude_probabilities(features, 2)
        amps = amplitudes_from_features(features, 2)
        assert np.allclose(amps ** 2, probs)

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_full_feature_set_normalized(self, seed):
        features = random_features(7, seed)
        probs = amplitude_probabilities(features, 3)
        assert probs.shape == (8,)
        assert np.isclose(probs.sum(), 1.0)
        assert np.all(probs >= 0)


class TestStatePreparation:
    @given(seed=st.integers(min_value=0, max_value=500),
           num_qubits=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_synthesized_circuit_prepares_target_state(self, seed, num_qubits):
        features = random_features(2 ** num_qubits - 1, seed,
                                   scale=1.0 / np.sqrt(2 ** num_qubits))
        amplitudes = amplitudes_from_features(features, num_qubits)
        circuit = state_preparation_circuit(amplitudes)
        assert np.allclose(prepared_magnitudes(circuit), amplitudes, atol=1e-9)

    def test_sparse_amplitudes(self):
        amplitudes = np.zeros(8)
        amplitudes[0] = 1.0
        circuit = state_preparation_circuit(amplitudes)
        assert np.isclose(prepared_magnitudes(circuit)[0], 1.0)

    def test_uniform_superposition(self):
        amplitudes = np.full(4, 0.5)
        circuit = state_preparation_circuit(amplitudes)
        assert np.allclose(prepared_magnitudes(circuit), 0.5, atol=1e-9)

    def test_only_ry_and_cx_gates_used(self):
        amplitudes = amplitudes_from_features([0.2, 0.3, 0.1], 2)
        circuit = state_preparation_circuit(amplitudes)
        names = {instr.name for instr in circuit.instructions}
        assert names <= {"ry", "cx"}

    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError):
            state_preparation_circuit([0.8, -0.6])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            state_preparation_circuit([0.5, 0.5])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            state_preparation_circuit([0.6, 0.6, np.sqrt(1 - 0.72)])

    def test_num_qubits_mismatch_raises(self):
        with pytest.raises(ValueError):
            state_preparation_circuit([1.0, 0.0], num_qubits=2)


class TestPreparationSchedule:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_batch_rows_are_bitwise_their_one_row_schedules(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        features = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits),
                               size=(7, 2 ** num_qubits - 1))
        features[2] = 0.0
        batch = np.stack([amplitudes_from_features(row, num_qubits)
                          for row in features])
        schedule = preparation_schedule(batch)
        assert sum(angles is not None for _, angles in schedule) \
            == 2 ** num_qubits - 1
        for index, row in enumerate(batch):
            alone = preparation_schedule(row[None, :])
            assert [qubits for qubits, _ in alone] \
                == [qubits for qubits, _ in schedule]
            for (_, angles), (_, row_angles) in zip(schedule, alone):
                if angles is None:
                    assert row_angles is None
                else:
                    assert angles[index] == row_angles[0]

    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
    def test_schedule_prepares_every_row(self, num_qubits):
        """Walking the batched schedule on statevectors, every rotation kept,
        prepares each row's amplitudes (qubit ``q`` is bit ``q`` of the
        basis index)."""
        rng = np.random.default_rng(10 + num_qubits)
        features = rng.uniform(0.0, 1.0 / np.sqrt(2 ** num_qubits),
                               size=(6, 2 ** num_qubits - 1))
        features[3] = 0.0
        batch = np.stack([amplitudes_from_features(row, num_qubits)
                          for row in features])
        samples = batch.shape[0]
        states = np.zeros((samples,) + (2,) * num_qubits)
        states[(slice(None),) + (0,) * num_qubits] = 1.0

        def axis(qubit):
            return num_qubits - qubit

        for qubits, angles in preparation_schedule(batch):
            if angles is None:
                control, target = axis(qubits[0]), axis(qubits[1])
                states = np.moveaxis(states, (control, target), (1, 2)).copy()
                states[:, 1] = states[:, 1, ::-1].copy()
                states = np.moveaxis(states, (1, 2), (control, target))
                continue
            cosine = np.cos(angles / 2.0)
            sine = np.sin(angles / 2.0)
            gates = np.stack([np.stack([cosine, -sine], axis=1),
                              np.stack([sine, cosine], axis=1)], axis=1)
            moved = np.moveaxis(states, axis(qubits[0]), 1)
            moved = np.einsum("sij,sj...->si...", gates, moved)
            states = np.moveaxis(moved, 1, axis(qubits[0]))
        assert np.max(np.abs(states.reshape(samples, -1) - batch)) <= 1e-12

    def test_circuit_is_the_one_row_schedule_with_elisions(self):
        amplitudes = np.zeros(8)
        amplitudes[:2] = np.sqrt(0.5)  # only qubit 0 rotates
        schedule = preparation_schedule(amplitudes[None, :])
        circuit = state_preparation_circuit(amplitudes)
        expected = [(("ry" if angles is not None else "cx"), qubits)
                    for qubits, angles in schedule
                    if angles is None or abs(angles[0]) > 1e-9]
        assert [(instr.name, instr.qubits)
                for instr in circuit.instructions] == expected
        assert len(circuit.instructions) < len(schedule)

    def test_rejects_invalid_batches(self):
        with pytest.raises(ValueError, match="2-D"):
            preparation_schedule(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="non-negative"):
            preparation_schedule(np.array([[0.8, -0.6]]))
        with pytest.raises(ValueError, match="normalized"):
            preparation_schedule(np.array([[1.0, 0.0], [0.5, 0.5]]))


class TestAmplitudeEncoder:
    def test_max_features(self):
        assert AmplitudeEncoder(3).max_features == 7

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            AmplitudeEncoder(0)

    def test_initialize_route_matches_gate_route(self):
        encoder = AmplitudeEncoder(2)
        features = [0.3, 0.25, 0.4]
        exact = prepared_magnitudes(
            encoder.encoding_circuit(features, gate_level=False))
        synthesized = prepared_magnitudes(
            encoder.encoding_circuit(features, gate_level=True))
        assert np.allclose(exact, synthesized, atol=1e-9)

    def test_probabilities_and_amplitudes_consistent(self):
        encoder = AmplitudeEncoder(3)
        features = random_features(7, 3)
        assert np.allclose(encoder.amplitudes(features) ** 2,
                           encoder.probabilities(features))
