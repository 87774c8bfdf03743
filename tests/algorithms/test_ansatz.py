"""Tests for the random autoencoder ansatz."""

import numpy as np
import pytest

from repro.algorithms.ansatz import RandomAutoencoderAnsatz
from tests.oracle import gate_by_gate_encoder_unitary, unitaries_equivalent


class TestConstruction:
    def test_parameter_count(self):
        ansatz = RandomAutoencoderAnsatz(num_qubits=3, num_layers=2)
        assert ansatz.num_parameters == 12
        assert ansatz.angles_.shape == (12,)

    def test_angles_in_range(self):
        ansatz = RandomAutoencoderAnsatz(num_qubits=4, num_layers=3, seed=5)
        assert np.all(ansatz.angles_ >= 0.0)
        assert np.all(ansatz.angles_ <= 2.0 * np.pi)

    def test_seed_reproducibility(self):
        first = RandomAutoencoderAnsatz(3, seed=42)
        second = RandomAutoencoderAnsatz(3, seed=42)
        assert np.allclose(first.angles_, second.angles_)

    def test_different_seeds_differ(self):
        first = RandomAutoencoderAnsatz(3, seed=1)
        second = RandomAutoencoderAnsatz(3, seed=2)
        assert not np.allclose(first.angles_, second.angles_)

    def test_explicit_angles_accepted(self):
        angles = np.linspace(0, 1, 12)
        ansatz = RandomAutoencoderAnsatz(3, angles_=angles)
        assert np.allclose(ansatz.angles_, angles)

    def test_explicit_angles_wrong_shape_raise(self):
        with pytest.raises(ValueError):
            RandomAutoencoderAnsatz(3, angles_=np.zeros(5))

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            RandomAutoencoderAnsatz(0)
        with pytest.raises(ValueError):
            RandomAutoencoderAnsatz(3, num_layers=0)
        with pytest.raises(ValueError):
            RandomAutoencoderAnsatz(3, entanglement="star")


class TestCircuits:
    def test_encoder_gate_content(self):
        ansatz = RandomAutoencoderAnsatz(3, num_layers=2, seed=0)
        counts = ansatz.encoder_circuit().count_ops()
        assert counts["rx"] == 6
        assert counts["rz"] == 6
        assert counts["cx"] == 4  # linear chain, 2 per layer

    def test_ring_entanglement_adds_wraparound(self):
        ansatz = RandomAutoencoderAnsatz(3, num_layers=1, entanglement="ring", seed=0)
        assert ansatz.encoder_circuit().count_ops()["cx"] == 3

    def test_full_entanglement_pairs(self):
        ansatz = RandomAutoencoderAnsatz(3, num_layers=1, entanglement="full", seed=0)
        assert ansatz.encoder_circuit().count_ops()["cx"] == 3

    def test_decoder_inverts_encoder(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=3)
        encoder = ansatz.encoder_circuit()
        decoder = ansatz.decoder_circuit()
        combined = encoder.copy()
        combined.compose(decoder)
        assert unitaries_equivalent(combined.to_unitary(), np.eye(8))

    def test_encoder_on_shifted_qubits(self):
        ansatz = RandomAutoencoderAnsatz(2, seed=4)
        circuit = ansatz.encoder_circuit(qubits=[3, 4], num_circuit_qubits=5)
        touched = {q for instr in circuit.instructions for q in instr.qubits}
        assert touched == {3, 4}

    def test_qubit_list_length_mismatch_raises(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=1)
        with pytest.raises(ValueError):
            ansatz.encoder_circuit(qubits=[0, 1])

    def test_encoder_unitary_is_unitary(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=9)
        unitary = ansatz.encoder_unitary()
        assert np.allclose(unitary @ unitary.conj().T, np.eye(8), atol=1e-9)

    def test_encoder_unitary_matches_the_gate_by_gate_oracle(self):
        ansatz = RandomAutoencoderAnsatz(3, seed=7)
        assert np.allclose(ansatz.encoder_unitary(),
                           gate_by_gate_encoder_unitary(ansatz), rtol=0,
                           atol=1e-12)

    def test_with_new_angles_keeps_structure(self):
        ansatz = RandomAutoencoderAnsatz(3, num_layers=4, entanglement="ring", seed=1)
        fresh = ansatz.with_new_angles(seed=2)
        assert fresh.num_layers == 4
        assert fresh.entanglement == "ring"
        assert not np.allclose(fresh.angles_, ansatz.angles_)
