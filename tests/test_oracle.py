"""The reference helpers in :mod:`tests.oracle` must be able to fail.

A phase-blind comparison that always answered "equal" would make every
substrate test that leans on it pass vacuously.
"""

import numpy as np

from repro.quantum import gates
from tests.oracle import unitaries_equivalent


class TestUnitaryEquivalence:
    def test_equal_up_to_phase(self):
        assert unitaries_equivalent(gates.H, np.exp(0.3j) * gates.H)
        assert unitaries_equivalent(gates.rz_matrix(1.1),
                                    gates.phase_matrix(1.1))

    def test_detects_difference(self):
        assert not unitaries_equivalent(gates.X, gates.Z)
        assert not unitaries_equivalent(gates.rx_matrix(0.4),
                                        gates.rx_matrix(0.41))

    def test_shape_mismatch(self):
        assert not unitaries_equivalent(np.eye(2), np.eye(4))
