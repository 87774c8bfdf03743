"""Amplitude encoding with an overflow state (Section IV-B of the paper).

A sample's (normalized, feature-selected) values are squared to obtain
probabilities; whatever probability mass is missing to reach 1 is assigned to the
*overflow state*, the last computational basis state.  The square roots of those
probabilities are the amplitudes of the encoded quantum state.

Two encoding routes are provided:

* :func:`preparation_schedule` decomposes a whole batch of states into
  multiplexed RY rotations + CX gates at once -- this is what the paper's
  "amplitude embedding" compiles to and what the noisy simulations consume;
  :func:`state_preparation_circuit` emits its one-row case as a circuit.
* ``QuantumCircuit.initialize`` consumes the amplitudes directly; the simulators
  treat it as an exact state preparation (faster, used for noiseless sweeps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.circuit import QuantumCircuit

__all__ = [
    "amplitude_probabilities",
    "amplitudes_from_features",
    "preparation_schedule",
    "state_preparation_circuit",
    "ROTATION_TOLERANCE",
    "AmplitudeEncoder",
]

_TOLERANCE = 1e-9

#: Rotations by at most this angle are left out of a preparation circuit.
ROTATION_TOLERANCE = _TOLERANCE

#: One step of a batched state preparation: ``((target,), angles)`` for an RY
#: with one angle per row, ``((control, target), None)`` for a CX.
PreparationStep = Tuple[Tuple[int, ...], Optional[np.ndarray]]


def amplitude_probabilities(features: Sequence[float], num_qubits: int) -> np.ndarray:
    """Squared features padded with the overflow state, as a probability vector.

    Parameters
    ----------
    features:
        At most ``2**num_qubits - 1`` normalized feature values in ``[0, 1]`` whose
        squares sum to at most 1.
    num_qubits:
        Size of the target register.

    Returns
    -------
    numpy.ndarray
        Length ``2**num_qubits`` probability vector; the last entry is the overflow
        probability.
    """
    features = np.asarray(features, dtype=float).ravel()
    dim = 2 ** num_qubits
    if features.shape[0] > dim - 1:
        raise ValueError(
            f"{features.shape[0]} features do not fit in {num_qubits} qubits "
            f"(at most {dim - 1} plus the overflow state)"
        )
    if np.any(features < -_TOLERANCE):
        raise ValueError("features must be non-negative after normalization")
    probabilities = np.zeros(dim, dtype=float)
    probabilities[: features.shape[0]] = np.clip(features, 0.0, None) ** 2
    total = probabilities.sum()
    if total > 1.0 + 1e-6:
        raise ValueError(
            f"squared features sum to {total:.6f} > 1; normalize the data first"
        )
    probabilities[-1] += max(1.0 - total, 0.0)
    return probabilities / probabilities.sum()


def amplitudes_from_features(features: Sequence[float], num_qubits: int) -> np.ndarray:
    """Amplitude vector (square roots of :func:`amplitude_probabilities`)."""
    return np.sqrt(amplitude_probabilities(features, num_qubits))


def _validated_register_size(amplitudes: np.ndarray) -> int:
    """Check a ``(samples, 2**n)`` batch of non-negative normalized rows and
    return ``n``."""
    if amplitudes.ndim != 2:
        raise ValueError("amplitudes must be a 2-D batch (samples, 2**n)")
    if np.any(amplitudes < -_TOLERANCE):
        raise ValueError("state preparation supports non-negative amplitudes only")
    size = amplitudes.shape[1]
    num_qubits = int(round(math.log2(size))) if size else 0
    if size == 0 or 2 ** num_qubits != size:
        raise ValueError(f"amplitude vector length {size} is not a power of two")
    norms = np.sqrt(np.einsum("si,si->s", amplitudes, amplitudes))
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError("amplitudes must be normalized")
    return num_qubits


def _multiplexed_ry_schedule(schedule: List[PreparationStep],
                             angles: np.ndarray, controls: Sequence[int],
                             target: int) -> None:
    """Recursively decompose a uniformly controlled RY into RY and CX steps.

    ``angles`` is ``(samples, 2**len(controls))``; column ``m`` is the angle
    used when the controls read the little-endian pattern ``m``.
    """
    if not controls:
        schedule.append(((target,), np.ascontiguousarray(angles[:, 0])))
        return
    half = angles.shape[1] // 2
    low = angles[:, :half]   # most-significant control = 0
    high = angles[:, half:]  # most-significant control = 1
    last_control = controls[-1]
    _multiplexed_ry_schedule(schedule, (low + high) / 2.0, controls[:-1], target)
    schedule.append(((last_control, target), None))
    _multiplexed_ry_schedule(schedule, (low - high) / 2.0, controls[:-1], target)
    schedule.append(((last_control, target), None))


def preparation_schedule(amplitudes: np.ndarray) -> List[PreparationStep]:
    """The Mottonen state preparation of every row of ``amplitudes`` at once.

    This is the one definition of the decomposition: an RY rotation on the
    most significant qubit followed by multiplexed RY rotations working down
    to qubit 0, each multiplexor split recursively into RY and CX gates.
    Every row shares the gate sequence; only the angles differ.

    Returns the sequence of steps ``(qubits, angles)``: an RY on
    ``qubits = (target,)`` carries its ``(samples,)`` angles, and a CX on
    ``qubits = (control, target)`` carries ``None``.  A rotation whose angle
    is at most ``1e-9`` in magnitude is not part of that row's circuit
    (:func:`state_preparation_circuit` leaves it out).  Every row's angles
    come from elementwise arithmetic on that row alone.
    """
    amplitudes = np.asarray(amplitudes, dtype=float)
    num_qubits = _validated_register_size(amplitudes)
    # masses[:, m] is the probability that qubits t.. read the pattern m;
    # pairing its even/odd entries splits on qubit t under the controls above.
    masses = amplitudes ** 2
    conditional = []
    for _ in range(num_qubits):
        pairs = masses.reshape(masses.shape[0], -1, 2)
        zero, one = pairs[:, :, 0], pairs[:, :, 1]
        masses = zero + one
        angles = 2.0 * np.arctan2(np.sqrt(one), np.sqrt(zero))
        conditional.append(np.where(masses < _TOLERANCE, 0.0, angles))
    schedule: List[PreparationStep] = []
    for target in reversed(range(num_qubits)):
        _multiplexed_ry_schedule(schedule, conditional[target],
                                 list(range(target + 1, num_qubits)), target)
    return schedule


def state_preparation_circuit(amplitudes: Sequence[float],
                              num_qubits: int = None) -> QuantumCircuit:
    """Gate-level preparation of a state with non-negative real amplitudes.

    The one-row case of :func:`preparation_schedule` (Mottonen-style RY and CX
    gates).  Only non-negative real amplitudes are supported (which is all
    Quorum needs, since its amplitudes are square roots of probabilities).
    Rotations by at most ``1e-9`` are left out.
    """
    amplitudes = np.asarray(amplitudes, dtype=float).ravel()
    schedule = preparation_schedule(amplitudes[None, :])
    inferred = int(round(math.log2(amplitudes.shape[0])))
    if num_qubits is None:
        num_qubits = inferred
    elif num_qubits != inferred:
        raise ValueError("num_qubits inconsistent with the amplitude vector")
    circuit = QuantumCircuit(num_qubits, 0 if num_qubits == 0 else num_qubits,
                             name="state_prep")
    for qubits, angles in schedule:
        if angles is None:
            circuit.cx(*qubits)
        elif abs(angles[0]) > ROTATION_TOLERANCE:
            circuit.ry(float(angles[0]), qubits[0])
    return circuit


@dataclass(frozen=True)
class AmplitudeEncoder:
    """Encoder bound to a register size, exposing both encoding routes.

    Attributes
    ----------
    num_qubits:
        Register size; ``2**num_qubits - 1`` features fit (plus overflow).
    """

    num_qubits: int

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("the encoder needs at least one qubit")

    @property
    def max_features(self) -> int:
        """Number of data features that fit alongside the overflow state."""
        return 2 ** self.num_qubits - 1

    def probabilities(self, features: Sequence[float]) -> np.ndarray:
        """Probability vector (squared features + overflow)."""
        return amplitude_probabilities(features, self.num_qubits)

    def amplitudes(self, features: Sequence[float]) -> np.ndarray:
        """Amplitude vector for the encoded state."""
        return amplitudes_from_features(features, self.num_qubits)

    def encoding_circuit(self, features: Sequence[float],
                         gate_level: bool = False) -> QuantumCircuit:
        """Circuit preparing the encoded state on a fresh register.

        Parameters
        ----------
        features:
            Normalized feature values.
        gate_level:
            When True, synthesize explicit RY/CX gates; otherwise emit a single
            ``initialize`` instruction (exact, faster to simulate).
        """
        amplitudes = self.amplitudes(features)
        if gate_level:
            return state_preparation_circuit(amplitudes, self.num_qubits)
        circuit = QuantumCircuit(self.num_qubits, self.num_qubits, name="amp_encode")
        circuit.initialize(amplitudes, list(range(self.num_qubits)))
        return circuit
