"""Classical-to-quantum data encoding: normalization and amplitude embedding."""

from repro.encoding.normalization import QuorumNormalizer, normalize_dataset
from repro.encoding.amplitude import (
    AmplitudeEncoder,
    amplitude_probabilities,
    amplitudes_from_features,
    preparation_schedule,
    state_preparation_circuit,
)

__all__ = [
    "QuorumNormalizer",
    "normalize_dataset",
    "AmplitudeEncoder",
    "amplitude_probabilities",
    "amplitudes_from_features",
    "preparation_schedule",
    "state_preparation_circuit",
]
