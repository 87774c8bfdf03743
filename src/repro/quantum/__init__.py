"""Quantum-computing substrate: circuit IR, the reference simulator, and noise.

This subpackage is a from-scratch replacement for the slice of Qiskit / Qiskit Aer
functionality that the Quorum paper depends on:

* :mod:`repro.quantum.gates` -- gate matrices and parameterized gate factories.
* :mod:`repro.quantum.circuit` -- a :class:`QuantumCircuit` IR with unitary gates,
  reset, mid-/end-circuit measurement, and barriers.
* :mod:`repro.quantum.statevector` -- pure-state representation and the tensor
  kernel every gate application uses.
* :mod:`repro.quantum.density_matrix` -- exact mixed-state evolution (needed for the
  partial-reset bottleneck of the Quorum ansatz and for noise channels).
* :mod:`repro.quantum.simulator` -- the per-sample density-matrix simulator, the
  reference oracle of the SWAP-test engines.
* :mod:`repro.quantum.noise` -- Kraus channels and the :class:`NoiseModel` container.
* :mod:`repro.quantum.backend` -- pluggable batched simulation backends (the
  einsum/tensordot kernels the simulator and SWAP-test engines run on).
* :mod:`repro.quantum.backends` -- calibration-style descriptions of fake devices
  (notably a Brisbane-like backend built from the medians quoted in the paper).
* :mod:`repro.quantum.compiler` -- ahead-of-time folding of noisy circuits into
  cached dense observables.
* :mod:`repro.quantum.operators` -- partial trace, fidelity, purity helpers.
"""

from repro.quantum.backend import (
    NumpyBackend,
    SimulationBackend,
    available_simulation_backends,
    get_simulation_backend,
    register_simulation_backend,
)
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.compiler import CircuitCompiler, default_compiler
from repro.quantum.gates import GATE_MATRICES, standard_gate_matrix
from repro.quantum.simulator import DensityMatrixSimulator, ExecutionResult
from repro.quantum.noise import NoiseModel
from repro.quantum.backends import FakeBrisbane, BackendProperties
from repro.quantum.statevector import Statevector
from repro.quantum.density_matrix import DensityMatrix

__all__ = [
    "SimulationBackend",
    "NumpyBackend",
    "available_simulation_backends",
    "get_simulation_backend",
    "register_simulation_backend",
    "Instruction",
    "QuantumCircuit",
    "CircuitCompiler",
    "default_compiler",
    "GATE_MATRICES",
    "standard_gate_matrix",
    "DensityMatrixSimulator",
    "ExecutionResult",
    "NoiseModel",
    "FakeBrisbane",
    "BackendProperties",
    "Statevector",
    "DensityMatrix",
]
