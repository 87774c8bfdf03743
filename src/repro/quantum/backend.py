"""Batched simulation backends: the numerical kernels behind the engines.

This module is the pluggable *execution backend* layer (not to be confused with
:mod:`repro.quantum.backends`, which describes fake *hardware* devices for noise
modelling).  A :class:`SimulationBackend` owns the low-level batched linear
algebra -- gate application, density-matrix channels, the analytic overlap
reduction -- so that the SWAP-test engines in :mod:`repro.core.execution`
and the reference simulator in :mod:`repro.quantum.simulator` can push whole
sample batches through one einsum/tensordot kernel instead of looping in
Python.

Batching contract
-----------------
* Every statevector batch is a 2-D complex array of shape ``(batch, 2**n)``;
  every density-matrix batch is ``(batch, 2**n, 2**n)``.  The **leading axis is
  always the batch axis** and is preserved by every primitive.
* Basis indices are little-endian (qubit ``q``'s bit is ``(i >> q) & 1``),
  matching :mod:`repro.quantum.statevector`.
* Arrays are kept in the backend's ``dtype`` (``complex128`` for the numpy
  reference backend); primitives never mutate their inputs.

Backends register themselves by name; select one with
``get_simulation_backend("numpy")`` or pass an instance directly.  The numpy
reference implementation is always available, and alternative implementations
(e.g. GPU array libraries exposing the numpy API) only need to subclass
:class:`SimulationBackend` and call :func:`register_simulation_backend`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.quantum.statevector import apply_unitary_to_tensor

__all__ = [
    "SimulationBackend",
    "NumpyBackend",
    "NumpyFloat32Backend",
    "register_simulation_backend",
    "available_simulation_backends",
    "get_simulation_backend",
]


class SimulationBackend(ABC):
    """Batched linear-algebra primitives shared by all execution engines.

    Subclasses provide the array kernels; everything above this layer (circuit
    walking, folding, shot sampling) is backend-agnostic.  All
    primitives follow the leading-batch-axis contract documented in the module
    docstring.
    """

    #: Registry key of the backend (set by concrete subclasses).
    name: str = "abstract"
    #: Complex dtype used for states and density matrices.
    dtype: np.dtype = np.dtype(np.complex128)

    # ------------------------------------------------------------ statevectors
    @abstractmethod
    def as_states(self, amplitudes: np.ndarray) -> np.ndarray:
        """Cast a ``(batch, 2**n)`` amplitude array to the backend dtype."""

    @abstractmethod
    def apply_gate_batch(self, states: np.ndarray, gate: np.ndarray,
                         qubits: Sequence[int]) -> np.ndarray:
        """Apply a ``2^k x 2^k`` gate to ``qubits`` of every state in the batch.

        ``states`` has shape ``(batch, 2**n)``; the gate's row/column index
        treats the first listed qubit as the least-significant bit, exactly as
        in :func:`repro.quantum.statevector.apply_unitary_to_tensor`.
        """

    # --------------------------------------------------------- density matrices
    @abstractmethod
    def density_from_states(self, states: np.ndarray) -> np.ndarray:
        """Pure-state density matrices ``|psi_i><psi_i|``; ``(batch, d, d)``."""

    @abstractmethod
    def apply_gate_density_batch(self, rhos: np.ndarray, gate: np.ndarray,
                                 qubits: Sequence[int]) -> np.ndarray:
        """Conjugate every density matrix by a local gate: ``U rho U^dagger``."""

    @abstractmethod
    def apply_superoperator_density_batch(self, rhos: np.ndarray,
                                          superoperator: np.ndarray,
                                          qubits: Sequence[int]) -> np.ndarray:
        """Apply one local channel (superoperator form) to every matrix.

        ``superoperator`` is the ``d^2 x d^2`` matrix produced by
        :func:`repro.quantum.density_matrix.kraus_to_superoperator`, acting on
        the *row-major* flattening of the local density matrix (row index block
        first).  The same channel is applied to every batch entry (noise models
        depend on the gate, not on the sample).
        """

    @abstractmethod
    def apply_superoperators_density_batch(self, rhos: np.ndarray,
                                           superoperators: np.ndarray,
                                           qubits: Sequence[int]) -> np.ndarray:
        """Apply one local channel *per batch entry* (superoperator form).

        ``superoperators`` has shape ``(batch, d^2, d^2)``: channel ``i`` acts on
        density matrix ``i`` (a broadcast view of one shared channel is fine).
        The folded density-matrix engine prepares every sample's state with
        it, each per-sample rotation fused with its noise channel.  Entry
        ``i``'s arithmetic must not depend on the rest of the batch.
        """

    def apply_unitary_stack(self, states: np.ndarray,
                            unitaries: np.ndarray) -> np.ndarray:
        """One unitary per member over that member's state batch.

        ``states`` is ``(members, batch, 2**n)`` and ``unitaries``
        ``(members, 2**n, 2**n)``; row ``i`` of member ``m`` becomes
        ``U_m |psi_mi>``.  One batched matmul covers the whole stack, and a
        member's rows get the same arithmetic whatever stack they are in.
        """
        states = np.asarray(states, dtype=self.dtype)
        unitaries = np.asarray(unitaries, dtype=self.dtype)
        if states.ndim != 3:
            raise ValueError("a state stack must be (members, batch, 2**n)")
        members, _, dim = states.shape
        if unitaries.shape != (members, dim, dim):
            raise ValueError("unitary stack does not match the state stack")
        return states @ np.swapaxes(unitaries, 1, 2)

    def compression_overlap_levels(self, states: np.ndarray,
                                   levels: Sequence[int]) -> np.ndarray:
        """Autoencoder survival overlaps for several compression levels at once.

        For ``|phi_i>`` rows of ``states`` and each level ``k`` in ``levels``,
        computes ``sum_s |<phi_i[:, 0], phi_i[:, s]>|^2`` over the ``2^k`` reset
        patterns ``s`` (little-endian low qubits) -- the quantity the analytic
        SWAP-test reduction needs.  Returns shape ``(len(levels), batch)``.
        Level 0 yields 1 for normalized states.  ``|phi>`` is computed once by
        the caller, so a whole level sweep shares one encoder application.
        """
        states = self.as_states(states)
        batch, dim = states.shape
        overlaps = np.empty((len(levels), batch))
        for position, level in enumerate(levels):
            if level == 0:
                overlaps[position] = np.ones(batch)
                continue
            reset_dim = 2 ** int(level)
            if reset_dim > dim:
                raise ValueError(f"compression level {level} exceeds the register")
            kept_dim = dim // reset_dim
            # Little-endian: the reset qubits are the low-order bits, i.e. the
            # fastest-varying axis after reshaping.
            tensor = states.reshape(-1, kept_dim, reset_dim)
            reference = tensor[:, :, 0]
            inner = np.einsum("nk,nks->ns", reference.conj(), tensor)
            overlaps[position] = np.sum(np.abs(inner) ** 2, axis=1)
        return overlaps

    # ----------------------------------------------------------------- helpers
    def unitary_from_instructions(
            self, instructions: Sequence[Tuple[np.ndarray, Sequence[int]]],
            num_qubits: int) -> np.ndarray:
        """Dense unitary of a gate sequence, built through the batched kernel.

        The identity's rows are treated as a batch of basis states and pushed
        through every ``(gate, qubits)`` pair at once; row ``i`` of the batch
        ends as ``U |i>``, so the stacked result is ``U^T``.
        """
        dim = 2 ** num_qubits
        states = np.eye(dim, dtype=self.dtype)
        for gate, qubits in instructions:
            states = self.apply_gate_batch(states, gate, qubits)
        return states.T.copy()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NumpyBackend(SimulationBackend):
    """Reference implementation: one ``np.einsum`` contraction per primitive."""

    name = "numpy"

    # ------------------------------------------------------------ statevectors
    def as_states(self, amplitudes: np.ndarray) -> np.ndarray:
        states = np.asarray(amplitudes, dtype=self.dtype)
        if states.ndim != 2:
            raise ValueError("a state batch must be 2-D (batch, 2**n)")
        return states

    def _num_qubits(self, dim: int) -> int:
        num_qubits = int(np.log2(dim)) if dim else 0
        if 2 ** num_qubits != dim:
            raise ValueError(f"state dimension {dim} is not a power of two")
        return num_qubits

    def apply_gate_batch(self, states: np.ndarray, gate: np.ndarray,
                         qubits: Sequence[int]) -> np.ndarray:
        states = self.as_states(states)
        batch, dim = states.shape
        num_qubits = self._num_qubits(dim)
        qubits = list(qubits)
        k = len(qubits)
        gate = np.asarray(gate, dtype=self.dtype)
        if gate.shape != (2 ** k, 2 ** k):
            raise ValueError(
                f"gate shape {gate.shape} does not match {k} target qubits"
            )
        tensor = states.reshape((batch,) + (2,) * num_qubits)
        # The shared tensordot kernel carries any axes outside the qubit block
        # through untouched, so offsetting by one turns the leading axis into a
        # batch axis and the whole batch contracts in one BLAS call.
        result = apply_unitary_to_tensor(tensor, gate, qubits, num_qubits,
                                         axis_offset=1)
        return np.ascontiguousarray(result).reshape(batch, dim)

    # --------------------------------------------------------- density matrices
    def density_from_states(self, states: np.ndarray) -> np.ndarray:
        states = self.as_states(states)
        return np.einsum("bi,bj->bij", states, states.conj())

    def apply_gate_density_batch(self, rhos: np.ndarray, gate: np.ndarray,
                                 qubits: Sequence[int]) -> np.ndarray:
        rhos = np.asarray(rhos, dtype=self.dtype)
        if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
            raise ValueError("a density batch must be (batch, d, d)")
        batch, dim = rhos.shape[0], rhos.shape[1]
        num_qubits = self._num_qubits(dim)
        qubits = list(qubits)
        k = len(qubits)
        gate = np.asarray(gate, dtype=self.dtype)
        if gate.shape != (2 ** k, 2 ** k):
            raise ValueError("gate shape does not match the target qubits")
        tensor = rhos.reshape((batch,) + (2,) * (2 * num_qubits))
        # U on the row indices, conj(U) on the column indices; the leading axis
        # stays a batch axis in both contractions.
        tensor = apply_unitary_to_tensor(tensor, gate, qubits, num_qubits,
                                         axis_offset=1)
        tensor = apply_unitary_to_tensor(tensor, np.conj(gate), qubits,
                                         num_qubits,
                                         axis_offset=1 + num_qubits)
        return np.ascontiguousarray(tensor).reshape(batch, dim, dim)

    def _validated_density_batch(self, rhos: np.ndarray) -> Tuple[np.ndarray, int]:
        rhos = np.asarray(rhos, dtype=self.dtype)
        if rhos.ndim != 3 or rhos.shape[1] != rhos.shape[2]:
            raise ValueError("a density batch must be (batch, d, d)")
        return rhos, self._num_qubits(rhos.shape[1])

    def _apply_matrices_to_axes(self, tensor: np.ndarray, matrices: np.ndarray,
                                target_axes: Sequence[int]) -> np.ndarray:
        """Contract ``matrices[b]`` with the ``target_axes`` of batch entry ``b``.

        ``target_axes`` are flattened most-significant-first into one index of
        size ``matrices.shape[-1]``; the contraction runs as one batched GEMM
        (``matmul``), which is substantially faster than ``einsum`` for the
        many-rows-times-tiny-matrix shapes this produces.
        """
        k = len(target_axes)
        ndim = tensor.ndim
        moved = np.moveaxis(tensor, target_axes, range(ndim - k, ndim))
        lead_shape = moved.shape[: ndim - k]
        local_dim = matrices.shape[-1]
        flat = moved.reshape(moved.shape[0], -1, local_dim)
        # out[b, r, i] = sum_j matrices[b, i, j] * flat[b, r, j]
        out = np.matmul(flat, np.swapaxes(matrices, -1, -2))
        out = out.reshape(lead_shape + (2,) * k)
        return np.moveaxis(out, range(ndim - k, ndim), target_axes)

    def apply_superoperator_density_batch(self, rhos: np.ndarray,
                                          superoperator: np.ndarray,
                                          qubits: Sequence[int]) -> np.ndarray:
        rhos, num_qubits = self._validated_density_batch(rhos)
        batch, dim = rhos.shape[0], rhos.shape[1]
        qubits = list(qubits)
        k = len(qubits)
        local_dim = 2 ** k
        superoperator = np.asarray(superoperator, dtype=self.dtype)
        if superoperator.shape != (local_dim ** 2, local_dim ** 2):
            raise ValueError("superoperator shape does not match the qubit count")
        tensor = rhos.reshape((batch,) + (2,) * (2 * num_qubits))
        # Combined (row, column) axes of the targeted qubits, most significant
        # first, offset by one for the leading batch axis -- the batched twin of
        # DensityMatrix.apply_superoperator.
        row_axes = [1 + num_qubits - 1 - q for q in reversed(qubits)]
        col_axes = [1 + 2 * num_qubits - 1 - q for q in reversed(qubits)]
        target_axes = row_axes + col_axes
        superop_tensor = superoperator.reshape((2,) * (4 * k))
        input_axes = list(range(2 * k, 4 * k))
        moved = np.tensordot(superop_tensor, tensor, axes=(input_axes, target_axes))
        # tensordot puts the channel's output axes first and the surviving axes
        # (batch first) after them; moving the outputs back also restores the
        # batch axis to the front.
        moved = np.moveaxis(moved, range(2 * k), target_axes)
        return np.ascontiguousarray(moved).reshape(batch, dim, dim)

    def apply_superoperators_density_batch(self, rhos: np.ndarray,
                                           superoperators: np.ndarray,
                                           qubits: Sequence[int]) -> np.ndarray:
        rhos, num_qubits = self._validated_density_batch(rhos)
        batch, dim = rhos.shape[0], rhos.shape[1]
        qubits = list(qubits)
        k = len(qubits)
        local_dim = 2 ** k
        superoperators = np.asarray(superoperators, dtype=self.dtype)
        if superoperators.shape != (batch, local_dim ** 2, local_dim ** 2):
            raise ValueError(
                "per-sample superoperators must have shape (batch, d^2, d^2)"
            )
        tensor = rhos.reshape((batch,) + (2,) * (2 * num_qubits))
        row_axes = [1 + num_qubits - 1 - q for q in reversed(qubits)]
        col_axes = [1 + 2 * num_qubits - 1 - q for q in reversed(qubits)]
        # Row block first, most-significant qubit first inside each block --
        # the same (row, column) flattening kraus_to_superoperator uses.
        tensor = self._apply_matrices_to_axes(tensor, superoperators,
                                              row_axes + col_axes)
        return np.ascontiguousarray(tensor).reshape(batch, dim, dim)


class NumpyFloat32Backend(NumpyBackend):
    """Single-precision variant of the reference backend.

    States and density matrices are held in ``complex64`` and every kernel runs
    in single precision, validating the backend plug point beyond the reference
    implementation (and halving memory traffic).  Probability-valued reductions
    land in ``float64`` arrays so downstream scoring code sees the usual
    result dtype; accuracy is limited to roughly ``1e-6`` on the small registers
    Quorum uses, which the cross-validation tests assert explicitly.
    """

    name = "numpy-float32"
    dtype: np.dtype = np.dtype(np.complex64)


_REGISTRY: Dict[str, Callable[[], SimulationBackend]] = {}


def register_simulation_backend(name: str,
                                factory: Callable[[], SimulationBackend]) -> None:
    """Register a backend factory under ``name`` (lowercased)."""
    _REGISTRY[name.lower()] = factory


def available_simulation_backends() -> Tuple[str, ...]:
    """Names of all registered simulation backends."""
    return tuple(sorted(_REGISTRY))


def get_simulation_backend(
        backend: Optional[Union[str, SimulationBackend]] = None
) -> SimulationBackend:
    """Resolve a backend name or instance; ``None`` means the numpy default."""
    if backend is None:
        backend = "numpy"
    if isinstance(backend, SimulationBackend):
        return backend
    key = str(backend).lower()
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown simulation backend {backend!r}; "
            f"available: {', '.join(available_simulation_backends())}"
        )
    return _REGISTRY[key]()


register_simulation_backend("numpy", NumpyBackend)
register_simulation_backend("numpy-float32", NumpyFloat32Backend)
