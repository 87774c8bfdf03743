"""The random autoencoder ansatz (Fig. 5 of the paper).

The ansatz is a layered circuit of RX and RZ rotations followed by a linear chain
of CX gates.  Quorum never trains these angles: they are drawn uniformly from
``U(0, 2*pi)`` per ensemble member, and the decoder applies the exact inverse
(negated angles, reversed gate order), so that without the reset bottleneck the
encoder-decoder pair would be the identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.quantum.circuit import QuantumCircuit

__all__ = ["RandomAutoencoderAnsatz", "encoder_unitaries"]

_ENTANGLEMENTS = ("linear", "ring", "full")


def _entangling_pairs(num_qubits: int,
                      entanglement: str) -> List[Tuple[int, int]]:
    """(control, target) CX pairs of one entangling block, in gate order."""
    if entanglement == "linear":
        return [(q, q + 1) for q in range(num_qubits - 1)]
    if entanglement == "ring":
        pairs = [(q, q + 1) for q in range(num_qubits - 1)]
        if num_qubits > 2:
            pairs.append((num_qubits - 1, 0))
        return pairs
    return [(a, b) for a in range(num_qubits)
            for b in range(a + 1, num_qubits)]


@functools.lru_cache(maxsize=None)
def _cx_block_rows(num_qubits: int, entanglement: str) -> np.ndarray:
    """Row gather ``rows`` with ``(C @ M) == M[rows]`` for the CX block ``C``.

    The block maps basis state ``|x>`` to ``|f(x)>`` (little-endian bits),
    so ``C`` is a permutation matrix and ``rows`` is ``f``'s inverse.
    """
    images = np.arange(2 ** num_qubits)
    for control, target in _entangling_pairs(num_qubits, entanglement):
        images = images ^ (((images >> control) & 1) << target)
    rows = np.argsort(images)
    rows.setflags(write=False)
    return rows


def encoder_unitaries(ansatzes: Sequence["RandomAutoencoderAnsatz"]
                      ) -> np.ndarray:
    """Dense encoders of several members, as one ``(members, 2^n, 2^n)`` stack.

    Every member must share one layout (qubits, layers, entanglement); only
    the angles differ.  A layer is a rotation on every qubit, ``RZ . RX``,
    followed by a fixed CX block.  So each layer is one batched Kronecker
    product of the ``(members, qubits, 2, 2)`` rotations, then a constant row
    permutation, and consecutive layers compose by one batched matmul.  A
    member's encoder does not depend on which other members share its stack.
    """
    if not ansatzes:
        raise ValueError("at least one ansatz is required")
    first = ansatzes[0]
    layout = (first.num_qubits, first.num_layers, first.entanglement)
    if any((ansatz.num_qubits, ansatz.num_layers, ansatz.entanglement)
           != layout for ansatz in ansatzes):
        raise ValueError("stacked ansatzes must share one circuit layout")
    num_qubits, num_layers, entanglement = layout
    members = len(ansatzes)
    # Angles are laid out layer by layer as [RX q0..q(n-1), RZ q0..q(n-1)].
    half = np.stack([ansatz.angles_ for ansatz in ansatzes]).reshape(
        members, num_layers, 2, num_qubits) * 0.5
    cos, sin = np.cos(half), np.sin(half)
    # RX(theta) = [[c, -is], [-is, c]] and RZ(phi) = diag(z, conj(z)) with
    # z = e^{-i phi/2}, so RZ . RX scales RX's rows by z and conj(z).
    rx_isin = -1j * sin[:, :, 0]
    rx = np.stack([cos[:, :, 0], rx_isin, rx_isin, cos[:, :, 0]],
                  axis=-1).reshape(members, num_layers, num_qubits, 2, 2)
    rz = cos[:, :, 1] - 1j * sin[:, :, 1]
    rotations = np.stack([rz, rz.conj()], axis=-1)[..., None] * rx
    rows = _cx_block_rows(num_qubits, entanglement)
    unitary = None
    for layer in range(num_layers):
        # Little-endian: qubit 0 is the last Kronecker factor.
        block = rotations[:, layer, num_qubits - 1]
        for qubit in range(num_qubits - 2, -1, -1):
            dim = 2 * block.shape[1]
            block = (block[:, :, None, :, None]
                     * rotations[:, layer, qubit, None, :, None, :]
                     ).reshape(members, dim, dim)
        if unitary is not None:
            block = block @ unitary
        unitary = block[:, rows, :]
    return unitary


@dataclass
class RandomAutoencoderAnsatz:
    """Randomly parameterized encoder/decoder pair.

    Parameters
    ----------
    num_qubits:
        Register size the ansatz acts on.
    num_layers:
        Number of rotation + entanglement blocks (the paper's Fig. 5 shows two).
    entanglement:
        CX pattern per block: ``"linear"`` chain, ``"ring"`` (chain plus wraparound),
        or ``"full"`` (all ordered pairs).
    seed:
        Seed for the angle-generating RNG; pass a fresh seed per ensemble member.
    """

    num_qubits: int
    num_layers: int = 2
    entanglement: str = "linear"
    seed: Optional[int] = None
    angles_: Optional[np.ndarray] = field(default=None, repr=False)
    _encoder_unitary: Optional[np.ndarray] = field(default=None, init=False,
                                                   repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("ansatz needs at least one qubit")
        if self.num_layers < 1:
            raise ValueError("ansatz needs at least one layer")
        if self.entanglement not in _ENTANGLEMENTS:
            raise ValueError(
                f"entanglement must be one of {_ENTANGLEMENTS}, got "
                f"{self.entanglement!r}"
            )
        if self.angles_ is None:
            rng = np.random.default_rng(self.seed)
            self.angles_ = rng.uniform(0.0, 2.0 * np.pi, size=self.num_parameters)
        else:
            self.angles_ = np.array(self.angles_, dtype=float)
            if self.angles_.shape != (self.num_parameters,):
                raise ValueError(
                    f"expected {self.num_parameters} angles, got {self.angles_.shape}"
                )
        # The cached encoder unitary assumes the angles never change; freeze
        # them so a stale cache cannot be produced by in-place mutation (use
        # with_new_angles for a fresh draw).
        self.angles_.setflags(write=False)

    # ------------------------------------------------------------------ layout
    @property
    def num_parameters(self) -> int:
        """Two rotations (RX, RZ) per qubit per layer."""
        return 2 * self.num_qubits * self.num_layers

    def _entangling_pairs(self) -> List[Tuple[int, int]]:
        return _entangling_pairs(self.num_qubits, self.entanglement)

    # ---------------------------------------------------------------- circuits
    def encoder_circuit(self, qubits: Optional[Sequence[int]] = None,
                        num_circuit_qubits: Optional[int] = None) -> QuantumCircuit:
        """The encoder ``E(theta)`` as a circuit on ``qubits``.

        Parameters
        ----------
        qubits:
            Physical qubits the ansatz acts on (defaults to ``0 .. num_qubits-1``).
        num_circuit_qubits:
            Total size of the returned circuit (defaults to the maximum target + 1).
        """
        qubits = list(qubits) if qubits is not None else list(range(self.num_qubits))
        if len(qubits) != self.num_qubits:
            raise ValueError("qubit list length must equal num_qubits")
        size = num_circuit_qubits if num_circuit_qubits is not None else max(qubits) + 1
        circuit = QuantumCircuit(size, size, name="encoder")
        angle_index = 0
        for _ in range(self.num_layers):
            for qubit in qubits:
                circuit.rx(float(self.angles_[angle_index]), qubit)
                angle_index += 1
            for qubit in qubits:
                circuit.rz(float(self.angles_[angle_index]), qubit)
                angle_index += 1
            for control, target in self._entangling_pairs():
                circuit.cx(qubits[control], qubits[target])
        return circuit

    def decoder_circuit(self, qubits: Optional[Sequence[int]] = None,
                        num_circuit_qubits: Optional[int] = None) -> QuantumCircuit:
        """The decoder ``D(theta) = E(theta)^-1`` (negated angles, reversed order)."""
        encoder = self.encoder_circuit(qubits, num_circuit_qubits)
        decoder = encoder.inverse()
        decoder.name = "decoder"
        return decoder

    def encoder_unitary(self) -> np.ndarray:
        """Dense unitary of the encoder on its own ``num_qubits`` register.

        This is :func:`encoder_unitaries` for a stack of one member.  The
        matrix is built once per ansatz (i.e. once per ensemble member) and
        cached: the angles are immutable after construction, so every engine
        and every compression level can reuse the same ``E`` / ``E^dagger``.
        The returned array is marked read-only to protect the cache.
        """
        if self._encoder_unitary is None:
            unitary = encoder_unitaries([self])[0]
            unitary.setflags(write=False)
            self._encoder_unitary = unitary
        return self._encoder_unitary

    def with_new_angles(self, seed: Optional[int] = None) -> "RandomAutoencoderAnsatz":
        """A fresh ansatz with the same structure but newly drawn random angles."""
        return RandomAutoencoderAnsatz(
            num_qubits=self.num_qubits,
            num_layers=self.num_layers,
            entanglement=self.entanglement,
            seed=seed,
        )
