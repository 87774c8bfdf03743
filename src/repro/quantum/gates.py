"""Gate matrices for the simulators and the circuit compiler.

All matrices follow the little-endian qubit convention used throughout the package:
for a multi-qubit gate acting on qubits ``(q0, q1, ...)``, index 0 of the matrix's
tensor factors corresponds to the *first* qubit in the tuple, and basis states are
ordered so that the first listed qubit is the least-significant bit.  This matches
Qiskit's convention, which the paper's artifact uses.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Dict, Sequence

import numpy as np

__all__ = [
    "GATE_MATRICES",
    "PARAMETRIC_GATES",
    "GATE_NUM_QUBITS",
    "standard_gate_matrix",
    "rx_matrix",
    "ry_matrix",
    "rz_matrix",
    "phase_matrix",
    "u_matrix",
    "controlled",
    "is_unitary",
]

_SQRT2_INV = 1.0 / math.sqrt(2.0)

I2 = np.eye(2, dtype=complex)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
H = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)
S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
SDG = np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex)
T = np.array([[1.0, 0.0], [0.0, cmath.exp(1.0j * math.pi / 4.0)]], dtype=complex)
TDG = np.array([[1.0, 0.0], [0.0, cmath.exp(-1.0j * math.pi / 4.0)]], dtype=complex)
SX = 0.5 * np.array(
    [[1.0 + 1.0j, 1.0 - 1.0j], [1.0 - 1.0j, 1.0 + 1.0j]], dtype=complex
)
SXDG = SX.conj().T.copy()


def rx_matrix(theta: float) -> np.ndarray:
    """Rotation about the X axis by ``theta`` radians."""
    half = theta / 2.0
    return np.array(
        [
            [math.cos(half), -1.0j * math.sin(half)],
            [-1.0j * math.sin(half), math.cos(half)],
        ],
        dtype=complex,
    )


def ry_matrix(theta: float) -> np.ndarray:
    """Rotation about the Y axis by ``theta`` radians."""
    half = theta / 2.0
    return np.array(
        [
            [math.cos(half), -math.sin(half)],
            [math.sin(half), math.cos(half)],
        ],
        dtype=complex,
    )


def rz_matrix(theta: float) -> np.ndarray:
    """Rotation about the Z axis by ``theta`` radians."""
    half = theta / 2.0
    return np.array(
        [
            [cmath.exp(-1.0j * half), 0.0],
            [0.0, cmath.exp(1.0j * half)],
        ],
        dtype=complex,
    )


def phase_matrix(lam: float) -> np.ndarray:
    """Phase gate: diag(1, e^{i lambda})."""
    return np.array([[1.0, 0.0], [0.0, cmath.exp(1.0j * lam)]], dtype=complex)


def u_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """Generic single-qubit unitary with Euler angles (theta, phi, lambda).

    Matches the OpenQASM / Qiskit ``U`` gate definition.
    """
    cos = math.cos(theta / 2.0)
    sin = math.sin(theta / 2.0)
    return np.array(
        [
            [cos, -cmath.exp(1.0j * lam) * sin],
            [cmath.exp(1.0j * phi) * sin, cmath.exp(1.0j * (phi + lam)) * cos],
        ],
        dtype=complex,
    )


def rxx_matrix(theta: float) -> np.ndarray:
    """Two-qubit XX interaction rotation."""
    cos = math.cos(theta / 2.0)
    isin = -1.0j * math.sin(theta / 2.0)
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[1, 1] = mat[2, 2] = mat[3, 3] = cos
    mat[0, 3] = mat[3, 0] = isin
    mat[1, 2] = mat[2, 1] = isin
    return mat


def rzz_matrix(theta: float) -> np.ndarray:
    """Two-qubit ZZ interaction rotation."""
    phase = cmath.exp(-1.0j * theta / 2.0)
    conj = cmath.exp(1.0j * theta / 2.0)
    return np.diag([phase, conj, conj, phase]).astype(complex)


def controlled(matrix: np.ndarray) -> np.ndarray:
    """Return the controlled version of ``matrix``.

    The control qubit is the first qubit of the returned gate (little endian), i.e.
    the block structure is ``|0><0| (x) I + |1><1| (x) U`` in the convention where
    the control qubit is the least significant bit.
    """
    dim = matrix.shape[0]
    out = np.eye(2 * dim, dtype=complex)
    # Little endian: control = qubit 0 (LSB).  Basis index = control + 2 * target.
    for row in range(dim):
        for col in range(dim):
            out[2 * row + 1, 2 * col + 1] = matrix[row, col]
    return out


def _swap_matrix() -> np.ndarray:
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = mat[3, 3] = 1.0
    mat[1, 2] = mat[2, 1] = 1.0
    return mat


def _cx_matrix() -> np.ndarray:
    # Control = first qubit (LSB), target = second qubit.
    return controlled(X)


def _cz_matrix() -> np.ndarray:
    return controlled(Z)


def _cy_matrix() -> np.ndarray:
    return controlled(Y)


def _ch_matrix() -> np.ndarray:
    return controlled(H)


def _ccx_matrix() -> np.ndarray:
    return controlled(controlled(X))


def _cswap_matrix() -> np.ndarray:
    return controlled(_swap_matrix())


SWAP = _swap_matrix()
CX = _cx_matrix()
CZ = _cz_matrix()
CY = _cy_matrix()
CH = _ch_matrix()
CCX = _ccx_matrix()
CSWAP = _cswap_matrix()

#: Matrices of non-parametric standard gates, keyed by lowercase gate name.
GATE_MATRICES: Dict[str, np.ndarray] = {
    "id": I2,
    "x": X,
    "y": Y,
    "z": Z,
    "h": H,
    "s": S,
    "sdg": SDG,
    "t": T,
    "tdg": TDG,
    "sx": SX,
    "sxdg": SXDG,
    "swap": SWAP,
    "cx": CX,
    "cz": CZ,
    "cy": CY,
    "ch": CH,
    "ccx": CCX,
    "cswap": CSWAP,
}

#: Factories for parametric gates, keyed by lowercase gate name.
PARAMETRIC_GATES: Dict[str, Callable[..., np.ndarray]] = {
    "rx": rx_matrix,
    "ry": ry_matrix,
    "rz": rz_matrix,
    "p": phase_matrix,
    "u": u_matrix,
    "crx": lambda theta: controlled(rx_matrix(theta)),
    "cry": lambda theta: controlled(ry_matrix(theta)),
    "crz": lambda theta: controlled(rz_matrix(theta)),
    "cp": lambda lam: controlled(phase_matrix(lam)),
    "rxx": rxx_matrix,
    "rzz": rzz_matrix,
}

#: Number of qubits each standard gate acts on.
GATE_NUM_QUBITS: Dict[str, int] = {
    "id": 1,
    "x": 1,
    "y": 1,
    "z": 1,
    "h": 1,
    "s": 1,
    "sdg": 1,
    "t": 1,
    "tdg": 1,
    "sx": 1,
    "sxdg": 1,
    "rx": 1,
    "ry": 1,
    "rz": 1,
    "p": 1,
    "u": 1,
    "swap": 2,
    "cx": 2,
    "cz": 2,
    "cy": 2,
    "ch": 2,
    "crx": 2,
    "cry": 2,
    "crz": 2,
    "cp": 2,
    "rxx": 2,
    "rzz": 2,
    "ccx": 3,
    "cswap": 3,
}


def standard_gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Return the unitary matrix of a standard gate.

    Parameters
    ----------
    name:
        Lowercase gate name (e.g. ``"rx"``, ``"cx"``).
    params:
        Gate parameters for parametric gates; must be empty for fixed gates.

    Raises
    ------
    KeyError
        If the gate name is unknown.
    ValueError
        If the number of parameters does not match the gate definition.
    """
    key = name.lower()
    if key in GATE_MATRICES:
        if params:
            raise ValueError(f"gate '{name}' takes no parameters, got {list(params)}")
        return GATE_MATRICES[key]
    if key in PARAMETRIC_GATES:
        factory = PARAMETRIC_GATES[key]
        try:
            return factory(*params)
        except TypeError as exc:
            raise ValueError(
                f"gate '{name}' received an invalid parameter list {list(params)}"
            ) from exc
    raise KeyError(f"unknown gate '{name}'")


def is_unitary(matrix: np.ndarray, atol: float = 1e-10) -> bool:
    """Check whether ``matrix`` is unitary within tolerance ``atol``."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0], dtype=complex)
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))
