"""Dense linear algebra for small multi-qubit systems.

Everything in this package runs at desk scale (a handful of qubits), so all
operators are dense complex128 matrices indexed big-endian: qubit 0 is the
leftmost tensor factor and the most significant bit of a basis index.

Two light wrapper types carry state semantics:

* :class:`OperatorState` — a Hermitian operator on ``num_qubits`` qubits.
  Residual shortcuts add density matrices, so the trace may exceed 1 (it is
  ``2**t`` after ``t`` shortcut additions); positivity is preserved up to
  roundoff and is not checked on construction (the test suite checks it).
* :class:`PureState` — a normalized amplitude vector.

Plain ``numpy.ndarray`` is used for everything without state semantics
(unitaries, update generators, basis elements).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

__all__ = [
    "HERMITIAN_TOL",
    "MAX_DENSE_BYTES",
    "NORM_TOL",
    "DimensionError",
    "NonHermitianError",
    "OperatorState",
    "PureState",
    "exp_i_hermitian",
    "haar_random_unitary",
    "pauli_coefficients",
    "random_pure_state",
]

#: Absolute tolerance for Hermiticity checks.
HERMITIAN_TOL = 1e-10
#: Absolute tolerance for pure-state normalization.
NORM_TOL = 1e-12
#: Budget for the largest objects resqnn builds up front: the dense matrices
#: of an architecture, and a graph's edge list plus one ``V x V`` matrix. Inputs
#: needing more are rejected before anything is allocated.
MAX_DENSE_BYTES = 2**30
#: Squarings ``exp_i_hermitian`` may take: each one about doubles the unitarity
#: defect, and 2**53 roundoffs of 2**-53 add up to 1.
MAX_SQUARINGS = 53

PAULI_I = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_SINGLE_QUBIT_PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


class DimensionError(ValueError):
    """Operands do not have compatible qubit counts or shapes."""


class NonHermitianError(ValueError):
    """A matrix required to be Hermitian is not (beyond tolerance)."""


def _as_square_complex(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``matrix`` as complex128, checked to be a square matrix or a stack of them."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if arr.ndim < 2 or arr.shape[-2] != arr.shape[-1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _complex_to_pairs(array: np.ndarray) -> list:
    """Nested lists with each complex entry as an ``[re, im]`` pair (JSON files)."""
    return np.stack([array.real, array.imag], axis=-1).tolist()


def _pairs_to_complex(payload) -> np.ndarray:
    """Inverse of :func:`_complex_to_pairs`; callers validate the shape."""
    arr = np.asarray(payload, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != 2:
        raise DimensionError(f"expected [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _qubit_count(dim: int, name: str = "matrix") -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise DimensionError(f"{name} dimension {dim} is not a power of two")
    return n


@dataclass(frozen=True)
class OperatorState:
    """Hermitian operator on ``num_qubits`` qubits (trace may exceed 1)."""

    matrix: np.ndarray
    num_qubits: int

    def __post_init__(self) -> None:
        arr = _as_square_complex(self.matrix, "state matrix")
        if arr.ndim != 2 or arr.shape[0] != 2**self.num_qubits:
            raise DimensionError(
                f"state matrix has dimension {arr.shape[0]}, expected "
                f"{2 ** self.num_qubits} for {self.num_qubits} qubits"
            )
        herm_defect = np.abs(arr - arr.conj().T).max()
        if herm_defect > HERMITIAN_TOL:
            raise NonHermitianError(
                f"state matrix deviates from Hermiticity by {herm_defect:.3e}"
            )
        arr = np.array(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on ``num_qubits`` qubits."""

    amplitudes: np.ndarray
    num_qubits: int

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (2**self.num_qubits,):
            raise DimensionError(
                f"amplitude vector has shape {amp.shape}, expected "
                f"{(2 ** self.num_qubits,)} for {self.num_qubits} qubits"
            )
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes contain non-finite entries")
        norm_defect = abs(np.linalg.norm(amp) - 1.0)
        if norm_defect > NORM_TOL:
            raise ValueError(f"state vector norm deviates from 1 by {norm_defect:.3e}")
        amp = np.array(amp)
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def density(self) -> OperatorState:
        """Rank-one projector |psi><psi| as an :class:`OperatorState`."""
        return OperatorState(np.outer(self.amplitudes, self.amplitudes.conj()), self.num_qubits)


def haar_random_unitary(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary on ``num_qubits`` qubits.

    Complex Gaussian matrix, QR factorization, then each column is rephased
    by the corresponding diagonal entry of R so the distribution is the
    unbiased (Haar) one rather than the raw QR measure.
    """
    dim = 2**num_qubits
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def random_pure_state(num_qubits: int, rng: np.random.Generator) -> PureState:
    """Uniformly random pure state (normalized complex Gaussian vector)."""
    dim = 2**num_qubits
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(z / np.linalg.norm(z), num_qubits)


def exp_i_hermitian(k: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Unitary ``exp(i * scale * k)`` for Hermitian ``k`` or a ``(..., d, d)`` stack of them.

    ``A = i * scale * k`` is halved ``s`` times, until its largest 1-norm ``x`` in the
    stack is at most 1, enters the Taylor polynomial of the lowest degree ``m`` whose
    remainder bound ``x**(m+1) / (m+1)! * e**x`` is at most ``2**-53``, and is squared
    back: about ``2 * sqrt(m) + s`` batched products (Paterson-Stockmeyer), exact to
    about ``2**s`` roundoffs. Raises :class:`NonHermitianError` if a matrix is not
    Hermitian within ``HERMITIAN_TOL``, ``ValueError`` if ``scale * k`` is not finite
    or needs more than ``MAX_SQUARINGS`` squarings.
    """
    arr = _as_square_complex(k, "generator")
    defect = np.abs(arr - arr.conj().swapaxes(-1, -2)).max()
    if defect > HERMITIAN_TOL:
        raise NonHermitianError(f"generator deviates from Hermiticity by {defect:.3e}")
    norm = abs(float(scale)) * float(np.abs(arr).sum(axis=-2).max())
    if not math.isfinite(norm):
        raise ValueError(f"scale {scale} times the generator is not finite")
    squarings = math.ceil(math.log2(norm)) if norm > 1 else 0
    if squarings > MAX_SQUARINGS:
        raise ValueError(
            f"scale {scale} needs {squarings} squarings; more than {MAX_SQUARINGS} "
            f"would leave no unitarity"
        )
    x = math.ldexp(norm, -squarings)  # exact, and 2.0**squarings may overflow
    degree = next(
        m for m in range(19) if x ** (m + 1) * math.exp(x) <= 2.0**-53 * math.factorial(m + 1)
    )
    # p(A) = sum_j C_j (A^q)^j by Horner in A^q, each block C_j = sum_i c_{jq+i} A^i.
    q = math.ceil(math.sqrt(degree)) or 1
    coeffs = np.zeros((degree // q + 1) * q)
    coeffs[: degree + 1] = [1.0 / math.factorial(n) for n in range(degree + 1)]
    powers = np.empty((q + 1,) + arr.shape, dtype=np.complex128)
    powers[0] = np.eye(arr.shape[-1])
    np.multiply(arr, 1j * math.ldexp(scale, -squarings), out=powers[1])
    for j in range(2, q + 1):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    blocks = (coeffs.reshape(-1, q) @ powers[:q].reshape(q, -1)).reshape((-1,) + arr.shape)
    u = blocks[-1]
    for block in blocks[-2::-1]:
        u = u @ powers[q] + block
    for _ in range(squarings):
        u = u @ u
    return u


@lru_cache(maxsize=8)
def _pauli_stack(num_qubits: int) -> np.ndarray:
    """All 4**n Pauli products as one (4**n, 2**n, 2**n) read-only array."""
    mats = []
    for combo in itertools.product(_SINGLE_QUBIT_PAULIS, repeat=num_qubits):
        mats.append(reduce(np.kron, combo) if num_qubits > 1 else combo[0])
    stack = np.stack(mats)
    stack.setflags(write=False)
    return stack


def pauli_coefficients(matrix: np.ndarray) -> np.ndarray:
    """Expansion coefficients c_a = trace(P_a @ matrix) / 2**n over the Pauli basis.

    For any matrix M on n qubits, ``M = sum_a c_a P_a`` exactly; M is
    Hermitian iff all coefficients are real (they are returned complex).
    """
    arr = _as_square_complex(matrix)
    if arr.ndim != 2:
        raise DimensionError(f"matrix must be 2-D, got shape {arr.shape}")
    n = _qubit_count(arr.shape[0])
    stack = _pauli_stack(n)
    return np.einsum("aij,ji->a", stack, arr) / arr.shape[0]
