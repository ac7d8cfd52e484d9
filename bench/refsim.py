"""A small dense simulator that checks resqnn's outputs from its files.

It shares no code with resqnn: it has its own Kronecker product, partial
trace and perceptron application (a tensor contraction on the perceptron's
qubits rather than an embedded full-workspace matrix), and it reads
``dataset.json`` and ``checkpoint.json`` with the standard ``json`` module.
Only the network's definition is common to both:

* a layer tensors ancillas in ``|0...0>`` onto its input, applies its
  perceptrons in order (perceptron ``j`` acts on every input qubit plus
  ancilla ``j``), and traces the input qubits out;
* a ``~`` hidden layer then adds its input, padded with ``|0><0|`` on the
  extra qubits, to its output, so after ``t`` such layers the trace is ``2**t``;
* every cost is divided by ``2**t``; the graph cost sums ``tr((rho_v - rho_w)^2)``
  over ordered adjacent pairs.

Qubits are big-endian: qubit 0 is the leftmost tensor factor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor most significant."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(ra * rb, ca * cb)


def ground(num_qubits: int) -> np.ndarray:
    """``|0...0><0...0|`` on ``num_qubits`` qubits (``[[1]]`` for none)."""
    proj = np.zeros((2**num_qubits, 2**num_qubits), dtype=complex)
    proj[0, 0] = 1.0
    return proj


def ptrace(matrix: np.ndarray, num_qubits: int, keep) -> np.ndarray:
    """Trace out every qubit not in ``keep``; kept qubits stay in order."""
    keep = sorted(keep)
    drop = [q for q in range(num_qubits) if q not in keep]
    tensor = matrix.reshape((2,) * (2 * num_qubits))
    perm = keep + drop + [num_qubits + q for q in keep] + [num_qubits + q for q in drop]
    dk, dd = 2 ** len(keep), 2 ** len(drop)
    return np.einsum("ajbj->ab", tensor.transpose(perm).reshape(dk, dd, dk, dd))


def conjugate_on(op: np.ndarray, matrix: np.ndarray, targets, num_qubits: int) -> np.ndarray:
    """``op @ matrix @ op^dagger`` with ``op``'s factors on the listed qubits.

    ``op``'s first tensor factor acts on ``targets[0]``; ``targets`` must be
    ascending.
    """
    k, n = len(targets), num_qubits
    tensor = matrix.reshape((2,) * (2 * n))
    u = op.reshape((2,) * (2 * k))
    tensor = np.tensordot(u, tensor, axes=(list(range(k, 2 * k)), list(targets)))
    tensor = np.moveaxis(tensor, list(range(k)), list(targets))
    tensor = np.tensordot(
        tensor, u.conj(), axes=([n + q for q in targets], list(range(k, 2 * k)))
    )
    tensor = np.moveaxis(tensor, list(range(2 * n - k, 2 * n)), [n + q for q in targets])
    return tensor.reshape(2**n, 2**n)


@dataclass(frozen=True)
class Network:
    widths: tuple[int, ...]
    shortcut: tuple[bool, ...]  # one flag per unitary layer; the last is False
    layers: tuple[tuple[np.ndarray, ...], ...]

    @property
    def shortcut_count(self) -> int:
        return sum(self.shortcut)


def parse_arch(text: str) -> tuple[tuple[int, ...], tuple[bool, ...]]:
    """``"2,~3,2"`` -> widths (2, 3, 2) and per-unitary-layer flags (True, False)."""
    tokens = [tok.strip() for tok in text.split(",")]
    widths = tuple(int(tok.lstrip("~")) for tok in tokens)
    flags = tuple(tok.startswith("~") for tok in tokens[1:])
    return widths, flags


def _complex(payload) -> np.ndarray:
    arr = np.asarray(payload, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def load_network(path: Path) -> Network:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    widths, flags = parse_arch(payload["arch"])
    layers = tuple(tuple(_complex(u) for u in layer) for layer in payload["layers"])
    return Network(widths, flags, layers)


@dataclass(frozen=True)
class Dataset:
    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    supervised: tuple[int, ...]
    states: tuple[np.ndarray, ...]
    target_unitary: np.ndarray

    @property
    def held_out(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.num_vertices) if v not in self.supervised)

    def input_density(self, v: int) -> np.ndarray:
        psi = self.states[v]
        return np.outer(psi, psi.conj())

    def target(self, v: int) -> np.ndarray:
        return self.target_unitary @ self.states[v]


def load_dataset(path: Path) -> Dataset:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    spec = payload["spec"]
    return Dataset(
        num_vertices=int(spec["num_vertices"]),
        edges=tuple((int(v), int(w)) for v, w in spec["edges"]),
        supervised=tuple(int(v) for v in spec["supervised_indices"]),
        states=tuple(_complex(s) for s in payload["states"]),
        target_unitary=_complex(payload["target_unitary"]),
    )


def forward(net: Network, rho: np.ndarray) -> np.ndarray:
    """Network output for one input density matrix."""
    for l, perceptrons in enumerate(net.layers):
        m_in, m_out = net.widths[l], net.widths[l + 1]
        space = m_in + m_out
        big = kron(rho, ground(m_out))
        for j, u in enumerate(perceptrons):
            big = conjugate_on(u, big, list(range(m_in)) + [m_in + j], space)
        out = ptrace(big, space, range(m_in, space))
        if net.shortcut[l]:
            out = out + kron(rho, ground(m_out - m_in))
        rho = out
    return rho


@dataclass(frozen=True)
class Costs:
    c_sv: float
    c_g: float
    c_full: float
    c_test: float


def costs(net: Network, data: Dataset, outputs: list[np.ndarray], gamma: float) -> Costs:
    """The four costs of ``outputs`` (one per vertex), each divided by ``2**t``."""
    scale = 2.0**net.shortcut_count

    def overlap(v: int) -> float:
        phi = data.target(v)
        return float(np.vdot(phi, outputs[v] @ phi).real)

    c_sv = sum(overlap(v) for v in data.supervised) / (scale * len(data.supervised))
    held = data.held_out
    c_test = sum(overlap(v) for v in held) / (scale * len(held)) if held else math.nan
    spread = 0.0
    for v, w in data.edges:
        diff = outputs[v] - outputs[w]
        spread += 2.0 * float(np.einsum("ij,ji->", diff, diff).real)
    c_g = spread / scale
    return Costs(c_sv, c_g, c_sv + gamma * c_g, c_test)


def pauli_basis(num_qubits: int) -> list[np.ndarray]:
    """All ``4**n`` Pauli products; the first qubit's factor varies slowest."""
    single = (
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    basis = [np.ones((1, 1), dtype=complex)]
    for _ in range(num_qubits):
        basis = [kron(b, p) for b in basis for p in single]
    return basis


def pauli_coefficients(matrix: np.ndarray) -> np.ndarray:
    """``c_a = tr(P_a @ matrix) / 2**n`` for every Pauli product ``P_a``."""
    n = int(round(math.log2(matrix.shape[0])))
    return np.array(
        [np.einsum("ij,ji->", p, matrix) for p in pauli_basis(n)]
    ) / matrix.shape[0]


def hermitian_defect(matrix: np.ndarray) -> float:
    return float(np.abs(matrix - matrix.conj().T).max())
