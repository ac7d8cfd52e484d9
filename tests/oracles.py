"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written the slow, obvious way (explicit index
loops, Taylor series, monolithic full-space products) so that agreement with
the production code is evidence, not tautology.
"""

from __future__ import annotations

import itertools

import numpy as np


def bit_of(index: int, qubit: int, num_qubits: int) -> int:
    """Bit of ``index`` belonging to ``qubit`` (big-endian: qubit 0 is MSB)."""
    return (index >> (num_qubits - 1 - qubit)) & 1


def index_from_bits(bits: dict[int, int], num_qubits: int) -> int:
    idx = 0
    for q in range(num_qubits):
        idx = (idx << 1) | bits[q]
    return idx


def ptrace_bruteforce(matrix: np.ndarray, num_qubits: int, keep: list[int]) -> np.ndarray:
    """Partial trace by explicit four-index summation over basis bitstrings."""
    keep = sorted(keep)
    drop = [q for q in range(num_qubits) if q not in keep]
    dim_keep = 2 ** len(keep)
    out = np.zeros((dim_keep, dim_keep), dtype=complex)
    for a in range(dim_keep):
        abits = {q: (a >> (len(keep) - 1 - i)) & 1 for i, q in enumerate(keep)}
        for b in range(dim_keep):
            bbits = {q: (b >> (len(keep) - 1 - i)) & 1 for i, q in enumerate(keep)}
            total = 0.0 + 0.0j
            for rest in itertools.product((0, 1), repeat=len(drop)):
                rbits = dict(zip(drop, rest))
                row = index_from_bits({**abits, **rbits}, num_qubits)
                col = index_from_bits({**bbits, **rbits}, num_qubits)
                total += matrix[row, col]
            out[a, b] = total
    return out


def expm_taylor(k: np.ndarray, scale: float = 1.0, terms: int = 60) -> np.ndarray:
    """exp(i * scale * k) by plain Taylor summation."""
    dim = k.shape[0]
    acc = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    step = 1j * scale * k
    for order in range(1, terms):
        term = term @ step / order
        acc = acc + term
    return acc


def embed_bruteforce(op: np.ndarray, targets: list[int], num_qubits: int) -> np.ndarray:
    """Entry-by-entry embedding of ``op`` acting on ``targets``."""
    dim = 2**num_qubits
    rest = [q for q in range(num_qubits) if q not in targets]
    out = np.zeros((dim, dim), dtype=complex)
    for row in range(dim):
        for col in range(dim):
            if any(bit_of(row, q, num_qubits) != bit_of(col, q, num_qubits) for q in rest):
                continue
            sub_row = 0
            sub_col = 0
            for q in targets:
                sub_row = (sub_row << 1) | bit_of(row, q, num_qubits)
                sub_col = (sub_col << 1) | bit_of(col, q, num_qubits)
            out[row, col] = op[sub_row, sub_col]
    return out


def frobenius_sq(a: np.ndarray, b: np.ndarray) -> float:
    """Entry-wise |a - b|**2 summation (Hilbert-Schmidt distance oracle)."""
    return float(np.sum(np.abs(a - b) ** 2))


def random_hermitian(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    dim = 2**num_qubits
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def random_density(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (Wishart normalized to unit trace)."""
    dim = 2**num_qubits
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = z @ z.conj().T
    return w / np.trace(w).real


def layer_forward_monolithic(
    rho: np.ndarray, perceptrons: list[np.ndarray], width_in: int, width_out: int
) -> np.ndarray:
    """Single full-space construction of one layer, all via brute-force pieces."""
    space = width_in + width_out
    anc = np.zeros((2**width_out, 2**width_out), dtype=complex)
    anc[0, 0] = 1.0
    big = np.kron(rho, anc)
    for j, u in enumerate(perceptrons):
        targets = list(range(width_in)) + [width_in + j]
        full = embed_bruteforce(u, targets, space)
        big = full @ big @ full.conj().T
    return ptrace_bruteforce(big, space, list(range(width_in, space)))


def random_architecture(rng: np.random.Generator, max_hidden: int = 3):
    """Small random architecture: nondecreasing hidden widths, random flags."""
    from resqnn.netcore import Architecture

    m0 = int(rng.integers(1, 3))
    num_hidden = int(rng.integers(1, max_hidden + 1))
    widths = [m0]
    for _ in range(num_hidden):
        widths.append(int(rng.integers(widths[-1], 4)))
    widths.append(int(rng.integers(1, 4)))
    flags = tuple(bool(rng.integers(0, 2)) for _ in range(num_hidden))
    return Architecture(tuple(widths), flags)


#: Eigenvalues above this (slightly negative) floor count as positive.
PSD_TOL = -1e-9


def assert_valid_state(state) -> None:
    """Raise if an ``OperatorState`` is not positive semidefinite up to ``PSD_TOL``.

    Hermiticity is already enforced at construction; this adds the eigenvalue
    floor check.
    """
    eigs = np.linalg.eigvalsh(state.matrix)
    if eigs.min() < PSD_TOL:
        raise ValueError(f"state has eigenvalue {eigs.min():.3e} below {PSD_TOL:.0e}")


def hs_distance(a, b) -> float:
    """Hilbert-Schmidt distance trace((a - b)^2) of two ``OperatorState``s."""
    diff = a.matrix - b.matrix
    return float(np.trace(diff @ diff).real)


def cost_graph_pairs(outputs, adjacency, residual_count: int) -> float:
    """Graph cost by a double loop over ordered vertex pairs, self-loops skipped."""
    total = 0.0
    for v in range(len(outputs)):
        for w in range(len(outputs)):
            if adjacency[v][w] != 0.0 and v != w:
                total += adjacency[v][w] * hs_distance(outputs[v], outputs[w])
    return total / 2.0**residual_count


def graph_generators_per_edge(arch, embedded, records, adjacency):
    """Graph generators from one backward pass per edge of the upper triangle.

    Edge ``(v, w)`` runs the forward operators on the input differences
    ``in_v - in_w`` of every layer against the seed ``rho_v - rho_w``, with
    weight ``adjacency[v][w]`` and layer scale ``2**(m_{l-1} + 1)`` (eta 1).
    Production sums the same terms as one Laplacian-seeded pass per vertex.
    """
    from resqnn.netcore import _corner_block
    from resqnn.trainer import UpdateGenerators, _layer_pass

    acc = [
        [np.zeros((2 ** (arch.width_in(l) + 1),) * 2, dtype=complex)
         for _ in range(arch.width_out(l))]
        for l in range(arch.num_unitary_layers)
    ]
    n = len(records)
    for v in range(n):
        for w in range(v + 1, n):
            weight = float(adjacency[v][w])
            if weight == 0.0:
                continue
            back = records[v].final.matrix - records[w].final.matrix
            for l in range(arch.num_unitary_layers - 1, -1, -1):
                fwd_in = records[v].layer_inputs[l].matrix - records[w].layer_inputs[l].matrix
                contribs, pulled = _layer_pass(arch, l, embedded[l], fwd_in, back)
                for p, c in enumerate(contribs):
                    acc[l][p] += weight * c
                if arch.is_residual(l):
                    pulled = pulled + _corner_block(back, arch.width_in(l), arch.delta_m(l))
                back = pulled
    layers = tuple(
        tuple(2.0 ** (arch.width_in(l) + 1) * k for k in layer)
        for l, layer in enumerate(acc)
    )
    return UpdateGenerators(arch, layers)
