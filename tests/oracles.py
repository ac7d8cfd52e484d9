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


def exp_i_hermitian_eigh(k: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(i * scale * k) of a Hermitian (..., d, d) stack by eigendecomposition.

    The replaced ``qlinalg.exp_i_hermitian``: one batched ``eigh``, then
    ``V diag(exp(i * scale * w)) V^dagger``.
    """
    eigvals, eigvecs = np.linalg.eigh(k)
    phases = np.exp(1j * scale * eigvals)
    return (eigvecs * phases[..., None, :]) @ eigvecs.conj().swapaxes(-1, -2)


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


def _ground_columns(u: np.ndarray, width_in: int, width_out: int) -> np.ndarray:
    """Columns of a layer operator whose output qubits are all |0>."""
    return u.reshape(u.shape[0], 2**width_in, 2**width_out)[:, :, 0]


def _targets(width_in: int, j: int) -> list[int]:
    """Workspace qubits of perceptron ``j``: every input qubit, then output qubit ``j``."""
    return list(range(width_in)) + [width_in + j]


def workspace_matrices(arch, unitaries):
    """Every perceptron embedded in its layer's full workspace by :func:`embed_bruteforce`."""
    layers = []
    for l, perceptrons in enumerate(unitaries.layers):
        width_in, space = arch.width_in(l), arch.width_in(l) + arch.width_out(l)
        layers.append(
            [embed_bruteforce(u, _targets(width_in, j), space) for j, u in enumerate(perceptrons)]
        )
    return layers


def ptrace(matrix: np.ndarray, num_qubits: int, keep) -> np.ndarray:
    """Partial trace keeping the (sorted) ``keep`` qubits, by one einsum over the rest."""
    keep = sorted(keep)
    # Row qubit q is axis q and column qubit q axis num_qubits + q; a dropped
    # qubit's column axis shares its row label, so einsum sums the diagonal.
    cols = [num_qubits + q if q in keep else q for q in range(num_qubits)]
    tensor = np.einsum(
        matrix.reshape([2] * (2 * num_qubits)),
        list(range(num_qubits)) + cols,
        keep + [num_qubits + q for q in keep],
    )
    return tensor.reshape(2 ** len(keep), 2 ** len(keep))


def layer_chain(rho, width_in, width_out, embedded_layer):
    """Yield ``(left, right)`` whose product is the state after each perceptron in turn.

    The first adjoins the ancillas through its ground columns ``c`` (``c rho``,
    ``c^dagger``); each later ``u`` gives ``u (left @ right)``, ``u^dagger``.
    """
    first = _ground_columns(embedded_layer[0], width_in, width_out)
    left, right = first @ rho, first.conj().T
    yield left, right
    for u in embedded_layer[1:]:
        left, right = u @ (left @ right), u.conj().T
        yield left, right


def forward_reference(arch, embedded, rho, start_layer=0):
    """One vertex's layer inputs and outputs, perceptron by perceptron on the workspace.

    ``embedded`` comes from :func:`workspace_matrices`. Shortcuts add
    ``rho_in (x) |0..0><0..0|`` built with ``np.kron``.
    """
    inputs, outputs = [rho], []
    for l in range(start_layer, arch.num_unitary_layers):
        width_in, width_out = arch.width_in(l), arch.width_out(l)
        space = width_in + width_out
        for left, right in layer_chain(rho, width_in, width_out, embedded[l]):
            pass
        out = ptrace(left @ right, space, range(width_in, space))
        outputs.append(out)
        if arch.is_residual(l):
            ground = np.zeros((2 ** arch.delta_m(l),) * 2, dtype=complex)
            ground[0, 0] = 1.0
            rho = out + np.kron(rho, ground)
        else:
            rho = out
        if l + 1 < arch.num_unitary_layers:
            inputs.append(rho)
    return inputs, outputs


def layer_pass(arch, layer, embedded_layer, rho_in, back_matrix):
    """Commutator contributions of one layer for one vertex, plus the pulled-back operator.

    Returns ``i * tr_rest([forward_j, backward_j])`` for every perceptron
    ``j``, and the back operator propagated to the previous layer's qubits
    (adjoint of the layer map, before any shortcut corner term).
    """
    width_in, width_out = arch.width_in(layer), arch.width_out(layer)
    space = width_in + width_out
    # Backward: back_{p-1} = u_p^dagger back_p u_p, keeping ys[p] = u_p^dagger back_p.
    back = np.kron(np.eye(2**width_in), back_matrix)
    ys = [None] * width_out
    for p in range(width_out - 1, 0, -1):
        u = embedded_layer[p]
        ys[p] = u.conj().T @ back
        back = ys[p] @ u
    first = _ground_columns(embedded_layer[0], width_in, width_out)
    ys[0] = first.conj().T @ back
    # The state after perceptron p is left_p @ right_p, and right_p @ back_p = ys[p].
    chain = layer_chain(rho_in, width_in, width_out, embedded_layer)
    halves = [
        ptrace(left @ ys[p], space, _targets(width_in, p))
        for p, (left, _) in enumerate(chain)
    ]
    contribs = [1j * (half - half.conj().T) for half in halves]
    return contribs, ys[0] @ first


def _zero_generators(arch):
    return [
        [np.zeros((2 ** (arch.width_in(l) + 1),) * 2, dtype=complex)
         for _ in range(arch.width_out(l))]
        for l in range(arch.num_unitary_layers)
    ]


def _scaled_generators(arch, acc, eta):
    from resqnn.trainer import UpdateGenerators

    layers = tuple(
        tuple(eta * 2.0 ** arch.width_in(l) * k for k in layer) for l, layer in enumerate(acc)
    )
    return UpdateGenerators(arch, layers)


def _pull_back(arch, embedded, acc, layer_inputs, seed, weight=1.0):
    """Add one pass of ``seed`` against ``layer_inputs[l]`` (per layer) into ``acc``."""
    from resqnn.netcore import _corner_block

    back = seed
    for l in range(arch.num_unitary_layers - 1, -1, -1):
        contribs, pulled = layer_pass(arch, l, embedded[l], layer_inputs[l], back)
        for p, c in enumerate(contribs):
            acc[l][p] += weight * c
        if arch.is_residual(l):
            pulled = pulled + _corner_block(back, arch.width_in(l), arch.delta_m(l))
        back = pulled


def vertex_generators_per_vertex(arch, embedded, vertex_inputs, seeds, eta):
    """``eta * 2**m_{l-1} * sum_v i tr_rest([forward_v, backward(seed_v)])``, one pass per vertex.

    ``vertex_inputs[v][l]`` is vertex ``v``'s input to layer ``l``.
    """
    acc = _zero_generators(arch)
    for layer_inputs, seed in zip(vertex_inputs, seeds):
        _pull_back(arch, embedded, acc, layer_inputs, seed)
    return _scaled_generators(arch, acc, eta)


def graph_generators_per_edge(arch, embedded, records, adjacency):
    """Graph generators from one backward pass per edge of the upper triangle.

    Edge ``(v, w)`` runs the forward operators on the input differences
    ``in_v - in_w`` of every layer against the seed ``rho_v - rho_w``, with
    weight ``adjacency[v][w]`` and layer scale ``2**(m_{l-1} + 1)`` (eta 1).
    Production sums the same terms in one Laplacian-seeded sweep over all vertices.
    """
    acc = _zero_generators(arch)
    n = len(records)
    for v in range(n):
        for w in range(v + 1, n):
            weight = float(adjacency[v][w])
            if weight == 0.0:
                continue
            fwd_in = [
                a.matrix - b.matrix
                for a, b in zip(records[v].layer_inputs, records[w].layer_inputs)
            ]
            seed = records[v].final.matrix - records[w].final.matrix
            _pull_back(arch, embedded, acc, fwd_in, seed, weight)
    return _scaled_generators(arch, acc, 2.0)


def k_shift_oracle(arch, unitaries, dataset, gamma, eta=1.0):
    """Generators from an exact four-point shift rule on ``c_sv + gamma * scale * c_g``.

    Under ``u -> exp(i theta P) u`` every output is a trigonometric polynomial
    in ``theta`` with frequencies {0, 2}, and the graph cost, quadratic in the
    outputs, adds frequency 4. With ``D1 = C(pi/8) - C(-pi/8)`` and
    ``D2 = C(3pi/8) - C(-3pi/8)``, ``dC/dtheta = (D1 + D2)/sqrt(2) + (D1 - D2)``
    exactly. Assembled like ``k_numeric_oracle``: ``eta * 2**(t-1) * sum_P dC/dtheta_P P``.
    Outputs come from :func:`forward_reference`, not the production engine, and
    are scored here and by :func:`cost_graph_pairs`, not by ``resqnn.cost``.
    """
    from resqnn.qlinalg import OperatorState, _pauli_stack
    from resqnn.trainer import GRAPH_GRADIENT_SCALE, UpdateGenerators

    t = arch.residual_count
    supervised = dataset.spec.supervised_indices
    targets = [dataset.target_unitary @ dataset.inputs[v].amplitudes for v in supervised]
    embedded = workspace_matrices(arch, unitaries)
    records = [
        forward_reference(arch, embedded, dataset.input_density(v).matrix)[0]
        for v in range(dataset.spec.num_vertices)
    ]

    def cost(patched, layer):
        finals = [
            OperatorState(forward_reference(arch, patched, ins[layer], layer)[1][-1],
                          arch.output_qubits)
            for ins in records
        ]
        overlaps = [
            np.vdot(phi, finals[v].matrix @ phi).real for v, phi in zip(supervised, targets)
        ]
        value = sum(overlaps) / len(targets) / 2.0**t
        if gamma != 0.0:
            value += gamma * GRAPH_GRADIENT_SCALE * cost_graph_pairs(finals, dataset.adjacency, t)
        return value

    layers = []
    for l in range(arch.num_unitary_layers):
        width_in, space = arch.width_in(l), arch.width_in(l) + arch.width_out(l)
        paulis = _pauli_stack(width_in + 1)
        layer = []
        for p in range(arch.width_out(l)):
            base, qubits = embedded[l][p], _targets(width_in, p)
            patched = [list(emb) for emb in embedded]
            grad = np.zeros(len(paulis))
            for a in range(1, len(paulis)):
                rotated = embed_bruteforce(paulis[a], qubits, space) @ base
                diffs = []
                for theta in (np.pi / 8, 3 * np.pi / 8):
                    values = []
                    for sign in (1.0, -1.0):
                        patched[l][p] = np.cos(theta) * base + 1j * sign * np.sin(theta) * rotated
                        values.append(cost(patched, l))
                    diffs.append(values[0] - values[1])
                d1, d2 = diffs
                grad[a] = (d1 + d2) / np.sqrt(2.0) + (d1 - d2)
            layer.append(eta * 2.0 ** (t - 1) * np.tensordot(grad, paulis, axes=1))
        layers.append(tuple(layer))
    return UpdateGenerators(arch, tuple(layers))
