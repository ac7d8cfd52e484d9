import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import refsim  # noqa: E402

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def random_density(dim, rng):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_kron_by_hand():
    assert np.array_equal(refsim.kron(X, I2)[0], [0, 0, 1, 0])
    assert np.array_equal(refsim.kron(I2, X)[0], [0, 1, 0, 0])
    assert refsim.kron(np.ones((1, 1)), Z).tolist() == Z.tolist()


def test_partial_trace_of_a_product_keeps_the_right_factor():
    rng = np.random.default_rng(0)
    a, b, c = (random_density(2, rng) for _ in range(3))
    abc = refsim.kron(refsim.kron(a, b), c)
    assert np.allclose(refsim.ptrace(abc, 3, [1]), b)
    assert np.allclose(refsim.ptrace(abc, 3, [0, 2]), refsim.kron(a, c))
    assert np.isclose(refsim.ptrace(abc, 3, []).item(), 1.0)


def test_conjugate_on_a_subset_of_qubits():
    rng = np.random.default_rng(1)
    rho = random_density(8, rng)
    # X on qubit 1 of 3 is I (x) X (x) I
    full = refsim.kron(refsim.kron(I2, X), I2)
    assert np.allclose(refsim.conjugate_on(X, rho, [1], 3), full @ rho @ full.conj().T)
    # a two-qubit unitary on qubits 0 and 2 matches its explicit embedding
    u = random_unitary(4, rng)
    swap12 = np.eye(8)[[0, 2, 1, 3, 4, 6, 5, 7]]  # exchanges qubits 1 and 2
    embedded = swap12 @ refsim.kron(u, I2) @ swap12
    assert np.allclose(refsim.conjugate_on(u, rho, [0, 2], 3), embedded @ rho @ embedded.conj().T)


def test_identity_perceptron_layer_outputs_the_ancilla_state():
    # 1 -> 1 layer whose perceptron is the identity: the output is |0><0|.
    net = refsim.Network((1, 1), (False,), ((np.eye(4, dtype=complex),),))
    rho = random_density(2, np.random.default_rng(2))
    assert np.allclose(refsim.forward(net, rho), refsim.ground(1))


def test_swap_perceptron_moves_the_input_to_the_output():
    swap = np.eye(4)[[0, 2, 1, 3]].astype(complex)
    net = refsim.Network((1, 1), (False,), ((swap,),))
    rho = random_density(2, np.random.default_rng(3))
    assert np.allclose(refsim.forward(net, rho), rho)


@pytest.mark.parametrize("arch", ["1,~1,1", "1,~2,~2,2", "2,~3,~3,~3,2", "2,~2,3,~3,1"])
def test_trace_is_two_to_the_shortcut_count(arch):
    widths, flags = refsim.parse_arch(arch)
    rng = np.random.default_rng(4)
    layers = tuple(
        tuple(random_unitary(2 ** (widths[l] + 1), rng) for _ in range(widths[l + 1]))
        for l in range(len(widths) - 1)
    )
    net = refsim.Network(widths, flags, layers)
    out = refsim.forward(net, random_density(2 ** widths[0], rng))
    assert np.isclose(np.trace(out).real, 2.0 ** arch.count("~"))
    assert refsim.hermitian_defect(out) < 1e-12


def test_costs_by_hand(tmp_path):
    # Three vertices on a line, vertex 0 supervised; one shortcut layer (t = 1).
    zero, one = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    data = {
        "spec": {"topology": "line", "num_vertices": 3, "edges": [[0, 1], [1, 2]],
                 "supervised_indices": [0]},
        "input_qubits": 1,
        "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 0]]],
        "target_unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    }
    (tmp_path / "dataset.json").write_text(json.dumps(data))
    loaded = refsim.load_dataset(tmp_path / "dataset.json")
    assert np.allclose(loaded.states[1], one)
    net = refsim.Network((1, 1, 1), (True, False), ())
    outputs = [2 * np.outer(zero, zero), 2 * np.outer(one, one), 2 * np.outer(zero, zero)]
    c = refsim.costs(net, loaded, outputs, gamma=-0.5)
    assert c.c_sv == 1.0  # <0|2|0><0|0> / 2
    assert c.c_test == 1.0
    # each edge: tr((2|0><0| - 2|1><1|)^2) = 8, counted for both orders, / 2
    assert c.c_g == 16.0
    assert c.c_full == 1.0 - 0.5 * 16.0


def test_load_network_parses_the_checkpoint_format(tmp_path):
    u = np.eye(4, dtype=complex) * 1j
    payload = {"arch": "1,1", "seed": 0,
               "layers": [[np.stack([u.real, u.imag], axis=-1).tolist()]]}
    (tmp_path / "checkpoint.json").write_text(json.dumps(payload))
    net = refsim.load_network(tmp_path / "checkpoint.json")
    assert net.widths == (1, 1) and net.shortcut == (False,)
    assert np.array_equal(net.layers[0][0], u)


def test_pauli_coefficients_recover_a_combination():
    k = 0.5 * refsim.kron(X, Z) - 2.0 * refsim.kron(I2, I2)
    coeffs = refsim.pauli_coefficients(k)
    # order: II, IX, IY, IZ, XI, XX, XY, XZ, ...
    assert np.isclose(coeffs[0], -2.0) and np.isclose(coeffs[7], 0.5)
    assert np.isclose(np.abs(coeffs).sum(), 2.5)
