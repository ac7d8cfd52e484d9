"""Tests for the multi-qubit linear-algebra layer."""

import itertools
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resqnn import qlinalg as qla
from resqnn.qlinalg import (
    DimensionError,
    NonHermitianError,
    OperatorState,
    PureState,
    exp_i_hermitian,
    haar_random_unitary,
    pauli_coefficients,
    random_pure_state,
)

import oracles

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rng_from(seed):
    return np.random.default_rng(seed)


def pauli_products(n):
    """All n-qubit Pauli products, first qubit's factor varying slowest."""
    singles = (qla.PAULI_I, qla.PAULI_X, qla.PAULI_Y, qla.PAULI_Z)
    return [reduce(np.kron, combo) for combo in itertools.product(singles, repeat=n)]


class TestStates:
    def test_operator_state_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NonHermitianError):
            OperatorState(bad, 1)

    def test_operator_state_rejects_wrong_dimension(self):
        with pytest.raises(DimensionError):
            OperatorState(np.eye(4, dtype=complex), 1)
        with pytest.raises(DimensionError):
            OperatorState(np.eye(3, dtype=complex), 1)

    def test_operator_state_rejects_non_finite(self):
        bad = np.array([[np.inf, 0], [0, 1]], dtype=complex)
        with pytest.raises(ValueError):
            OperatorState(bad, 1)

    def test_operator_state_is_read_only(self):
        state = OperatorState(np.eye(2, dtype=complex) / 2, 1)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 5.0

    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0], dtype=complex), 1)

    def test_pure_state_rejects_non_vector(self):
        # Four normalized amplitudes, but laid out as a matrix.
        with pytest.raises(DimensionError):
            PureState(np.eye(2, dtype=complex) / np.sqrt(2), 2)

    def test_pure_state_density_is_projector(self):
        psi = PureState(np.array([1, 1j], dtype=complex) / np.sqrt(2), 1)
        rho = psi.density()
        np.testing.assert_allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-12)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_assert_valid_state_flags_negative_eigenvalue(self):
        indefinite = OperatorState(np.diag([1.0, -0.5]).astype(complex), 1)
        with pytest.raises(ValueError):
            oracles.assert_valid_state(indefinite)


class TestTensorAndTrace:
    """The partial trace and embedding the reference engines in ``oracles`` build on."""

    @given(seed=seeds, na=st.integers(1, 2), nb=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_tensor_trace_multiplicative(self, seed, na, nb):
        # Keeping no qubit leaves the full trace, which a product multiplies.
        rng = rng_from(seed)
        a = oracles.random_hermitian(na, rng)
        b = oracles.random_hermitian(nb, rng)
        full = oracles.ptrace(np.kron(a, b), na + nb, [])
        assert full.shape == (1, 1)
        assert abs(full[0, 0] - np.trace(a) * np.trace(b)) <= 1e-12 * max(
            1.0, abs(np.trace(a) * np.trace(b))
        )

    def test_tensor_product_three_factors(self):
        # Single-qubit factors embedded on their own qubits compose to the product.
        x, y, z = qla.PAULI_X, qla.PAULI_Y, qla.PAULI_Z
        expected = np.kron(np.kron(x, y), z)
        embed = oracles.embed_bruteforce
        composed = embed(x, [0], 3) @ embed(y, [1], 3) @ embed(z, [2], 3)
        np.testing.assert_array_equal(composed, expected)

    @given(seed=seeds, na=st.integers(1, 2), nb=st.integers(1, 2))
    @settings(max_examples=40, deadline=None)
    def test_ptrace_of_product_recovers_factor(self, seed, na, nb):
        rng = rng_from(seed)
        rho = oracles.random_density(na, rng)
        sigma = oracles.random_density(nb, rng)
        joint = np.kron(rho, sigma)
        left = oracles.ptrace(joint, na + nb, range(na))
        right = oracles.ptrace(joint, na + nb, range(na, na + nb))
        np.testing.assert_allclose(left, rho * np.trace(sigma), atol=1e-12)
        np.testing.assert_allclose(right, sigma * np.trace(rho), atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), 2)
        for keep in (0, 1):
            reduced = oracles.ptrace(bell.density().matrix, 2, [keep])
            np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)

    @given(seed=seeds, n=st.integers(2, 4))
    @settings(max_examples=30, deadline=None)
    def test_ptrace_matches_bruteforce(self, seed, n):
        rng = rng_from(seed)
        mat = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        keep = sorted(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
        expected = oracles.ptrace_bruteforce(mat, n, keep)
        np.testing.assert_allclose(oracles.ptrace(mat, n, keep), expected, atol=1e-12)

    @given(seed=seeds, n=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_ptrace_preserves_trace_and_state_validity(self, seed, n):
        rng = rng_from(seed)
        state = OperatorState(oracles.random_density(n + 1, rng), n + 1)
        reduced = OperatorState(oracles.ptrace(state.matrix, n + 1, range(1, n + 1)), n)
        assert reduced.trace() == pytest.approx(state.trace(), abs=1e-12)
        oracles.assert_valid_state(reduced)

    def test_partial_trace_keep_contiguous_block(self):
        rng = rng_from(7)
        rho = oracles.random_density(1, rng)
        sigma = oracles.random_density(2, rng)
        joint = np.kron(rho, sigma)
        kept = oracles.ptrace(joint, 3, [1, 2])
        np.testing.assert_allclose(kept, sigma, atol=1e-12)


class TestEmbedding:
    def test_embed_identity_everywhere(self):
        np.testing.assert_allclose(
            oracles.embed_bruteforce(np.eye(2, dtype=complex), [1], 3), np.eye(8), atol=1e-15
        )


class TestHaarSampling:
    @given(seed=seeds, n=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_unitarity(self, seed, n):
        u = haar_random_unitary(n, rng_from(seed))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2**n), atol=1e-12)

    def test_determinism_per_seed(self):
        u1 = haar_random_unitary(2, rng_from(123))
        u2 = haar_random_unitary(2, rng_from(123))
        np.testing.assert_array_equal(u1, u2)
        u3 = haar_random_unitary(2, rng_from(124))
        assert np.abs(u1 - u3).max() > 1e-3

    def test_first_entry_moment_matches_haar(self):
        # E|U_00|^2 = 1/dim for Haar measure; Monte-Carlo frozen at 10k draws.
        rng = rng_from(2024)
        total = 0.0
        for _ in range(10_000):
            total += abs(haar_random_unitary(1, rng)[0, 0]) ** 2
        assert total / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_random_pure_state_moment(self):
        rng = rng_from(2025)
        total = 0.0
        for _ in range(10_000):
            total += abs(random_pure_state(2, rng).amplitudes[0]) ** 2
        assert total / 10_000 == pytest.approx(0.25, abs=0.02)


class TestExponential:
    @given(seed=seeds, n=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_taylor_oracle(self, seed, n):
        rng = rng_from(seed)
        k = oracles.random_hermitian(n, rng)
        scale = float(rng.uniform(-1.5, 1.5))
        expected = oracles.expm_taylor(k, scale)
        np.testing.assert_allclose(exp_i_hermitian(k, scale), expected, atol=1e-10)

    @given(seed=seeds, n=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_result_is_unitary(self, seed, n):
        u = exp_i_hermitian(oracles.random_hermitian(n, rng_from(seed)))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2**n), atol=1e-12)

    def test_pauli_x_half_turn(self):
        expected = 1j * qla.PAULI_X
        np.testing.assert_allclose(
            exp_i_hermitian(qla.PAULI_X, np.pi / 2), expected, atol=1e-12
        )

    def test_zero_scale_is_identity(self):
        k = oracles.random_hermitian(2, rng_from(5))
        np.testing.assert_allclose(exp_i_hermitian(k, 0.0), np.eye(4), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            exp_i_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_stack_matches_each_matrix(self):
        rng = rng_from(11)
        stack = np.stack([oracles.random_hermitian(3, rng) for _ in range(3)])
        got = exp_i_hermitian(stack, 0.7)
        assert got.shape == (3, 8, 8)
        for k, u in zip(stack, got):
            np.testing.assert_allclose(u, exp_i_hermitian(k, 0.7), rtol=0, atol=1e-14)

    @staticmethod
    def _stack_at_norm(seed, count, qubits, norm):
        """``count`` random Hermitians on ``qubits``, and the scale giving them 1-norm ``norm``."""
        rng = rng_from(seed)
        k = np.stack([oracles.random_hermitian(qubits, rng) for _ in range(count)])
        return k, norm / np.abs(k).sum(axis=-2).max()

    @given(seed=seeds, count=st.integers(1, 6), qubits=st.integers(1, 5),
           log_norm=st.floats(-8.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_eigendecomposition(self, seed, count, qubits, log_norm):
        # The replaced eigh implementation is the reference across the
        # squaring range: no squaring below norm 1, ten at 1e3.
        k, scale = self._stack_at_norm(seed, count, qubits, 10.0**log_norm)
        got = exp_i_hermitian(k, scale)
        want = oracles.exp_i_hermitian_eigh(k, scale)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        unitarity = got @ got.conj().swapaxes(-1, -2) - np.eye(2**qubits)
        assert np.abs(unitarity).max() <= 1e-12

    @pytest.mark.parametrize("qubits", [1, 3, 5])
    def test_huge_norm_stays_accurate(self, qubits):
        # Twenty squarings: the roundoff grows with 2**s but stays far below 1e-9.
        k, scale = self._stack_at_norm(qubits, 3, qubits, 1e6)
        got = exp_i_hermitian(k, scale)
        want = oracles.exp_i_hermitian_eigh(k, scale)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        unitarity = got @ got.conj().swapaxes(-1, -2) - np.eye(2**qubits)
        assert np.abs(unitarity).max() <= 1e-9

    def test_squarings_are_bounded(self):
        # 2**53 roundoffs of 2**-53 add up to 1: past 53 squarings nothing is computed.
        k, scale = self._stack_at_norm(4, 3, 2, 2.0**52.5)
        assert np.isfinite(exp_i_hermitian(k, scale)).all()
        for norm, squarings in ((2.0**53.5, 54), (1e300, 997)):
            k, scale = self._stack_at_norm(4, 3, 2, norm)
            with pytest.raises(ValueError, match=f"{squarings} squarings.*unitarity"):
                exp_i_hermitian(k, scale)

    @pytest.mark.parametrize("theta", [1e-6, 1e-3, 0.1, 0.5, 0.999, 1.0, 1.9, 3.0])
    def test_series_is_exact_to_roundoff(self, theta):
        # Products of Paulis square to I, so exp(i theta P) = cos(theta) I + i sin(theta) P
        # exactly; the truncation must not show above roundoff at any degree.
        stack = np.stack([np.kron(qla.PAULI_X, qla.PAULI_Y), np.kron(qla.PAULI_Z, qla.PAULI_I)])
        want = np.cos(theta) * np.eye(4) + 1j * np.sin(theta) * stack
        np.testing.assert_allclose(exp_i_hermitian(stack, theta), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_scale(self, scale):
        for k in (qla.PAULI_X, np.zeros((2, 2))):
            with pytest.raises(ValueError, match="not finite"):
                exp_i_hermitian(k, scale)

    def test_stack_rejects_one_non_hermitian_member(self):
        rng = rng_from(12)
        stack = np.stack([oracles.random_hermitian(3, rng) for _ in range(3)])
        stack[2, 0, 1] += 1e-6
        with pytest.raises(NonHermitianError):
            exp_i_hermitian(stack)


class TestDistances:
    def test_hs_distance_orthogonal_pure_states(self):
        zero = PureState(np.array([1, 0], dtype=complex), 1).density()
        one = PureState(np.array([0, 1], dtype=complex), 1).density()
        assert oracles.hs_distance(zero, one) == pytest.approx(2.0, abs=1e-12)

    @given(seed=seeds, n=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_hs_distance_properties_and_oracle(self, seed, n):
        rng = rng_from(seed)
        a = OperatorState(oracles.random_density(n, rng), n)
        b = OperatorState(oracles.random_density(n, rng), n)
        d = oracles.hs_distance(a, b)
        assert d == pytest.approx(oracles.frobenius_sq(a.matrix, b.matrix), abs=1e-12)
        assert oracles.hs_distance(b, a) == pytest.approx(d, abs=1e-12)
        assert oracles.hs_distance(a, a) == pytest.approx(0.0, abs=1e-12)


class TestPauliBasis:
    def test_size_order_and_first_element(self):
        # Coefficient a of a Pauli product is 1 at its lexicographic
        # (I, X, Y, Z) index, the first qubit's factor varying slowest.
        cases = {
            0: np.eye(4),
            1: np.kron(qla.PAULI_I, qla.PAULI_X),
            4: np.kron(qla.PAULI_X, qla.PAULI_I),
            15: np.kron(qla.PAULI_Z, qla.PAULI_Z),
        }
        for index, product in cases.items():
            coeffs = pauli_coefficients(product)
            assert coeffs.shape == (16,)
            np.testing.assert_allclose(coeffs, np.eye(16)[index], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_orthogonality(self, n):
        # tr(P_a P_b) / 2**n = delta_ab: each product's coefficients are one-hot.
        basis = pauli_products(n)
        for b, pb in enumerate(basis):
            np.testing.assert_allclose(
                pauli_coefficients(pb), np.eye(4**n)[b], atol=1e-12
            )

    @given(seed=seeds, n=st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_completeness_reconstruction(self, seed, n):
        h = oracles.random_hermitian(n, rng_from(seed))
        coeffs = pauli_coefficients(h)
        assert np.abs(coeffs.imag).max() <= 1e-10
        rebuilt = sum(c * p for c, p in zip(coeffs, pauli_products(n)))
        np.testing.assert_allclose(rebuilt, h, atol=1e-10)

    def test_rejects_a_stack(self):
        with pytest.raises(DimensionError):
            pauli_coefficients(np.zeros((2, 4, 4)))

    def test_coefficients_of_basis_element(self):
        coeffs = pauli_coefficients(np.kron(qla.PAULI_X, qla.PAULI_Z))
        expected = np.zeros(16)
        expected[4 * 1 + 3] = 1.0
        np.testing.assert_allclose(coeffs, expected, atol=1e-12)
