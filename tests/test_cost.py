"""Tests for the supervised, graph, and blended cost functions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resqnn import cost
from resqnn.cost import CostReport, cost_full
from resqnn.graphdata import build_graph_spec, generate_dataset
from resqnn.netcore import arch_from_string, forward, init_unitaries
from resqnn.qlinalg import (
    DimensionError,
    OperatorState,
    PureState,
    random_pure_state,
)
from resqnn.trainer import graph_generators, k_numeric_oracle

import oracles

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def basis_state(index, num_qubits):
    amp = np.zeros(2**num_qubits, dtype=complex)
    amp[index] = 1.0
    return PureState(amp, num_qubits)


def fidelity(outputs, targets, t):
    """``cost._mean_fidelity`` of lists of states."""
    finals = np.array([rho.matrix for rho in outputs])
    return cost._mean_fidelity(finals, np.array([phi.amplitudes for phi in targets]), t)


def spread(outputs, adjacency, t):
    """``cost._graph_spread`` of a list of states over a checked adjacency's edges."""
    finals = np.array([rho.matrix for rho in outputs])
    return cost._graph_spread(finals, cost._neighbor_weights(adjacency, len(outputs)), t)


class TestSupervised:
    def test_perfect_match_scores_one(self):
        rng = np.random.default_rng(0)
        targets = [random_pure_state(2, rng) for _ in range(3)]
        outputs = [t.density() for t in targets]
        assert fidelity(outputs, targets, 0) == pytest.approx(1.0, abs=1e-12)

    def test_inflated_trace_rescaled(self):
        # After one shortcut the output has trace 2; a target-plus-orthogonal
        # mixture overlaps the target with weight 1, rescaled to 0.5.
        phi = basis_state(0, 1)
        perp = basis_state(1, 1)
        inflated = OperatorState(phi.density().matrix + perp.density().matrix, 1)
        assert fidelity([inflated], [phi], 1) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_scores_zero(self):
        assert fidelity([basis_state(1, 1).density()], [basis_state(0, 1)], 0) == 0.0

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_bounded_unit_interval_on_network_outputs(self, seed):
        rng = np.random.default_rng(seed)
        arch = oracles.random_architecture(rng)
        unis = init_unitaries(arch, rng)
        outputs = [
            forward(arch, unis, random_pure_state(arch.input_qubits, rng).density()).final
            for _ in range(3)
        ]
        targets = [random_pure_state(arch.output_qubits, rng) for _ in range(3)]
        value = fidelity(outputs, targets, arch.residual_count)
        assert -1e-12 <= value <= 1.0 + 1e-12

    def test_pair_permutation_invariance(self):
        rng = np.random.default_rng(1)
        targets = [random_pure_state(1, rng) for _ in range(4)]
        outputs = [random_pure_state(1, rng).density() for _ in range(4)]
        base = fidelity(outputs, targets, 0)
        perm = [2, 0, 3, 1]
        shuffled = fidelity([outputs[i] for i in perm], [targets[i] for i in perm], 0)
        assert shuffled == pytest.approx(base, abs=1e-12)

    def test_rejects_empty_and_mismatched(self):
        # The kernel scores an empty set as NaN; the oracle, which needs a
        # supervised term to differentiate, refuses one.
        ds = generate_dataset(build_graph_spec("line", 3, 0), 1, seed=2)
        arch = arch_from_string("1,1")
        for gamma in (0.0, -0.5):
            with pytest.raises(ValueError, match="supervised"):
                k_numeric_oracle(arch, init_unitaries(arch, np.random.default_rng(2)), ds, gamma)
        rng = np.random.default_rng(2)
        pair = [random_pure_state(1, rng) for _ in range(2)]
        with pytest.raises(ValueError):
            fidelity([phi.density() for phi in pair] + [pair[0].density()], pair, 0)
        with pytest.raises(ValueError):
            fidelity([random_pure_state(2, rng).density()], [random_pure_state(1, rng)], 0)


class TestGraph:
    def test_single_edge_orthogonal_outputs(self):
        outputs = [basis_state(0, 1).density(), basis_state(1, 1).density()]
        adjacency = np.array([[0, 1], [1, 0]], dtype=float)
        # Ordered-pair sum: the one undirected edge counts twice, each leg
        # contributing Hilbert-Schmidt distance 2.
        assert spread(outputs, adjacency, 0) == pytest.approx(4.0, abs=1e-12)

    def test_identical_outputs_score_zero(self):
        rng = np.random.default_rng(3)
        rho = random_pure_state(1, rng).density()
        adjacency = np.array([[0, 1], [1, 0]], dtype=float)
        assert spread([rho, rho], adjacency, 0) == pytest.approx(0.0, abs=1e-12)

    def test_weights_scale_linearly(self):
        rng = np.random.default_rng(4)
        outputs = [random_pure_state(1, rng).density() for _ in range(2)]
        adj = np.array([[0, 1], [1, 0]], dtype=float)
        assert spread(outputs, 3.0 * adj, 0) == pytest.approx(
            3.0 * spread(outputs, adj, 0), abs=1e-12
        )

    def test_residual_rescaling(self):
        outputs = [basis_state(0, 1).density(), basis_state(1, 1).density()]
        adj = np.array([[0, 1], [1, 0]], dtype=float)
        assert spread(outputs, adj, 1) == pytest.approx(2.0, abs=1e-12)

    def test_no_edges_scores_zero(self):
        rng = np.random.default_rng(5)
        outputs = [random_pure_state(1, rng).density() for _ in range(3)]
        assert spread(outputs, np.zeros((3, 3)), 0) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_pair_loop_oracle(self, seed):
        # Random weights on a random edge set plus self-loops, which both
        # versions ignore; outputs carry a shortcut trace 2**t.
        rng = np.random.default_rng(seed)
        n, q, t = 6, int(rng.integers(1, 3)), int(rng.integers(0, 3))
        outputs = [
            OperatorState(2.0**t * oracles.random_density(q, rng), q) for _ in range(n)
        ]
        upper = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.5), 1)
        adjacency = upper + upper.T + np.diag(rng.uniform(0.5, 1.5, n))
        want = oracles.cost_graph_pairs(outputs, adjacency, t)
        assert want > 0.0
        assert abs(spread(outputs, adjacency, t) - want) <= 1e-12 * want

    def test_chunked_sum_equals_one_pass(self, monkeypatch):
        # Three edges' temporaries per chunk over 13 edges leaves a short last chunk.
        rng = np.random.default_rng(8)
        outputs = [OperatorState(oracles.random_density(2, rng), 2) for _ in range(7)]
        rows, cols = np.triu_indices(7, 1)
        adjacency = np.zeros((7, 7))
        adjacency[rows[:13], cols[:13]] = rng.uniform(0.1, 2.0, 13)
        adjacency += adjacency.T
        monkeypatch.setattr(cost, "_SPREAD_CHUNK_BYTES", 2**40)
        whole = spread(outputs, adjacency, 1)
        monkeypatch.setattr(cost, "_SPREAD_CHUNK_BYTES", 3 * 4 * outputs[0].matrix.nbytes)
        assert spread(outputs, adjacency, 1) == whole

    def test_rejects_bad_adjacency(self):
        # graph_generators is the public path that takes an adjacency from outside.
        arch = arch_from_string("1,1")
        uni = init_unitaries(arch, np.random.default_rng(6))
        ds = generate_dataset(build_graph_spec("line", 2, 1), 1, seed=6)
        records = [forward(arch, uni, ds.input_density(v)) for v in range(2)]
        with pytest.raises(DimensionError):
            graph_generators(arch, uni, records, np.zeros((3, 3)))
        with pytest.raises(ValueError, match="symmetric"):
            graph_generators(arch, uni, records, np.array([[0, 1], [0, 0]], dtype=float))
        with pytest.raises(ValueError, match="non-finite"):
            graph_generators(arch, uni, records, np.array([[0, np.nan], [np.nan, 0]]))


class TestArrayKernels:
    @pytest.mark.parametrize("seed", range(4))
    def test_kernels_equal_public_costs(self, seed):
        # Training and the oracle score (V, d, d) stacks through the kernels;
        # each must equal its pair-by-pair definition.
        rng = np.random.default_rng(seed)
        n, q, t = 6, int(rng.integers(1, 3)), int(rng.integers(0, 3))
        finals = np.stack([2.0**t * oracles.random_density(q, rng) for _ in range(n)])
        amps = np.stack([random_pure_state(q, rng).amplitudes for _ in range(n)])
        for sup in ([0, 3], list(range(n))):
            overlaps = [np.vdot(amps[v], finals[v] @ amps[v]).real for v in sup]
            want = sum(overlaps) / len(sup) / 2.0**t
            assert cost._mean_fidelity(finals[sup], amps[sup], t) == pytest.approx(want, rel=1e-12)
        assert np.isnan(cost._mean_fidelity(finals[[]], amps[[]], t))
        upper = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.5), 1)
        adjacency = upper + upper.T + np.diag(rng.uniform(0.5, 1.5, n))
        got = cost._graph_spread(finals, cost._neighbor_weights(adjacency, n), t)
        outputs = [OperatorState(rho, q) for rho in finals]
        want = oracles.cost_graph_pairs(outputs, adjacency, t)
        assert abs(got - want) <= 1e-12 * want


class TestFullAndTest:
    def test_gamma_zero_is_supervised_only(self):
        assert cost_full(0.75, 123.0, 0.0) == 0.75

    def test_blend_is_linear_in_gamma(self):
        assert cost_full(0.5, 2.0, -0.5) == pytest.approx(0.5 - 1.0, abs=1e-15)
        assert cost_full(0.5, 2.0, -0.8) == pytest.approx(0.5 - 1.6, abs=1e-15)

    def test_positive_gamma_rejected(self):
        with pytest.raises(ValueError):
            cost_full(0.5, 1.0, 0.1)

    def test_cost_test_maximally_mixed(self):
        mixed = OperatorState(np.eye(4, dtype=complex) / 4, 2)
        phi = random_pure_state(2, np.random.default_rng(7))
        assert fidelity([mixed], [phi], 0) == pytest.approx(0.25, abs=1e-12)

    def test_cost_test_empty_is_nan(self):
        # A dataset whose every vertex is supervised has no held-out vertex.
        assert np.isnan(cost._mean_fidelity(np.zeros((0, 4, 4)), np.zeros((0, 4)), 0))

    def test_report_round_trip(self):
        report = CostReport(c_sv=0.5, c_g=1.0, c_full=0.0, c_test=0.4)
        assert report.as_dict() == {"c_sv": 0.5, "c_g": 1.0, "c_full": 0.0, "c_test": 0.4}
