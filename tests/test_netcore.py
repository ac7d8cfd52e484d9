"""Tests for architectures, perceptron layers, and residual feedforward."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resqnn.netcore import (
    Architecture,
    ArchitectureError,
    ForwardRecord,
    LayerUnitaries,
    _corner_block,
    _from_perceptron,
    _to_perceptron,
    arch_from_string,
    arch_to_string,
    embed_network,
    forward,
    init_unitaries,
    load_checkpoint,
    save_checkpoint,
)
from resqnn.qlinalg import (
    MAX_DENSE_BYTES,
    DimensionError,
    OperatorState,
    PureState,
    random_pure_state,
)

import oracles

seeds = st.integers(min_value=0, max_value=2**32 - 1)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


class TestArchitecture:
    def test_basic_properties(self):
        arch = Architecture((2, 3, 2), (True,))
        assert len(arch.layer_widths) - 2 == 1
        assert arch.num_unitary_layers == 2
        assert arch.residual_count == 1
        assert arch.delta_m(0) == 1
        assert arch.is_residual(0) and not arch.is_residual(1)

    def test_output_layer_may_narrow(self):
        Architecture((2, 3, 3, 2), (True, True))

    def test_hidden_layer_may_not_narrow(self):
        with pytest.raises(ArchitectureError):
            Architecture((2, 3, 2, 2), (False, False))

    def test_flag_count_must_match(self):
        with pytest.raises(ArchitectureError):
            Architecture((2, 3, 2), ())
        with pytest.raises(ArchitectureError):
            Architecture((2, 2), (True,))

    def test_no_hidden_layers_allowed(self):
        arch = Architecture((1, 1), ())
        assert arch.num_unitary_layers == 1
        assert arch.residual_count == 0

    def test_rejects_tiny_or_nonpositive(self):
        with pytest.raises(ArchitectureError):
            Architecture((2,), ())
        with pytest.raises(ArchitectureError):
            Architecture((2, 0, 2), (False,))

    def test_string_round_trip_examples(self):
        arch = arch_from_string("2,~3,2")
        assert arch.layer_widths == (2, 3, 2)
        assert arch.residual_flags == (True,)
        assert arch_to_string(arch) == "2,~3,2"
        assert arch_to_string(arch_from_string("2,3,3,2")) == "2,3,3,2"
        assert arch_to_string(arch_from_string("2, ~3, ~3, ~3, 2")) == "2,~3,~3,~3,2"

    def test_string_rejects_garbage(self):
        for text in ("2,,2", "~2,3,2", "2,3,~2", "2,x,2", ""):
            with pytest.raises(ArchitectureError):
                arch_from_string(text)

    def test_dense_bytes_matches_built_matrices(self):
        arch = arch_from_string("2,~3,2")
        unis = init_unitaries(arch, np.random.default_rng(0))
        built = sum(b.nbytes for _, blocks in embed_network(arch, unis) for b in blocks)
        built += sum(u.nbytes for layer in unis.layers for u in layer)
        assert arch.dense_bytes == built

    def test_rejects_architecture_over_memory_limit(self):
        # 2**16 x 2**28 and 2**24 x 2**32 prefix blocks; only the estimate is computed.
        estimate = 16 * (12 * (2**28 + 4**9) + 8 * (2**32 + 4**13))
        assert estimate > MAX_DENSE_BYTES
        with pytest.raises(ArchitectureError, match=re.escape(f"{estimate / 2**30:,.1f} GiB")):
            arch_from_string("8,~12,8")

    def test_wide_net_builds_what_it_estimates(self):
        # Embedded workspace matrices would need 1.7 GiB here; the plan is small.
        arch = arch_from_string("4,~6,~6,4")
        unis = init_unitaries(arch, np.random.default_rng(1))
        built = sum(b.nbytes for _, blocks in embed_network(arch, unis) for b in blocks)
        built += sum(u.nbytes for layer in unis.layers for u in layer)
        assert arch.dense_bytes == built < 2**26

    @given(seed=seeds)
    @settings(max_examples=50, deadline=None)
    def test_string_round_trip_random(self, seed):
        arch = oracles.random_architecture(np.random.default_rng(seed))
        assert arch_from_string(arch_to_string(arch)) == arch


class TestPerceptronRegrouping:
    """``_to_perceptron`` / ``_from_perceptron`` against full-workspace brute force."""

    @staticmethod
    def _draw(data, seed, w_in, w_out):
        j = data.draw(st.integers(0, w_out - 1))
        k = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(seed)
        shape = (k, 2 ** (w_in + w_out))
        return j, rng, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @given(seed=seeds, w_in=st.integers(1, 3), w_out=st.integers(1, 3), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_is_exact(self, seed, w_in, w_out, data):
        j, _, m = self._draw(data, seed, w_in, w_out)
        local = _to_perceptron(m, w_in, w_out, j)
        assert local.shape == (len(m) * 2 ** (w_out - 1), 2 ** (w_in + 1))
        np.testing.assert_array_equal(_from_perceptron(local, w_in, w_out, j), m)

    @given(seed=seeds, w_in=st.integers(1, 3), w_out=st.integers(1, 3), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_local_product_matches_embedding(self, seed, w_in, w_out, data):
        j, rng, m = self._draw(data, seed, w_in, w_out)
        dim = 2 ** (w_in + 1)
        u = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        got = _from_perceptron(_to_perceptron(m, w_in, w_out, j) @ u, w_in, w_out, j)
        targets = list(range(w_in)) + [w_in + j]
        want = m @ oracles.embed_bruteforce(u, targets, w_in + w_out)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    @given(seed=seeds, w_in=st.integers(1, 3), w_out=st.integers(1, 3), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_partial_trace_matches_bruteforce(self, seed, w_in, w_out, data):
        j, rng, a = self._draw(data, seed, w_in, w_out)
        b = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
        got = _to_perceptron(a, w_in, w_out, j).T @ _to_perceptron(b, w_in, w_out, j)
        targets = list(range(w_in)) + [w_in + j]
        want = oracles.ptrace_bruteforce(a.T @ b, w_in + w_out, targets)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestUnitaries:
    def test_init_shapes_for_canonical_arch(self):
        arch = Architecture((2, 3, 2), (True,))
        unis = init_unitaries(arch, np.random.default_rng(0))
        assert len(unis.layers) == 2
        assert len(unis.layers[0]) == 3
        assert all(u.shape == (8, 8) for u in unis.layers[0])
        assert len(unis.layers[1]) == 2
        assert all(u.shape == (16, 16) for u in unis.layers[1])

    def test_init_single_layer_net(self):
        arch = Architecture((1, 1), ())
        unis = init_unitaries(arch, np.random.default_rng(0))
        assert len(unis.layers) == 1 and unis.layers[0][0].shape == (4, 4)

    def test_init_deterministic_per_seed(self):
        arch = Architecture((2, 3, 2), (True,))
        a = init_unitaries(arch, np.random.default_rng(42))
        b = init_unitaries(arch, np.random.default_rng(42))
        for la, lb in zip(a.layers, b.layers):
            for ua, ub in zip(la, lb):
                np.testing.assert_array_equal(ua, ub)

    def test_rejects_non_unitary_and_wrong_shape(self):
        arch = Architecture((1, 1), ())
        with pytest.raises(ArchitectureError):
            LayerUnitaries(arch, ((np.eye(4) * 2,),))
        with pytest.raises(ArchitectureError):
            LayerUnitaries(arch, ((np.eye(8),),))
        with pytest.raises(ArchitectureError):
            LayerUnitaries(arch, ((np.eye(4), np.eye(4)),))

    def test_rejects_nan_stack(self):
        arch = arch_from_string("2,~3,2")
        unis = init_unitaries(arch, np.random.default_rng(3))
        layers = [np.array(layer) for layer in unis.layers]
        layers[1][:] = np.nan
        with pytest.raises(ArchitectureError, match=re.escape("perceptron (1,0) deviates")):
            LayerUnitaries(arch, tuple(layers))

    def test_non_unitary_perceptron_is_named_by_index(self):
        arch = arch_from_string("2,~3,~3,2")
        layers = [list(layer) for layer in init_unitaries(arch, np.random.default_rng(3)).layers]
        layers[1][2] = 1.001 * layers[1][2]
        with pytest.raises(ArchitectureError, match=re.escape("perceptron (1,2) deviates")):
            LayerUnitaries(arch, tuple(tuple(layer) for layer in layers))

    def test_layers_are_read_only_copies(self):
        arch = arch_from_string("2,~3,2")
        drawn = init_unitaries(arch, np.random.default_rng(4))
        given_layers = [np.array(layer) for layer in drawn.layers]
        unis = LayerUnitaries(arch, tuple(given_layers))
        assert [layer.shape for layer in unis.layers] == [(3, 8, 8), (2, 16, 16)]
        with pytest.raises(ValueError):
            unis.layers[0][1, 0, 0] = 0.0
        given_layers[0][1] = np.eye(8)
        np.testing.assert_array_equal(unis.layers[0], drawn.layers[0])


def single_layer_output(perceptrons, width_in, width_out, rho):
    """Output of a one-layer net (no hidden layers) with the given perceptrons."""
    arch = Architecture((width_in, width_out), ())
    unis = LayerUnitaries(arch, (tuple(perceptrons),))
    return forward(arch, unis, rho).final


class TestLayerForward:
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_matches_monolithic_oracle(self, seed):
        rng = np.random.default_rng(seed)
        arch = Architecture((2, 3), ())
        unis = init_unitaries(arch, rng)
        rho = OperatorState(oracles.random_density(2, rng), 2)
        out = single_layer_output(unis.layers[0], 2, 3, rho)
        expected = oracles.layer_forward_monolithic(rho.matrix, list(unis.layers[0]), 2, 3)
        np.testing.assert_allclose(out.matrix, expected, atol=1e-11)

    def test_identity_perceptron_resets_to_ground(self):
        rng = np.random.default_rng(1)
        rho = OperatorState(oracles.random_density(1, rng), 1)
        out = single_layer_output([np.eye(4, dtype=complex)], 1, 1, rho)
        np.testing.assert_allclose(out.matrix, [[1, 0], [0, 0]], atol=1e-12)

    def test_swap_perceptron_routes_input_through(self):
        rng = np.random.default_rng(2)
        rho = OperatorState(oracles.random_density(1, rng), 1)
        out = single_layer_output([SWAP], 1, 1, rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_perceptrons_apply_in_ascending_order(self):
        # Both perceptrons swap the input qubit with their own qubit. Applied
        # in ascending order the input lands on the first layer qubit; the
        # second swap then trades two |0> qubits.
        rng = np.random.default_rng(3)
        rho = OperatorState(oracles.random_density(1, rng), 1)
        out = single_layer_output([SWAP, SWAP], 1, 2, rho)
        expected = np.kron(rho.matrix, np.array([[1, 0], [0, 0]], dtype=complex))
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        arch = Architecture((2, 3), ())
        unis = init_unitaries(arch, rng)
        rho = OperatorState(oracles.random_density(2, rng), 2)
        out = single_layer_output(unis.layers[0], 2, 3, rho)
        assert out.trace() == pytest.approx(1.0, abs=1e-12)
        oracles.assert_valid_state(out)


def _shortcut_sum(rho_out, rho_in, keep_qubits, pad_qubits):
    """``rho_out + rho_in (x) |0..0><0..0|`` for stacks, through the corner-block view."""
    total = rho_out.copy()
    _corner_block(total, keep_qubits, pad_qubits)[...] += rho_in
    return total


class TestResidualAdd:
    def test_trace_adds_and_padding_block(self):
        rng = np.random.default_rng(5)
        rho_in = np.stack([oracles.random_density(1, rng) for _ in range(3)])
        rho_out = np.stack([oracles.random_density(2, rng) for _ in range(3)])
        combined = _shortcut_sum(rho_out, rho_in, 1, 1)
        for v in range(3):
            state = OperatorState(combined[v], 2)
            assert state.trace() == pytest.approx(2.0, abs=1e-12)
            expected = rho_out[v] + np.kron(rho_in[v], [[1, 0], [0, 0]])
            np.testing.assert_allclose(state.matrix, expected, atol=1e-12)
            oracles.assert_valid_state(state)

    def test_zero_padding_doubles_equal_states(self):
        rng = np.random.default_rng(6)
        rho = np.stack([oracles.random_density(2, rng) for _ in range(2)])
        np.testing.assert_allclose(_shortcut_sum(rho, rho, 2, 0), 2 * rho, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(7)
        rho1 = oracles.random_density(1, rng)[None]
        rho2 = oracles.random_density(2, rng)[None]
        with pytest.raises(ValueError):
            _shortcut_sum(rho2, rho1, 1, 0)
        with pytest.raises(ValueError):
            _shortcut_sum(rho1, rho1, 1, 1)


class TestForward:
    @pytest.mark.parametrize(
        "text,expected_trace",
        [("2,~3,2", 2.0), ("2,3,2", 1.0), ("2,~3,~3,~3,2", 8.0), ("1,1", 1.0)],
    )
    def test_final_trace_is_two_to_residual_count(self, text, expected_trace):
        arch = arch_from_string(text)
        rng = np.random.default_rng(8)
        unis = init_unitaries(arch, rng)
        rho = random_pure_state(arch.input_qubits, rng).density()
        record = forward(arch, unis, rho)
        assert record.final.trace() == pytest.approx(expected_trace, abs=1e-9)

    @given(seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_random_architectures_stay_valid_states(self, seed):
        rng = np.random.default_rng(seed)
        arch = oracles.random_architecture(rng)
        unis = init_unitaries(arch, rng)
        rho = random_pure_state(arch.input_qubits, rng).density()
        record = forward(arch, unis, rho)
        assert record.final.trace() == pytest.approx(2.0**arch.residual_count, abs=1e-9)
        for state in (*record.layer_inputs, *record.layer_outputs):
            oracles.assert_valid_state(state)

    def test_record_sequencing_and_shortcut_wiring(self):
        arch = arch_from_string("1,~2,1")
        rng = np.random.default_rng(9)
        unis = init_unitaries(arch, rng)
        rho = random_pure_state(1, rng).density()
        record = forward(arch, unis, rho)
        assert len(record.layer_inputs) == 2 and len(record.layer_outputs) == 2
        expected_second_input = record.layer_outputs[0].matrix + np.kron(
            rho.matrix, [[1, 0], [0, 0]]
        )
        np.testing.assert_allclose(
            record.layer_inputs[1].matrix, expected_second_input, atol=1e-12
        )
        assert record.final is record.layer_outputs[-1]

    def test_unflagged_net_passes_outputs_straight_through(self):
        arch = arch_from_string("1,2,1")
        rng = np.random.default_rng(10)
        unis = init_unitaries(arch, rng)
        rho = random_pure_state(1, rng).density()
        record = forward(arch, unis, rho)
        np.testing.assert_array_equal(
            record.layer_inputs[1].matrix, record.layer_outputs[0].matrix
        )

    def test_forward_from_matches_forward(self):
        arch = arch_from_string("2,~3,~3,2")
        rng = np.random.default_rng(11)
        unis = init_unitaries(arch, rng)
        rho = random_pure_state(2, rng).density()
        record = forward(arch, unis, rho)
        for start in range(arch.num_unitary_layers):
            tail = forward(arch, unis, record.layer_inputs[start], start_layer=start)
            np.testing.assert_allclose(tail.final.matrix, record.final.matrix, atol=1e-11)
            for mine, full in zip(tail.layer_outputs, record.layer_outputs[start:]):
                np.testing.assert_allclose(mine.matrix, full.matrix, atol=1e-11)

    def test_start_layer_rejections(self):
        arch = arch_from_string("2,~3,~3,2")
        rng = np.random.default_rng(16)
        unis = init_unitaries(arch, rng)
        record = forward(arch, unis, random_pure_state(2, rng).density())
        # Layer 1 takes the 3 hidden qubits, of trace 2 after one shortcut.
        with pytest.raises(DimensionError):
            forward(arch, unis, record.layer_inputs[0], start_layer=1)
        unit_trace = OperatorState(record.layer_inputs[1].matrix / 2, 3)
        with pytest.raises(ValueError, match="trace 2"):
            forward(arch, unis, unit_trace, start_layer=1)
        for start in (-1, arch.num_unitary_layers):
            with pytest.raises(ArchitectureError):
                forward(arch, unis, record.layer_inputs[0], start_layer=start)

    def test_embedded_cache_gives_identical_results(self):
        arch = arch_from_string("2,~3,2")
        rng = np.random.default_rng(12)
        unis = init_unitaries(arch, rng)
        rho = random_pure_state(2, rng).density()
        emb = embed_network(arch, unis)
        plain = forward(arch, unis, rho)
        cached = forward(arch, unis, rho, embedded=emb)
        np.testing.assert_array_equal(plain.final.matrix, cached.final.matrix)

    def test_rejects_bad_inputs(self):
        arch = arch_from_string("2,~3,2")
        rng = np.random.default_rng(13)
        unis = init_unitaries(arch, rng)
        with pytest.raises(DimensionError):
            forward(arch, unis, random_pure_state(1, rng).density())
        inflated = OperatorState(2 * random_pure_state(2, rng).density().matrix, 2)
        with pytest.raises(ValueError):
            forward(arch, unis, inflated)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        arch = arch_from_string("2,~3,2")
        unis = init_unitaries(arch, np.random.default_rng(14))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, unis, seed=14)
        loaded, seed = load_checkpoint(path)
        assert seed == 14
        assert loaded.arch == arch
        for la, lb in zip(unis.layers, loaded.layers):
            for ua, ub in zip(la, lb):
                np.testing.assert_array_equal(ua, ub)

    def test_rejects_corrupted_payloads(self, tmp_path):
        arch = arch_from_string("1,1")
        unis = init_unitaries(arch, np.random.default_rng(15))
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, unis)

        import json

        payload = json.loads(path.read_text())
        payload["layers"][0][0][0][0] = [5.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ArchitectureError):
            load_checkpoint(bad)

        payload = json.loads(path.read_text())
        payload["layers"][0][0] = payload["layers"][0][0][:2]
        bad.write_text(json.dumps(payload))
        with pytest.raises(ArchitectureError):
            load_checkpoint(bad)

    def test_rejects_nan_entry(self, tmp_path):
        # json reads NaN, and a NaN defect passes any "defect > tol" test.
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_unitaries(arch_from_string("1,1"), np.random.default_rng(15)))
        payload = json.loads(path.read_text())
        payload["layers"][0][0][0][0] = [float("nan"), 0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(ArchitectureError, match=r"perceptron \(0,0\) deviates .* by nan"):
            load_checkpoint(path)
