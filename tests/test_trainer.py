"""Tests for the update-generator engine and the training loop."""

import numpy as np
import pytest

from resqnn import cost, graphdata, trainer
from resqnn.cost import cost_full
from resqnn.graphdata import adjacency_matrix, build_graph_spec, generate_dataset
from resqnn.netcore import (
    Architecture,
    ArchitectureError,
    _forward_stack,
    arch_from_string,
    arch_to_string,
    embed_network,
    forward,
    init_unitaries,
)
from resqnn.qlinalg import DimensionError
from resqnn.trainer import (
    TrainingConfig,
    TrainingTrace,
    UpdateGenerators,
    _analytic_generators,
    graph_generators,
    k_full,
    k_numeric_oracle,
    supervised_generators,
    train,
    update_step,
)

import oracles


def _setup(arch_string, seed, num_vertices=4, num_supervised=2, delta=0.3):
    arch = arch_from_string(arch_string)
    spec = build_graph_spec("line", num_vertices, num_supervised)
    dataset = generate_dataset(spec, arch.input_qubits, delta=delta, seed=seed)
    unitaries = init_unitaries(arch, np.random.default_rng([seed, 1]))
    embedded = embed_network(arch, unitaries)
    records = [
        forward(arch, unitaries, dataset.input_density(v), embedded=embedded)
        for v in range(num_vertices)
    ]
    return arch, dataset, unitaries, embedded, records


def _analytic_full(arch, dataset, unitaries, embedded, records, gamma):
    sup_records = [records[v] for v in dataset.spec.supervised_indices]
    k_sv = supervised_generators(
        arch, unitaries, sup_records, list(dataset.supervised_targets), 1.0, embedded
    )
    if gamma == 0.0:
        return k_sv
    k_g = graph_generators(arch, unitaries, records, dataset.adjacency, 1.0, embedded)
    return k_full(k_sv, k_g, gamma)


def _fused(arch, dataset, records, gamma, embedded):
    """Training's blended generators from one sweep, at the records' unitaries."""
    inputs, finals = trainer._record_stacks(records)
    config = TrainingConfig(epochs=1, gamma=gamma)
    return _analytic_generators(arch, dataset, inputs, finals, config, embedded)


def _max_generator_diff(a, b):
    return max(
        np.abs(ka - kb).max()
        for la, lb in zip(a.layers, b.layers)
        for ka, kb in zip(la, lb)
    )


def _assert_generators_close(got, want, label=""):
    """Each perceptron's generator within 1e-12 of the largest entry of ``want``'s."""
    for l, (lg, lw) in enumerate(zip(got.layers, want.layers)):
        for p, (kg, kw) in enumerate(zip(lg, lw)):
            assert np.abs(kg - kw).max() <= 1e-12 * np.abs(kw).max(), (label, l, p)


def _all_costs(arch, dataset, unitaries):
    embedded = embed_network(arch, unitaries)
    n = dataset.spec.num_vertices
    finals = np.stack([
        forward(arch, unitaries, dataset.input_density(v), embedded=embedded).final.matrix
        for v in range(n)
    ])
    t = arch.residual_count
    sup = list(dataset.spec.supervised_indices)
    c_sv = cost._mean_fidelity(finals[sup], dataset.target_amplitudes[sup], t)
    c_g = cost._graph_spread(finals, cost._neighbor_weights(dataset.adjacency, n), t)
    return c_sv, c_g


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_hidden_full_generator_matches_oracle(self, seed):
        arch, ds, uni, emb, recs = _setup("2,~3,2", seed)
        k_a = _analytic_full(arch, ds, uni, emb, recs, gamma=-0.5)
        k_n = k_numeric_oracle(arch, uni, ds, gamma=-0.5, h=1e-5)
        assert _max_generator_diff(k_a, k_n) < 1e-8

    def test_supervised_only_matches_oracle(self):
        arch, ds, uni, emb, recs = _setup("2,~3,2", 5)
        k_a = _analytic_full(arch, ds, uni, emb, recs, gamma=0.0)
        k_n = k_numeric_oracle(arch, uni, ds, gamma=0.0, h=1e-5)
        assert _max_generator_diff(k_a, k_n) < 1e-8

    @pytest.mark.parametrize("arch_string", ["2,~3,~3,2", "2,~3,3,2", "2,3,~3,2"])
    def test_two_hidden_any_flags_matches_oracle(self, arch_string):
        arch, ds, uni, emb, recs = _setup(arch_string, 9)
        k_a = _analytic_full(arch, ds, uni, emb, recs, gamma=-0.5)
        k_n = k_numeric_oracle(arch, uni, ds, gamma=-0.5, h=1e-5)
        assert _max_generator_diff(k_a, k_n) < 1e-8

    def test_three_hidden_matches_oracle(self):
        arch, ds, uni, emb, recs = _setup("2,~3,~3,~3,2", 12)
        k_a = _analytic_full(arch, ds, uni, emb, recs, gamma=-0.5)
        k_n = k_numeric_oracle(arch, uni, ds, gamma=-0.5, h=1e-5)
        assert _max_generator_diff(k_a, k_n) < 1e-8

    def test_smallest_network_matches_oracle(self):
        arch, ds, uni, emb, recs = _setup("1,~2,1", 3)
        k_a = _analytic_full(arch, ds, uni, emb, recs, gamma=-1.0)
        k_n = k_numeric_oracle(arch, uni, ds, gamma=-1.0, h=1e-5)
        assert _max_generator_diff(k_a, k_n) < 1e-8

    @pytest.mark.parametrize("gamma", [0.0, -0.5])
    @pytest.mark.parametrize("arch_string", ["2,~3,2", "1,~1,~1,1", "2,3,~3,2"])
    def test_generators_match_exact_shift_rule(self, arch_string, gamma):
        arch, ds, uni, emb, recs = _setup(arch_string, 50)
        want = oracles.k_shift_oracle(arch, uni, ds, gamma)
        _assert_generators_close(_fused(arch, ds, recs, gamma, emb), want)

    def test_graph_scale_constant_is_calibrated(self):
        # The oracle is linear in gamma, so its gamma = 0 and gamma = -1
        # generators differ by the graph term alone, assembled with
        # GRAPH_GRADIENT_SCALE: that difference must be the analytic graph
        # generator for every perceptron.
        arch, ds, uni, emb, recs = _setup("2,~3,2", 21)
        k_g = graph_generators(arch, uni, recs, ds.adjacency, 1.0, emb)
        k_0 = k_numeric_oracle(arch, uni, ds, gamma=0.0, h=1e-5)
        k_1 = k_numeric_oracle(arch, uni, ds, gamma=-1.0, h=1e-5)
        for lg, l0, l1 in zip(k_g.layers, k_0.layers, k_1.layers):
            for kg, k0, k1 in zip(lg, l0, l1):
                assert np.abs(kg).max() > 1e-6
                assert np.abs(kg - (k0 - k1)).max() < 1e-8

    def test_eta_scales_generators_linearly(self):
        arch, ds, uni, emb, recs = _setup("2,~3,2", 4)
        sup = [recs[v] for v in ds.spec.supervised_indices]
        k1 = supervised_generators(arch, uni, sup, list(ds.supervised_targets), 1.0, emb)
        k3 = supervised_generators(arch, uni, sup, list(ds.supervised_targets), 3.0, emb)
        assert _max_generator_diff(
            UpdateGenerators(arch, tuple(tuple(3.0 * k for k in l) for l in k1.layers)), k3
        ) < 1e-12
        # Defaults: eta 1 and perceptrons embedded on the fly.
        assert _max_generator_diff(
            supervised_generators(arch, uni, sup, list(ds.supervised_targets)), k1
        ) == 0.0
        g1 = graph_generators(arch, uni, recs, ds.adjacency, 1.0, emb)
        assert _max_generator_diff(graph_generators(arch, uni, recs, ds.adjacency), g1) == 0.0


class TestVertexEngine:
    """One Laplacian-seeded backward pass per vertex against the per-edge oracle."""

    @pytest.mark.parametrize("seed", range(6))
    def test_graph_generators_match_per_edge_oracle(self, seed):
        rng = np.random.default_rng(seed)
        arch = oracles.random_architecture(rng)
        n = 6
        _, ds, uni, emb, recs = _setup(arch_to_string(arch), seed, num_vertices=n)
        workspace = oracles.workspace_matrices(arch, uni)
        upper = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.random((n, n)) < 0.6), 1)
        adjacencies = {
            "line": ds.adjacency,
            "clusters": adjacency_matrix(build_graph_spec("connected_clusters", n, 2)),
            # Self-loops carry no spread: both versions must ignore the diagonal.
            "weighted with self-loops": upper + upper.T + np.diag(rng.uniform(0.5, 1.5, n)),
        }
        for name, adjacency in adjacencies.items():
            got = graph_generators(arch, uni, recs, adjacency, 1.0, emb)
            want = oracles.graph_generators_per_edge(arch, workspace, recs, adjacency)
            _assert_generators_close(got, want, name)

    @pytest.mark.parametrize("gamma", [0.0, -0.5])
    @pytest.mark.parametrize("seed", range(4))
    def test_fused_generators_match_blend(self, seed, gamma):
        rng = np.random.default_rng(100 + seed)
        drawn = oracles.random_architecture(rng)
        # The supervised targets live on the input qubits.
        arch = Architecture(drawn.layer_widths[:-1] + (drawn.input_qubits,), drawn.residual_flags)
        topology = ("line", "connected_clusters")[seed % 2]
        spec = build_graph_spec(topology, 6, 2)
        ds = generate_dataset(spec, arch.input_qubits, delta=0.3, seed=seed)
        uni = init_unitaries(arch, np.random.default_rng([seed, 1]))
        emb = embed_network(arch, uni)
        recs = [forward(arch, uni, ds.input_density(v), embedded=emb) for v in range(6)]
        fused = _fused(arch, ds, recs, gamma, emb)
        sup = [recs[v] for v in ds.spec.supervised_indices]
        k_sv = supervised_generators(arch, uni, sup, list(ds.supervised_targets), 1.0, emb)
        k_g = graph_generators(arch, uni, recs, ds.adjacency, 1.0, emb)
        _assert_generators_close(fused, k_full(k_sv, k_g, gamma))
        if gamma == 0.0:
            assert _max_generator_diff(fused, k_sv) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_stacked_engine_matches_per_vertex_reference(self, seed):
        rng = np.random.default_rng(200 + seed)
        drawn = oracles.random_architecture(rng)
        hidden = drawn.num_hidden_layers
        n = 5
        for flags in (drawn.residual_flags, (True,) * hidden, (False,) * hidden):
            arch = Architecture(drawn.layer_widths, flags)
            uni = init_unitaries(arch, rng)
            emb = embed_network(arch, uni)
            rho = np.stack([oracles.random_density(arch.input_qubits, rng) for _ in range(n)])
            inputs, outputs = _forward_stack(arch, emb, rho, 0)
            workspace = oracles.workspace_matrices(arch, uni)
            reference = [oracles.forward_reference(arch, workspace, r) for r in rho]
            for v, (ref_inputs, ref_outputs) in enumerate(reference):
                for got, want in zip(
                    [s[v] for s in inputs + outputs], ref_inputs + ref_outputs
                ):
                    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (flags, v)
            # Random Hermitian seeds, one of them zero.
            seeds = np.stack(
                [oracles.random_hermitian(arch.output_qubits, rng) for _ in range(n)]
            )
            seeds[1] = 0.0
            got = trainer._vertex_generators(arch, emb, inputs, seeds, 1.0)
            want = oracles.vertex_generators_per_vertex(
                arch, workspace, [ins for ins, _ in reference], seeds, 1.0
            )
            _assert_generators_close(got, want, flags)

    def test_graph_generators_reject_bad_adjacency(self):
        arch, ds, uni, emb, recs = _setup("2,~3,2", 42)
        asymmetric = np.array(ds.adjacency)
        asymmetric[0, 1] = 0.0
        with pytest.raises(ValueError, match="symmetric"):
            graph_generators(arch, uni, recs, asymmetric, 1.0, emb)
        asymmetric[0, 1] = asymmetric[1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            graph_generators(arch, uni, recs, asymmetric, 1.0, emb)
        with pytest.raises(DimensionError):
            graph_generators(arch, uni, recs, np.zeros((3, 3)), 1.0, emb)


class TestAscent:
    def test_tiny_step_never_decreases_cost(self):
        # A first-order ascent step along the gradient must raise the cost for
        # small enough step size, across many random instances.
        rng = np.random.default_rng(77)
        arch_strings = ["1,~2,1", "2,~3,2", "2,~2,2"]
        for trial in range(20):
            arch_string = arch_strings[trial % len(arch_strings)]
            seed = int(rng.integers(0, 2**31))
            gamma = float(rng.choice([0.0, -0.5, -1.0]))
            arch, ds, uni, emb, recs = _setup(arch_string, seed)
            k = _analytic_full(arch, ds, uni, emb, recs, gamma)
            c_sv0, c_g0 = _all_costs(arch, ds, uni)
            updated = update_step(uni, k, 1e-4)
            c_sv1, c_g1 = _all_costs(arch, ds, updated)
            before = cost_full(c_sv0, c_g0, gamma)
            after = cost_full(c_sv1, c_g1, gamma)
            assert after >= before - 1e-12, (arch_string, seed, gamma)

    def test_default_step_never_drops_noticeably(self):
        for seed in range(8):
            arch = arch_from_string("2,~3,2")
            spec = build_graph_spec("line", 8, 3)
            ds = generate_dataset(spec, 2, delta=0.3, seed=seed)
            trace = train(arch, ds, TrainingConfig(epochs=60, seed=seed, gamma=-0.5))
            values = [trace.initial_report.c_full] + [r.c_full for r in trace.reports]
            steps = np.diff(values)
            assert steps.min() > -1e-3
            assert values[-1] > values[0]

    def test_single_qubit_identity_task_converges(self):
        arch = arch_from_string("1,1")
        spec = build_graph_spec("line", 4, 4)
        ds = generate_dataset(spec, 1, delta=0.3, seed=2)
        trace = train(arch, ds, TrainingConfig(epochs=400, seed=2, gamma=0.0))
        assert trace.final_report.c_sv > 0.95


class TestModes:
    def test_hybrid_and_numeric_training_agree(self):
        # Training runs the closed-form (hybrid) engine; a manual loop driven
        # by the finite-difference oracle must follow the same cost trajectory.
        arch = arch_from_string("2,~3,2")
        spec = build_graph_spec("line", 4, 2)
        ds = generate_dataset(spec, 2, delta=0.3, seed=6)
        cfg = TrainingConfig(epochs=10, seed=6, gamma=-0.5)
        trace = train(arch, ds, cfg)
        assert len(trace.reports) == 10

        uni = init_unitaries(arch, np.random.default_rng([6, 1]))
        for report in trace.reports:
            uni = update_step(uni, k_numeric_oracle(arch, uni, ds, cfg.gamma), cfg.epsilon)
            c_sv, c_g = _all_costs(arch, ds, uni)
            assert report.c_full == pytest.approx(cost_full(c_sv, c_g, cfg.gamma), abs=1e-6)
            assert report.c_sv == pytest.approx(c_sv, abs=1e-6)
            assert report.c_g == pytest.approx(c_g, abs=1e-6)

    def test_hybrid_mode_accepts_three_hidden_layers(self):
        arch = arch_from_string("2,~3,~3,~3,2")
        spec = build_graph_spec("line", 4, 2)
        ds = generate_dataset(spec, 2, delta=0.3, seed=1)
        trace = train(arch, ds, TrainingConfig(epochs=2, seed=1))
        assert len(trace.reports) == 2

    def test_zero_gamma_update_ignores_graph_term(self):
        # With gamma = 0 the update direction must be the supervised generator
        # alone, so training must reproduce a manual supervised-only loop bit
        # for bit.
        arch = arch_from_string("2,~3,2")
        spec = build_graph_spec("line", 4, 2)
        ds = generate_dataset(spec, 2, delta=0.3, seed=13)
        cfg = TrainingConfig(epochs=4, seed=13, gamma=0.0)
        trace = train(arch, ds, cfg)

        uni = init_unitaries(arch, np.random.default_rng([13, 1]))
        for _ in range(4):
            emb = embed_network(arch, uni)
            recs = [
                forward(arch, uni, ds.input_density(v), embedded=emb) for v in range(4)
            ]
            sup = [recs[v] for v in ds.spec.supervised_indices]
            k = supervised_generators(arch, uni, sup, list(ds.supervised_targets), 1.0, emb)
            uni = update_step(uni, k, cfg.epsilon)
        for lt, lm in zip(trace.final_unitaries.layers, uni.layers):
            for ut, um in zip(lt, lm):
                assert np.array_equal(ut, um)


class TestUpdateStep:
    def test_update_preserves_unitarity(self):
        arch, ds, uni, emb, recs = _setup("2,~3,2", 23)
        k = _analytic_full(arch, ds, uni, emb, recs, gamma=-0.5)
        updated = update_step(uni, k, 0.05)
        for layer in updated.layers:
            for u in layer:
                assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-10

    def test_zero_generator_leaves_unitaries_unchanged(self):
        arch, _, uni, _, _ = _setup("2,~3,2", 24)
        zeros = UpdateGenerators(
            arch,
            tuple(tuple(np.zeros_like(u) for u in layer) for layer in uni.layers),
        )
        updated = update_step(uni, zeros, 0.01)
        for l_new, l_old in zip(updated.layers, uni.layers):
            for u_new, u_old in zip(l_new, l_old):
                assert np.abs(u_new - u_old).max() < 1e-12

    def test_generator_validation(self):
        arch, ds, uni, emb, recs = _setup("2,~3,2", 25)
        k = _analytic_full(arch, ds, uni, emb, recs, gamma=0.0)
        bad = [[np.array(m) for m in layer] for layer in k.layers]
        bad[0][0] = bad[0][0] + 1j * np.eye(bad[0][0].shape[0])
        with pytest.raises(ValueError, match="Hermiticity"):
            UpdateGenerators(arch, tuple(tuple(l) for l in bad))
        with pytest.raises(ArchitectureError):
            UpdateGenerators(arch, (k.layers[0],))

    def test_non_hermitian_generator_is_named_by_index(self):
        arch, ds, uni, emb, recs = _setup("2,~3,2", 25)
        k = _analytic_full(arch, ds, uni, emb, recs, gamma=0.0)
        bad = [np.array(layer) for layer in k.layers]
        bad[0][1] = bad[0][1] + 1j * np.eye(bad[0].shape[-1])
        with pytest.raises(ValueError, match=r"generator \(0,1\) deviates from Hermiticity"):
            UpdateGenerators(arch, tuple(bad))

    def test_generator_layers_are_read_only_copies(self):
        arch, ds, uni, emb, recs = _setup("2,~3,2", 25)
        k = _analytic_full(arch, ds, uni, emb, recs, gamma=0.0)
        given_layers = [np.array(layer) for layer in k.layers]
        copied = UpdateGenerators(arch, tuple(given_layers))
        with pytest.raises(ValueError):
            copied.layers[1][0, 0, 0] = 1.0
        given_layers[1][0] = 0.0
        np.testing.assert_array_equal(copied.layers[1], k.layers[1])

    def test_final_states_keep_shortcut_trace(self):
        arch = arch_from_string("2,~3,~3,2")
        spec = build_graph_spec("line", 4, 2)
        ds = generate_dataset(spec, 2, delta=0.3, seed=26)
        trace = train(arch, ds, TrainingConfig(epochs=15, seed=26, gamma=-0.5))
        emb = embed_network(arch, trace.final_unitaries)
        for v in range(4):
            rec = forward(arch, trace.final_unitaries, ds.input_density(v), embedded=emb)
            assert rec.final.trace() == pytest.approx(2.0**arch.residual_count, abs=1e-9)


class TestTrainingLoop:
    def test_zero_epochs_returns_initial_state(self):
        arch = arch_from_string("2,~3,2")
        spec = build_graph_spec("line", 4, 2)
        ds = generate_dataset(spec, 2, delta=0.3, seed=30)
        trace = train(arch, ds, TrainingConfig(epochs=0, seed=30))
        assert trace.reports == ()
        assert trace.wall_ms == ()
        assert trace.final_report == trace.initial_report
        baseline = init_unitaries(arch, np.random.default_rng([30, 1]))
        for lt, lb in zip(trace.final_unitaries.layers, baseline.layers):
            for ut, ub in zip(lt, lb):
                assert np.array_equal(ut, ub)

    def test_training_is_deterministic(self):
        arch = arch_from_string("2,~3,2")
        spec = build_graph_spec("line", 6, 3)
        ds = generate_dataset(spec, 2, delta=0.3, seed=31)
        cfg = TrainingConfig(epochs=12, seed=31, gamma=-0.5)
        t1, t2 = train(arch, ds, cfg), train(arch, ds, cfg)
        assert t1.reports == t2.reports
        assert t1.initial_report == t2.initial_report
        for l1, l2 in zip(t1.final_unitaries.layers, t2.final_unitaries.layers):
            for u1, u2 in zip(l1, l2):
                assert np.array_equal(u1, u2)

    def test_reports_are_post_update_costs(self):
        arch = arch_from_string("2,~3,2")
        spec = build_graph_spec("line", 4, 2)
        ds = generate_dataset(spec, 2, delta=0.3, seed=32)
        trace = train(arch, ds, TrainingConfig(epochs=3, seed=32, gamma=-0.5))
        emb = embed_network(arch, trace.final_unitaries)
        recs = [
            forward(arch, trace.final_unitaries, ds.input_density(v), embedded=emb)
            for v in range(4)
        ]
        sup = list(ds.spec.supervised_indices)
        finals = np.stack([recs[v].final.matrix for v in sup])
        c_sv = cost._mean_fidelity(finals, ds.target_amplitudes[sup], arch.residual_count)
        assert trace.reports[-1].c_sv == pytest.approx(c_sv, abs=1e-12)
        assert len(trace.wall_ms) == 3
        assert all(w >= 0.0 for w in trace.wall_ms)

    def test_wide_net_trains_one_epoch(self):
        # 4,~6,4 acts on 10-qubit layer workspaces; perceptrons act locally.
        arch = arch_from_string("4,~6,4")
        ds = generate_dataset(build_graph_spec("line", 4, 2), 4, delta=0.3, seed=35)
        trace = train(arch, ds, TrainingConfig(epochs=1, seed=35, gamma=-0.5))
        emb = embed_network(arch, trace.final_unitaries)
        for v in range(4):
            final = forward(arch, trace.final_unitaries, ds.input_density(v), embedded=emb).final
            assert final.trace() == pytest.approx(2.0**arch.residual_count, abs=1e-10)
            oracles.assert_valid_state(final)
        report = trace.final_report
        for value in (report.c_sv, report.c_g, report.c_test):
            assert 0.0 <= value <= 1.0

    def test_plateau_annotation(self):
        from resqnn.trainer import _plateau_epoch

        moving = [0.1 * i for i in range(40)]
        assert _plateau_epoch(moving) is None
        stalled = [0.5] + [0.5 + 1e-9 * i for i in range(1, 40)]
        assert _plateau_epoch(stalled) == 20
        late = [0.1 * i for i in range(10)] + [0.9 + 1e-9 * i for i in range(30)]
        assert _plateau_epoch(late) == 29

        # A vanishing step size stalls the cost in place, so a real run must
        # carry the annotation; an empty run must not.
        arch = arch_from_string("1,1")
        spec = build_graph_spec("line", 4, 4)
        ds = generate_dataset(spec, 1, delta=0.3, seed=33)
        stalled_trace = train(
            arch, ds, TrainingConfig(epochs=30, seed=33, epsilon=1e-8)
        )
        assert stalled_trace.plateau_epoch == 20
        empty_trace = train(arch, ds, TrainingConfig(epochs=0, seed=33))
        assert empty_trace.plateau_epoch is None

    def test_dataset_architecture_mismatch_rejected(self):
        arch = arch_from_string("2,~3,2")
        spec = build_graph_spec("line", 4, 2)
        ds = generate_dataset(spec, 3, delta=0.3, seed=1)
        with pytest.raises(Exception, match="qubits"):
            train(arch, ds, TrainingConfig(epochs=1, seed=1))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainingConfig(epochs=-1)
        with pytest.raises(ValueError, match="epsilon"):
            TrainingConfig(epochs=1, epsilon=-0.1)
        with pytest.raises(ValueError, match="gamma"):
            TrainingConfig(epochs=1, gamma=0.5)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="epsilon"):
                TrainingConfig(epochs=1, epsilon=bad)
            with pytest.raises(ValueError, match="gamma"):
                TrainingConfig(epochs=1, gamma=-bad)
        with pytest.raises(ValueError, match="non-positive"):
            k_full(None, None, gamma=0.5)  # gamma checked before operands

    def test_graph_is_validated_once_per_dataset(self, monkeypatch):
        # Training and the oracle read the dataset's cached graph constants,
        # built from its own edge list: no dense adjacency is re-checked.
        calls = []
        original = cost._neighbor_weights

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in (cost, graphdata, trainer):
            if hasattr(module, "_neighbor_weights"):
                monkeypatch.setattr(module, "_neighbor_weights", counted)
        arch = arch_from_string("2,~3,2")
        ds = generate_dataset(build_graph_spec("line", 6, 2), 2, seed=35)
        train(arch, ds, TrainingConfig(epochs=5, seed=35, gamma=-0.5))
        train(arch, ds, TrainingConfig(epochs=5, seed=36, gamma=-0.5))
        k_numeric_oracle(arch, init_unitaries(arch, np.random.default_rng(35)), ds, -0.5)
        assert len(calls) == 0
        assert "adjacency" not in vars(ds)

    def test_trace_dataclass_shape(self):
        arch = arch_from_string("2,~3,2")
        spec = build_graph_spec("line", 4, 2)
        ds = generate_dataset(spec, 2, delta=0.3, seed=34)
        trace = train(arch, ds, TrainingConfig(epochs=2, seed=34))
        assert isinstance(trace, TrainingTrace)
        assert trace.arch == arch
        assert trace.config.epochs == 2
        assert len(trace.reports) == 2
