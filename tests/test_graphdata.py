"""Tests for graph specs and dataset generation."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resqnn import graphdata
from resqnn.graphdata import (
    EDGE_BYTES,
    GraphDataset,
    GraphSpec,
    build_graph_spec,
    check_graph_size,
    default_supervised_indices,
    generate_dataset,
    load_dataset,
    save_dataset,
)

import oracles
from oracles import hs_distance


class TestSpecs:
    def test_line_eight_vertices(self):
        spec = build_graph_spec("line", 8, 3)
        assert spec.edges == tuple((v, v + 1) for v in range(7))
        assert spec.supervised_indices == (0, 3, 6)
        assert spec.test_indices == (1, 2, 4, 5, 7)

    def test_cluster_edge_count(self):
        spec = build_graph_spec("connected_clusters", 8, 3)
        assert len(spec.edges) == 13  # two 4-cliques plus one bridge
        assert (3, 4) in spec.edges  # the bridge
        spec7 = build_graph_spec("connected_clusters", 7, 2)
        assert len(spec7.edges) == 6 + 3 + 1

    @given(n=st.integers(1, 12), s_frac=st.floats(0.01, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_default_supervised_indices_are_valid(self, n, s_frac):
        s = max(1, min(n, round(s_frac * n)))
        idx = default_supervised_indices(n, s)
        assert len(idx) == s
        assert len(set(idx)) == s
        assert idx[0] == 0
        assert all(0 <= i < n for i in idx)
        assert list(idx) == sorted(idx)

    def test_adjacency_matrix_symmetric_hollow(self):
        spec = build_graph_spec("line", 5, 2)
        adj = generate_dataset(spec, 1).adjacency
        np.testing.assert_array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        assert adj.sum() == 2 * len(spec.edges)
        expected = np.zeros((5, 5))
        for v, w in spec.edges:
            expected[v, w] = expected[w, v] = 1.0
        assert adj.tobytes() == expected.tobytes()
        assert not adj.flags.writeable

    def test_custom_topology_round_trip(self):
        spec = build_graph_spec("custom", 4, 2, edges=[(0, 2), (3, 1)])
        assert spec.edges == ((0, 2), (1, 3))

    def test_spec_rejections(self):
        with pytest.raises(ValueError):
            build_graph_spec("line", 4, 5)
        with pytest.raises(ValueError):
            build_graph_spec("custom", 4, 1)  # missing edges
        with pytest.raises(ValueError):
            build_graph_spec("line", 4, 1, edges=[(0, 1)])
        with pytest.raises(ValueError):
            GraphSpec("line", 4, ((0, 0),), (0,))
        with pytest.raises(ValueError):
            GraphSpec("line", 4, ((0, 5),), (0,))
        with pytest.raises(ValueError):
            GraphSpec("line", 4, ((0, 1), (1, 0)), (0,))
        with pytest.raises(ValueError):
            GraphSpec("ring", 4, (), (0,))

    @pytest.mark.parametrize("topology", ["line", "connected_clusters"])
    def test_size_estimate_counts_the_built_edges(self, topology, monkeypatch):
        # A budget of exactly the estimate for the built graph passes and one
        # byte less fails, so the closed-form edge count is exact.
        built = {n: len(build_graph_spec(topology, n, 1).edges) for n in range(2, 12)}
        for n, num_edges in built.items():
            budget = EDGE_BYTES * num_edges + 8 * n**2
            monkeypatch.setattr(graphdata, "MAX_DENSE_BYTES", budget)
            check_graph_size(topology, n)
            monkeypatch.setattr(graphdata, "MAX_DENSE_BYTES", budget - 1)
            with pytest.raises(ValueError, match="GiB"):
                check_graph_size(topology, n)
            with pytest.raises(ValueError, match="GiB"):
                build_graph_spec(topology, n, 1)
        monkeypatch.setattr(graphdata, "MAX_DENSE_BYTES", EDGE_BYTES * 3 + 8 * 16)
        build_graph_spec("custom", 4, 1, edges=[(0, 1), (1, 2), (2, 3)])
        with pytest.raises(ValueError, match="4 edges"):
            build_graph_spec("custom", 4, 1, edges=[(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_rejects_oversized_graph_from_the_estimate(self):
        # About 1e8 edges and a 20,000 x 20,000 adjacency: only the estimate
        # is computed, nothing is built.
        with pytest.raises(ValueError, match="99,990,001 edges.*21.6 GiB"):
            check_graph_size("connected_clusters", 20_000)
        with pytest.raises(ValueError, match="line graph on 12,000 vertices"):
            check_graph_size("line", 12_000)
        with pytest.raises(ValueError, match="inf GiB"):
            check_graph_size("line", 10**400)


class TestGeneration:
    def test_deterministic_per_seed(self):
        spec = build_graph_spec("line", 8, 3)
        a = generate_dataset(spec, 2, seed=5)
        b = generate_dataset(spec, 2, seed=5)
        for pa, pb in zip(a.inputs, b.inputs):
            np.testing.assert_array_equal(pa.amplitudes, pb.amplitudes)
        np.testing.assert_array_equal(a.target_unitary, b.target_unitary)
        c = generate_dataset(spec, 2, seed=6)
        assert np.abs(a.target_unitary - c.target_unitary).max() > 1e-6

    def test_line_neighbors_closer_than_endpoints(self):
        spec = build_graph_spec("line", 8, 3)
        for seed in range(5):
            ds = generate_dataset(spec, 2, seed=seed)
            rhos = [ds.input_density(v) for v in range(8)]
            span = hs_distance(rhos[0], rhos[7])
            for v in range(7):
                assert hs_distance(rhos[v], rhos[v + 1]) < span

    def test_cluster_spread_shrinks_with_delta(self):
        spec = build_graph_spec("connected_clusters", 8, 3)
        tight = generate_dataset(spec, 2, delta=1e-4, seed=1)
        for v in range(4):
            for w in range(v + 1, 4):
                assert hs_distance(tight.input_density(v), tight.input_density(w)) < 1e-6
        loose = generate_dataset(spec, 2, delta=0.3, seed=1)
        spread = max(
            hs_distance(loose.input_density(0), loose.input_density(w)) for w in range(1, 4)
        )
        assert spread > 1e-3

    def test_targets_are_unitary_applied_to_inputs(self):
        spec = build_graph_spec("line", 6, 2)
        ds = generate_dataset(spec, 2, seed=3)
        for v in range(6):
            expected = ds.target_unitary @ ds.inputs[v].amplitudes
            np.testing.assert_allclose(ds.target_amplitudes[v], expected, atol=1e-12)
        assert len(ds.supervised_targets) == 2
        assert ds.target_amplitudes[list(ds.spec.test_indices)].shape == (4, 4)

    def test_all_supervised_leaves_no_test_vertices(self):
        spec = build_graph_spec("line", 2, 2)
        ds = generate_dataset(spec, 1, seed=0)
        assert ds.spec.test_indices == ()
        assert ds.target_amplitudes[list(ds.spec.test_indices)].shape == (0, 2)

    def test_empty_supervised_set_is_valid(self):
        spec = build_graph_spec("line", 8, 0)
        assert spec.supervised_indices == ()
        assert spec.test_indices == tuple(range(8))
        ds = generate_dataset(spec, 2, seed=0)
        assert ds.supervised_targets == ()
        assert ds.target_amplitudes[list(ds.spec.test_indices)].shape == (8, 4)

    @pytest.mark.parametrize(
        "spec",
        [
            build_graph_spec("line", 6, 2),
            build_graph_spec("connected_clusters", 7, 2),
            build_graph_spec("custom", 5, 1, edges=[(3, 1), (0, 4), (2, 0), (1, 0), (4, 3)]),
            build_graph_spec("line", 1, 1),
        ],
        ids=["line-6", "clusters-7", "custom", "line-1"],
    )
    def test_edge_list_matches_checked_adjacency(self, spec):
        # The dataset reads its edges from the spec; the adjacency's upper triangle must agree.
        ds = generate_dataset(spec, 1, seed=5)
        want = oracles.edge_list(ds.adjacency)
        for got, ref in zip(ds.neighbor_weights, want, strict=True):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_laplacian_builds_no_dense_adjacency(self):
        # Building L holds one V x V array, with no dense A or diag(D) beside it.
        ds = generate_dataset(build_graph_spec("line", 500, 5), 1, seed=0)
        dense = 8 * 500**2
        tracemalloc.start()
        try:
            laplacian = ds.laplacian
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert laplacian.nbytes == dense
        assert peak < 1.5 * dense
        assert "adjacency" not in vars(ds)

    def test_rejects_nonpositive_delta(self):
        spec = build_graph_spec("line", 4, 2)
        with pytest.raises(ValueError):
            generate_dataset(spec, 2, delta=0.0)


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        spec = build_graph_spec("connected_clusters", 6, 2)
        ds = generate_dataset(spec, 2, delta=0.25, seed=9)
        path = tmp_path / "data.json"
        save_dataset(path, ds)
        loaded = load_dataset(path)
        assert loaded.spec == ds.spec
        assert loaded.delta == ds.delta and loaded.seed == ds.seed
        for pa, pb in zip(ds.inputs, loaded.inputs):
            np.testing.assert_array_equal(pa.amplitudes, pb.amplitudes)
        np.testing.assert_array_equal(ds.target_unitary, loaded.target_unitary)

    def test_save_is_byte_stable(self, tmp_path):
        spec = build_graph_spec("line", 4, 2)
        ds = generate_dataset(spec, 1, seed=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_dataset(p1, ds)
        save_dataset(p2, ds)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_corrupted_payload(self, tmp_path):
        spec = build_graph_spec("line", 3, 1)
        ds = generate_dataset(spec, 1, seed=4)
        path = tmp_path / "data.json"
        save_dataset(path, ds)
        payload = json.loads(path.read_text())
        payload["states"][0][0] = [3.0, 0.0]  # breaks normalization
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_dataset(bad)
        del payload["target_unitary"]
        bad.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_dataset(bad)

    def test_rejects_nan_in_target_unitary(self, tmp_path):
        # json reads NaN, and a NaN defect passes any "defect > tol" test.
        path = tmp_path / "data.json"
        save_dataset(path, generate_dataset(build_graph_spec("line", 3, 1), 1, seed=4))
        payload = json.loads(path.read_text())
        payload["target_unitary"][0][0] = [float("nan"), 0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="target unitary is not unitary"):
            load_dataset(path)

    def test_rejects_oversized_graph_before_building_it(self, tmp_path, monkeypatch):
        # A budget one byte under the file's 3-vertex, 2-edge graph stands in
        # for a file whose dense adjacency matrix would not fit.
        path = tmp_path / "data.json"
        save_dataset(path, generate_dataset(build_graph_spec("line", 3, 1), 1, seed=4))
        monkeypatch.setattr(graphdata, "MAX_DENSE_BYTES", EDGE_BYTES * 2 + 8 * 3**2 - 1)
        with pytest.raises(ValueError, match="3 vertices .2 edges. needs"):
            load_dataset(path)
