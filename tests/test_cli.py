"""Tests for the command-line harness and the SVG renderer."""

import hashlib
import json
import math

import numpy as np
import pytest

from resqnn.cli import (
    ExperimentConfig,
    main,
    read_trace_csv,
    write_trace_csv,
)
from resqnn import graphdata
from resqnn.graphdata import load_dataset
from resqnn.netcore import arch_from_string, init_unitaries, load_checkpoint
from resqnn.svgplot import Series, render_line_plot


def _run(*argv):
    return main([str(a) for a in argv])


class TestExperimentConfig:
    def test_arch_string_is_canonicalized_and_validated(self):
        cfg = ExperimentConfig(arch="2,~3,2")
        assert cfg.arch == "2,~3,2"
        with pytest.raises(ValueError):
            ExperimentConfig(arch="2,~3,")
        with pytest.raises(ValueError):
            ExperimentConfig(arch="~2,3,2")

    def test_rejections(self):
        with pytest.raises(ValueError, match="gamma"):
            ExperimentConfig(gamma=0.5)
        with pytest.raises(ValueError, match="topology"):
            ExperimentConfig(topology="torus")
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(seeds=())
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentConfig(seeds=(1, 1))
        for field in ("gamma", "epsilon", "delta"):
            for bad in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match=field):
                    ExperimentConfig(**{field: bad})

    def test_as_dict_round_trips_through_json(self):
        cfg = ExperimentConfig(gamma=-0.5, seeds=(3, 4), epochs=7)
        payload = json.loads(json.dumps(cfg.as_dict()))
        assert ExperimentConfig(**payload) == cfg


class TestGenData:
    def test_writes_dataset_and_digest(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert _run("gen-data", "--out", out, "--seed", 3, "--vertices", 8,
                    "--supervised", 3) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert str(out / "dataset.json") in lines[0]
        assert lines[1].startswith("sha256 ")
        dataset = load_dataset(out / "dataset.json")
        assert dataset.spec.num_vertices == 8
        assert len(dataset.spec.edges) == 7
        assert (out / "config.json").exists()

    def test_same_seed_same_digest(self, tmp_path, capsys):
        digests = []
        for name in ("a", "b"):
            assert _run("gen-data", "--out", tmp_path / name, "--seed", 11) == 0
            digests.append(capsys.readouterr().out.splitlines()[1])
        assert digests[0] == digests[1]

    def test_empty_supervised_set_is_a_valid_file(self, tmp_path):
        out = tmp_path / "s0"
        assert _run("gen-data", "--out", out, "--seed", 0, "--supervised", 0) == 0
        dataset = load_dataset(out / "dataset.json")
        assert dataset.spec.num_supervised == 0

    def test_output_env_var_is_default_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RESQNN_OUT", str(tmp_path / "envroot"))
        assert _run("gen-data", "--seed", 0) == 0
        capsys.readouterr()
        assert (tmp_path / "envroot" / "dataset.json").exists()


class TestTrain:
    def test_trace_checkpoint_and_exit_code(self, tmp_path, capsys):
        data_dir, run_dir = tmp_path / "d", tmp_path / "r"
        assert _run("gen-data", "--out", data_dir, "--seed", 5, "--vertices", 4,
                    "--supervised", 2) == 0
        assert _run("train", "--out", run_dir, "--dataset", data_dir / "dataset.json",
                    "--seed", 5, "--gamma", "-0.5", "--epochs", 12) == 0
        capsys.readouterr()
        columns = read_trace_csv(run_dir / "trace.csv")
        assert len(columns["epoch"]) == 12
        assert columns["epoch"] == list(range(1, 13))
        assert all(0.0 <= v <= 1.0 for v in columns["c_sv"])
        unitaries, saved_seed = load_checkpoint(run_dir / "checkpoint.json")
        assert unitaries.arch == arch_from_string("2,~3,2")
        assert saved_seed == 5

    def test_zero_epochs_header_only_and_initial_checkpoint(self, tmp_path, capsys):
        run_dir = tmp_path / "r0"
        assert _run("train", "--out", run_dir, "--seed", 7, "--vertices", 4,
                    "--supervised", 2, "--epochs", 0) == 0
        capsys.readouterr()
        assert (run_dir / "trace.csv").read_text().strip() == \
            "epoch,c_sv,c_g,c_full,c_test,wall_ms"
        saved, _ = load_checkpoint(run_dir / "checkpoint.json")
        fresh = init_unitaries(saved.arch, np.random.default_rng([7, 1]))
        for ls, lf in zip(saved.layers, fresh.layers):
            for us, uf in zip(ls, lf):
                assert np.abs(us - uf).max() < 1e-15

    def test_width_mismatch_exits_nonzero_with_message(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        assert _run("gen-data", "--out", data_dir, "--seed", 1, "--arch", "2,~3,2") == 0
        code = _run("train", "--out", tmp_path / "r", "--dataset",
                    data_dir / "dataset.json", "--arch", "3,~3,3", "--epochs", 1)
        assert code == 2
        captured = capsys.readouterr()
        assert "qubits" in captured.err

    def test_malformed_dataset_exits_nonzero_with_message(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        assert _run("gen-data", "--out", data_dir, "--seed", 1, "--vertices", 4,
                    "--supervised", 2) == 0
        path = data_dir / "dataset.json"
        payload = json.loads(path.read_text())
        for field, value in (("states", 5), ("input_qubits", [2]), ("spec", "line")):
            bad = dict(payload, **{field: value})
            path.write_text(json.dumps(bad))
            code = _run("train", "--out", tmp_path / "r", "--dataset", path, "--epochs", 1)
            assert code == 2, field
            assert "malformed dataset" in capsys.readouterr().err, field

    def test_config_file_with_flag_precedence(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"epochs": 6, "gamma": -0.25, "num_vertices": 4,
                                        "num_supervised": 2}))
        run_dir = tmp_path / "r"
        assert _run("train", "--out", run_dir, "--config", cfg_file, "--seed", 2,
                    "--gamma", "-0.75") == 0
        capsys.readouterr()
        effective = json.loads((run_dir / "config.json").read_text())
        assert effective["gamma"] == -0.75
        assert effective["epochs"] == 6
        assert len(read_trace_csv(run_dir / "trace.csv")["epoch"]) == 6

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        # k_mode and eta were config fields once; old files carrying them now fail.
        cfg_file = tmp_path / "cfg.json"
        for payload in ({"learning_rate": 3}, {"k_mode": "numeric"}, {"eta": 1.0}):
            cfg_file.write_text(json.dumps(payload))
            assert _run("train", "--config", cfg_file, "--out", tmp_path / "r") == 2
            assert repr(next(iter(payload))) in capsys.readouterr().err

    def test_custom_topology_is_not_offered(self, tmp_path, capsys):
        # No flag or config field carries an edge list, so "custom" could never run.
        with pytest.raises(SystemExit) as exc:
            _run("train", "--topology", "custom", "--out", tmp_path / "r")
        assert exc.value.code == 2
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"topology": "custom"}))
        capsys.readouterr()
        assert _run("train", "--config", cfg_file, "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert "'line'" in err and "'connected_clusters'" in err

    def test_oversized_architecture_exits_before_allocating(self, tmp_path, capsys):
        assert _run("train", "--arch", "8,~12,8", "--out", tmp_path / "r") == 2
        assert "GiB" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_oversized_graph_exits_before_allocating(self, tmp_path, capsys, monkeypatch):
        # A budget just under the 40-vertex graph's estimate stands in for a
        # graph too large to build; no edge list is ever built here.
        estimate = 8 * 40**2 + graphdata.EDGE_BYTES * 381
        monkeypatch.setattr(graphdata, "MAX_DENSE_BYTES", estimate - 1)
        for command in ("gen-data", "train"):
            assert _run(command, "--topology", "connected_clusters", "--vertices", 40,
                        "--out", tmp_path / "r") == 2
            assert "40 vertices (381 edges)" in capsys.readouterr().err
            assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "flag,value", [("--epsilon", "inf"), ("--epsilon", "nan"), ("--gamma", "nan"),
                       ("--gamma", "-inf"), ("--delta", "nan")]
    )
    def test_non_finite_setting_exits_before_any_output(self, tmp_path, capsys, flag, value):
        for command in ("gen-data", "train"):
            assert _run(command, f"{flag}={value}", "--epochs", 2, "--out", tmp_path / "r") == 2
            assert flag[2:] in capsys.readouterr().err
            assert not (tmp_path / "r").exists()


class TestSweep:
    def test_aggregates_match_raw_cell_traces(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert _run("sweep", "--out", out, "--vary", "gamma", "--values", "0", "-0.5",
                    "--seeds", 0, 1, "--epochs", 8, "--vertices", 4,
                    "--supervised", 2) == 0
        capsys.readouterr()
        result = json.loads((out / "sweep.json").read_text())
        assert [a["value"] for a in result["aggregates"]] == ["0", "-0.5"]
        for agg in result["aggregates"]:
            finals = []
            for cell in result["cells"]:
                if cell["value"] == agg["value"]:
                    assert cell["error"] is None
                    trace = read_trace_csv(out / cell["trace_csv"])
                    finals.append(trace["c_test"][-1])
                    assert cell["c_test"] == finals[-1]
            assert agg["n_seeds"] == 2
            assert agg["mean_final_c_test"] == sum(finals) / len(finals)
            expected_stderr = (
                math.sqrt(sum((f - agg["mean_final_c_test"]) ** 2 for f in finals))
                / math.sqrt(2)
            )
            assert agg["stderr_final_c_test"] == pytest.approx(expected_stderr, rel=1e-12)

    def test_vary_supervised_and_arch(self, tmp_path, capsys):
        out = tmp_path / "sws"
        assert _run("sweep", "--out", out, "--vary", "supervised", "--values", "1", "2",
                    "--seeds", 0, 1, "--epochs", 4, "--vertices", 4) == 0
        result = json.loads((out / "sweep.json").read_text())
        assert len(result["aggregates"]) == 2
        out2 = tmp_path / "swa"
        assert _run("sweep", "--out", out2, "--vary", "arch", "--values", "2,~3,2",
                    "2,3,2", "--seeds", 0, 1, "--epochs", 4, "--vertices", 4,
                    "--supervised", 2) == 0
        capsys.readouterr()
        result2 = json.loads((out2 / "sweep.json").read_text())
        assert {a["value"] for a in result2["aggregates"]} == {"2,~3,2", "2,3,2"}
        assert (out2 / "cells" / "arch=2-r3-2__seed0.csv").exists()

    def test_cell_trace_equals_train_trace(self, tmp_path, capsys):
        common = ("--arch", "2,~3,2", "--epochs", 4, "--vertices", 4, "--supervised", 2)
        assert _run("train", "--out", tmp_path / "tr", "--seed", 1, "--gamma", "-0.5",
                    *common) == 0
        assert _run("sweep", "--out", tmp_path / "sw", "--vary", "gamma", "--values", "-0.5",
                    "--seeds", 0, 1, *common) == 0
        capsys.readouterr()

        def rows_without_wall_ms(path):
            return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]

        train_rows = rows_without_wall_ms(tmp_path / "tr" / "trace.csv")
        assert len(train_rows) == 5
        assert rows_without_wall_ms(tmp_path / "sw" / "cells" / "gamma=-0.5__seed1.csv") == (
            train_rows
        )

    def test_single_seed_rejected(self, tmp_path, capsys):
        assert _run("sweep", "--out", tmp_path / "x", "--vary", "gamma",
                    "--values", "0", "--seeds", 3, "--epochs", 1) == 2
        assert "2 seeds" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "vary, values",
        [("gamma", ["-0.5", "-0.5"]), ("arch", ["2,~3,2", "2, ~3, 2"])],
    )
    def test_equivalent_values_rejected_before_any_output(
        self, tmp_path, capsys, vary, values
    ):
        out = tmp_path / "dup"
        assert _run("sweep", "--out", out, "--vary", vary, "--values", *values,
                    "--seeds", 0, 1, "--epochs", 1, "--vertices", 4,
                    "--supervised", 2) == 2
        assert "are the same" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_cells_recorded_and_partial_results_kept(self, tmp_path, capsys):
        # "2,~1,2" narrows a hidden layer, so its cells fail while the valid
        # variant's results are preserved.
        out = tmp_path / "swf"
        code = _run("sweep", "--out", out, "--vary", "arch", "--values", "2,~3,2",
                    "2,~1,2", "--seeds", 0, 1, "--epochs", 2, "--vertices", 4,
                    "--supervised", 2)
        assert code == 1
        captured = capsys.readouterr()
        assert "failed" in captured.err
        result = json.loads((out / "sweep.json").read_text())
        good = [c for c in result["cells"] if c["error"] is None]
        bad = [c for c in result["cells"] if c["error"] is not None]
        assert len(good) == 2 and len(bad) == 2
        assert (out / good[0]["trace_csv"]).exists()


class TestPlot:
    def _make_trace(self, tmp_path, name, seed, epochs=5):
        run_dir = tmp_path / name
        assert _run("train", "--out", run_dir, "--seed", seed, "--vertices", 4,
                    "--supervised", 2, "--epochs", epochs) == 0
        return run_dir / "trace.csv"

    def test_single_trace_single_polyline(self, tmp_path, capsys):
        trace = self._make_trace(tmp_path, "r", 0)
        svg_path = tmp_path / "p.svg"
        assert _run("plot", trace, "--out", svg_path) == 0
        capsys.readouterr()
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 1
        assert svg.count('points="') == 1
        # one coordinate pair per epoch row
        points = svg.split('points="')[1].split('"')[0].split()
        assert len(points) == 5

    def test_multi_trace_styles_and_legend(self, tmp_path, capsys):
        traces = [self._make_trace(tmp_path, f"r{i}", i) for i in range(4)]
        svg_path = tmp_path / "p4.svg"
        assert _run("plot", *traces, "--labels", "a", "b", "c", "d",
                    "--styles", "solid", "dashed", "solid", "dashed",
                    "--out", svg_path) == 0
        capsys.readouterr()
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 4
        assert svg.count("stroke-dasharray") == 4  # 2 curves + their legend swatches
        for label in ("a", "b", "c", "d"):
            assert f">{label}</text>" in svg

    def test_labels_default_to_file_stems(self, tmp_path, capsys):
        trace = self._make_trace(tmp_path, "r", 1)
        svg_path = tmp_path / "p.svg"
        assert _run("plot", trace, "--out", svg_path) == 0
        capsys.readouterr()
        assert ">trace</text>" in svg_path.read_text()

    def test_byte_identical_for_identical_inputs(self, tmp_path, capsys):
        trace = self._make_trace(tmp_path, "r", 2)
        p1, p2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        assert _run("plot", trace, "--out", p1) == 0
        assert _run("plot", trace, "--out", p2) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_csv_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("epoch,c_sv\n1,0.5\n")
        assert _run("plot", bad, "--out", tmp_path / "p.svg") == 2
        assert "expected columns" in capsys.readouterr().err
        bad.write_text("epoch,c_sv,c_g,c_full,c_test,wall_ms\n1,x,0,0,0,0\n")
        assert _run("plot", bad, "--out", tmp_path / "p.svg") == 2
        assert "malformed" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert _run("plot", tmp_path / "nope.csv", "--out", tmp_path / "p.svg") == 2
        capsys.readouterr()


class TestTraceCsv:
    def test_round_trip_exact(self, tmp_path):
        from resqnn.graphdata import build_graph_spec, generate_dataset
        from resqnn.trainer import TrainingConfig, train

        arch = arch_from_string("2,~3,2")
        spec = build_graph_spec("line", 4, 2)
        dataset = generate_dataset(spec, 2, delta=0.3, seed=3)
        trace = train(arch, dataset, TrainingConfig(epochs=4, seed=3, gamma=-0.5))
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        columns = read_trace_csv(path)
        for e, report in enumerate(trace.reports):
            assert columns["c_sv"][e] == report.c_sv
            assert columns["c_g"][e] == report.c_g
            assert columns["c_full"][e] == report.c_full
            assert columns["c_test"][e] == report.c_test


class TestSvgRenderer:
    def test_series_validation(self):
        with pytest.raises(ValueError, match="style"):
            Series("x", (1.0,), (0.5,), style="dotted")
        with pytest.raises(ValueError, match="x values"):
            Series("x", (1.0, 2.0), (0.5,))
        with pytest.raises(ValueError, match="at least one"):
            render_line_plot([])

    def test_nan_points_are_skipped(self):
        s = Series("x", (1.0, 2.0, 3.0), (0.1, float("nan"), 0.3))
        assert s.finite_points() == [(1.0, 0.1), (3.0, 0.3)]
        svg = render_line_plot([s])
        points = svg.split('points="')[1].split('"')[0].split()
        assert len(points) == 2

    def test_all_nan_series_keeps_legend_entry(self):
        s = Series("empty", (1.0, 2.0), (float("nan"), float("nan")))
        svg = render_line_plot([s])
        assert "<polyline" not in svg
        assert ">empty</text>" in svg

    def test_labels_are_escaped(self):
        s = Series("a<b&c", (1.0,), (0.5,))
        svg = render_line_plot([s])
        assert "a&lt;b&amp;c" in svg
        assert "a<b" not in svg

    def test_rendering_is_pinned(self):
        # A fixed digest, so that a change to any element's layout or number
        # format shows here rather than only between two runs of the same code.
        series = [
            Series("with <graph> & cost", (0.0, 1.0, 2.0, 3.0), (0.25, float("nan"), 0.5, 0.875)),
            Series("plain", (0.0, 1.0, 2.0, 3.0), (0.125, 0.375, 0.625, 0.75), style="dashed"),
        ]
        svg = render_line_plot(series, title="c_sv <on> & off", y_label="c_sv")
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "0f0661d7b68d17dbaddde296898435451132547a6be12659619f7e0b0ac213fa"
        )

    def test_render_is_deterministic(self):
        s = Series("x", tuple(range(10)), tuple(i / 10 for i in range(10)))
        assert render_line_plot([s], title="t") == render_line_plot([s], title="t")
