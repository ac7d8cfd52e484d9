"""Tests for the command-line harness and the SVG renderer."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from resqnn.cli import (
    TRACE_COLUMNS,
    ExperimentConfig,
    main,
    read_trace_csv,
    write_trace_csv,
)
from resqnn import graphdata
from resqnn.graphdata import load_dataset
from resqnn.netcore import arch_from_string, init_unitaries, load_checkpoint
from resqnn.svgplot import Series, render_line_plot


SRC = Path(__file__).resolve().parents[1] / "src"


def _run(*argv):
    return main([str(a) for a in argv])


def _python(code, cwd=None):
    """Run ``code`` in a fresh interpreter that imports resqnn from this checkout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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
        # Each field takes its default's type; a bool is no number and a string no list.
        for field, bad in (("seeds", "12"), ("seeds", 3), ("seeds", (True,)), ("seeds", (1.0,)),
                           ("epochs", True), ("epochs", 1.5), ("num_vertices", "8"),
                           ("gamma", "-0.5"), ("delta", False), ("arch", 2), ("out_dir", None)):
            with pytest.raises(ValueError, match=field):
                ExperimentConfig(**{field: bad})
        assert ExperimentConfig(gamma=-1, delta=1, seeds=[2, 3]).seeds == (2, 3)

    def test_as_dict_round_trips_through_json(self):
        cfg = ExperimentConfig(gamma=-0.5, seeds=(3, 4), epochs=7)
        payload = json.loads(json.dumps(dataclasses.asdict(cfg)))
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
        assert dataset.spec.supervised_indices == ()

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

    def test_nan_target_unitary_exits_before_training(self, tmp_path, capsys):
        data_dir = tmp_path / "d"
        assert _run("gen-data", "--out", data_dir, "--seed", 1, "--vertices", 4,
                    "--supervised", 2) == 0
        path = data_dir / "dataset.json"
        payload = json.loads(path.read_text())
        payload["target_unitary"][0][0] = [float("nan"), 0.0]
        path.write_text(json.dumps(payload))
        assert _run("train", "--out", tmp_path / "r", "--dataset", path, "--epochs", 1) == 2
        assert "target unitary is not unitary" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # rejected before any squaring
    @pytest.mark.parametrize("epsilon", ["1e20", "1e308"])
    def test_huge_step_exits_with_message(self, tmp_path, capsys, epsilon):
        code = _run("train", "--arch", "1,1", "--vertices", 4, "--supervised", 2,
                    "--epsilon", epsilon, "--epochs", 2, "--out", tmp_path / "r")
        err = capsys.readouterr().err
        assert code == 2
        assert "unitarity" in err and "Traceback" not in err

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

    @pytest.mark.parametrize(
        "payload", [{"seeds": "12"}, {"epochs": True}, {"epochs": 1.5}, {"num_vertices": "8"},
                    {"gamma": "-0.5"}]
    )
    def test_config_field_of_wrong_type_exits_before_any_output(self, tmp_path, capsys,
                                                                  payload):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(payload))
        assert _run("train", "--config", cfg_file, "--out", tmp_path / "r") == 2
        assert f"{next(iter(payload))} must be" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_dataset_rejects_given_graph_settings_it_does_not_hold(self, tmp_path, capsys):
        assert _run("gen-data", "--out", tmp_path / "d", "--seed", 1, "--vertices", 6,
                    "--supervised", 2) == 0
        path = tmp_path / "d" / "dataset.json"
        assert _run("train", "--dataset", path, "--vertices", 40, "--supervised", 9,
                    "--topology", "connected_clusters", "--delta", 5, "--epochs", 2,
                    "--out", tmp_path / "r") == 2
        err = capsys.readouterr().err
        for clash in ("topology 'connected_clusters' (the file holds 'line')",
                      "num_vertices 40 (the file holds 6)", "num_supervised 9 (the file holds 2)",
                      "delta 5.0 (the file holds 0.3)"):
            assert clash in err
        assert not (tmp_path / "r").exists()
        # A config file's fields are given too.
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"num_vertices": 7}))
        assert _run("train", "--dataset", path, "--config", cfg_file, "--epochs", 2,
                    "--out", tmp_path / "r") == 2
        assert "num_vertices 7 (the file holds 6)" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        # Settings that match the file train as without them.
        assert _run("train", "--dataset", path, "--vertices", 6, "--supervised", 2,
                    "--topology", "line", "--delta", 0.3, "--epochs", 2, "--seed", 3,
                    "--out", tmp_path / "given") == 0
        assert _run("train", "--dataset", path, "--epochs", 2, "--seed", 3,
                    "--out", tmp_path / "bare") == 0
        capsys.readouterr()
        assert (tmp_path / "given" / "checkpoint.json").read_bytes() == (
            tmp_path / "bare" / "checkpoint.json"
        ).read_bytes()

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

    @pytest.mark.parametrize(
        "command, argv",
        [("gen-data", ["--vertices", 4, "--supervised", 5]),
         ("train", ["--vertices", 4, "--supervised", 5]),
         ("gen-data", ["--topology", "connected_clusters", "--vertices", 1]),
         ("train", ["--topology", "connected_clusters", "--vertices", 1]),
         ("train", ["--dataset", "missing.json"])],
    )
    def test_rejected_dataset_leaves_no_output(self, tmp_path, capsys, monkeypatch,
                                               command, argv):
        monkeypatch.chdir(tmp_path)
        assert _run(command, *argv, "--epochs", 1, "--out", tmp_path / "r") == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()


class TestParser:
    @pytest.mark.parametrize(
        "argv", [["gen-data", "--vert", 5, "--sup", 1],
                 ["train", "--epoch", 1, "--vert", 4, "--sup", 1],
                 ["plot", "trace.csv", "--lab", "a"],
                 ["plot", "trace.csv", "--bogus"]]
    )
    def test_abbreviated_flags_are_rejected(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "trace.csv").write_text(",".join(TRACE_COLUMNS) + "\n1,0.5,0,0.5,0.5,1.0\n")
        with pytest.raises(SystemExit) as exc:
            _run(*argv, "--out", tmp_path / "out")
        assert exc.value.code == 2
        flag = next(a for a in argv if str(a).startswith("--"))
        err = capsys.readouterr().err
        # Reported with the subcommand's own usage, which lists the flags it takes.
        assert err.startswith(f"usage: resqnn {argv[0]} ")
        assert f"resqnn {argv[0]}: error: unrecognized arguments: {flag}" in err
        assert not (tmp_path / "out").exists()

    def test_import_builds_no_parser_and_main_builds_one(self, tmp_path):
        # Count every ArgumentParser made: none on import, one set (with its
        # subcommands) on the first call of main, none on the second.
        counts = _python(
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import resqnn.cli\n"
            "seen = [len(built)]\n"
            "for _ in range(2):\n"
            "    assert resqnn.cli.main(['plot', 'missing.csv']) == 2\n"
            "    seen.append(len(built))\n"
            "print(*seen)\n",
            cwd=tmp_path,
        )
        after_import, after_first, after_second = map(int, counts.split())
        assert after_import == 0
        assert after_first == after_second == 5
        assert list(tmp_path.iterdir()) == []


class TestParserReuse:
    """``main`` parses every call with one parser; no call leaves state for the next."""

    def test_omitted_flag_takes_its_default_after_a_call_that_gave_it(self, tmp_path, capsys):
        assert _run("gen-data", "--out", tmp_path / "a", "--vertices", 5, "--supervised", 1) == 0
        assert _run("gen-data", "--out", tmp_path / "b") == 0
        capsys.readouterr()
        recorded = [json.loads((tmp_path / name / "config.json").read_text()) for name in "ab"]
        assert [c["num_vertices"] for c in recorded] == [5, 8]
        assert [c["num_supervised"] for c in recorded] == [1, 3]
        assert load_dataset(tmp_path / "b" / "dataset.json").spec.num_vertices == 8

    @pytest.mark.parametrize(
        "rejected", [["train", "--epochs", "many"], ["train", "--epoch", 1],
                     ["sweep", "--vary", "gamma"]]
    )
    def test_rejected_call_leaves_the_next_one_working(self, tmp_path, capsys, rejected):
        with pytest.raises(SystemExit) as exc:
            _run(*rejected, "--out", tmp_path / "bad")
        assert exc.value.code == 2
        assert _run("train", "--out", tmp_path / "r", "--epochs", 1, "--vertices", 4,
                    "--supervised", 2) == 0
        capsys.readouterr()
        assert not (tmp_path / "bad").exists()
        assert json.loads((tmp_path / "r" / "config.json").read_text())["epochs"] == 1
        assert len(read_trace_csv(tmp_path / "r" / "trace.csv")["epoch"]) == 1

    def test_sweep_then_train_write_what_each_writes_alone(self, tmp_path, capsys, monkeypatch):
        common = ["--epochs", "3", "--vertices", "4", "--supervised", "2"]
        commands = {
            "sw": ["sweep", "--vary", "gamma", "--values", "0", "-0.5", "--seeds", "0", "1",
                   *common],
            "tr": ["train", "--seed", "1", "--gamma", "-0.5", *common],
        }
        # Both sides run from their own directory, so config.json records the same out_dir.
        together, alone = tmp_path / "together", tmp_path / "alone"
        together.mkdir()
        alone.mkdir()
        monkeypatch.chdir(together)
        for name, argv in commands.items():
            argv = [*argv, "--out", name]
            assert main(argv) == 0
            _python(f"import sys, resqnn.cli; sys.exit(resqnn.cli.main({argv!r}))", cwd=alone)
        capsys.readouterr()

        def contents(root):
            # Every file's bytes, but a trace's wall-clock column.
            return {
                path.relative_to(root): (
                    [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
                    if path.suffix == ".csv" and path.name != "sweep.csv"
                    else path.read_bytes()
                )
                for path in sorted(root.rglob("*")) if path.is_file()
            }

        expected = contents(alone)
        # sweep: config, sweep.json, sweep.csv and 4 cells; train: config, trace, checkpoint
        assert len(expected) == 10
        assert contents(together) == expected


class TestFileFormat:
    def test_machine_read_files_are_compact_and_settings_files_indented(self, tmp_path, capsys):
        common = ("--epochs", 2, "--vertices", 4, "--supervised", 2)
        data, run, sweep = tmp_path / "d", tmp_path / "r", tmp_path / "s"
        assert _run("gen-data", "--out", data, "--vertices", 4, "--supervised", 2) == 0
        assert _run("train", "--out", run, "--dataset", data / "dataset.json", *common) == 0
        assert _run("sweep", "--out", sweep, "--vary", "gamma", "--values", "0",
                    "--seeds", 0, 1, *common) == 0
        capsys.readouterr()
        for path in (data / "dataset.json", run / "checkpoint.json"):
            text = path.read_text()
            assert len(text.splitlines()) == 1
            assert text == json.dumps(json.loads(text))
        for path in (data / "config.json", run / "config.json", sweep / "config.json"):
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        text = (sweep / "sweep.json").read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


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

    def test_seed_flag_not_offered(self, tmp_path, capsys):
        # A single --seed could only be ignored next to --seeds or fail as one seed.
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            _run("sweep", "--out", out, "--vary", "gamma", "--values", "0", "--seed", 4,
                 "--seeds", 0, 1, "--epochs", 1)
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

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
