"""The benchmark's three workloads.

Each workload has a set-up (warm-up, plus any inputs the benchmark builds
itself), a timed round of the program's own operations, and an untimed check
of that round's outputs. A round always does the same operations on the same
inputs, so call counts per step repeat exactly between runs.

The program is driven the way a user drives it: the two training workloads
call ``resqnn.cli.main`` in-process, the oracle workload calls the Python
API. Names are looked up on the module at call time, so the traced run's
wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import time
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refsim
from resqnn import cli, graphdata, netcore, trainer

#: Agreement of the program's final costs with the reference simulator.
COST_TOL = 1e-9
#: Slack for roundoff on the [0, 1] and >= 0 ranges of the costs.
RANGE_SLACK = 1e-12
#: Analytic vs finite-difference Pauli coefficients: |a - n| <= ATOL + RTOL * |n|.
ORACLE_RTOL, ORACLE_ATOL = 1e-3, 1e-7
HERMITIAN_TOL = 1e-10
COST_COLUMNS = ("c_sv", "c_g", "c_full", "c_test")


@dataclass
class Round:
    """One timed round: its wall time, step times and operation counts.

    ``steps_ms`` maps each kind of step (the architecture trained, or the
    oracle) to its step times; a failed round has none.
    """

    wall_s: float
    steps_ms: dict[str, list[float]]
    attempted: int
    failed: int
    out_dir: Path
    detail: dict = field(default_factory=dict)
    bytes_written: int = 0
    span: int = -1

    def all_steps_ms(self) -> list[float]:
        return [ms for steps in self.steps_ms.values() for ms in steps]


def call_cli(argv: list[str]) -> int:
    """Run ``resqnn`` in-process with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        sys.stderr.write(f"resqnn {' '.join(argv)} exited {code}\n{err.getvalue()}")
    return code


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def read_trace(path: Path) -> dict[str, list[float]]:
    """Columns of a trace CSV, parsed with the standard csv module."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    names = ("epoch",) + COST_COLUMNS + ("wall_ms",)
    return {name: [float(row[name]) for row in rows] for name in names}


def reference_outputs(out: Path):
    """The reference's network, dataset and per-vertex outputs for a run directory."""
    net = refsim.load_network(out / "checkpoint.json")
    data = refsim.load_dataset(out / "dataset.json")
    outputs = [refsim.forward(net, data.input_density(v)) for v in range(data.num_vertices)]
    return net, data, outputs


def check_against_reference(out: Path, gamma: float, last_row: dict[str, float]) -> list[str]:
    """Recompute every output and cost from the files in ``out``; compare to ``last_row``."""
    problems = []
    net, data, outputs = reference_outputs(out)
    for l, layer in enumerate(net.layers):
        for j, u in enumerate(layer):
            defect = float(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max())
            if defect > 1e-9:
                problems.append(f"perceptron ({l},{j}) unitarity defect {defect:.2e}")
    expected_trace = 2.0**net.shortcut_count
    for v, rho in enumerate(outputs):
        tr = float(np.trace(rho).real)
        if abs(tr - expected_trace) > COST_TOL:
            problems.append(f"vertex {v}: trace {tr!r}, expected {expected_trace}")
        if refsim.hermitian_defect(rho) > HERMITIAN_TOL:
            problems.append(f"vertex {v}: output is not Hermitian")
    ref = refsim.costs(net, data, outputs, gamma)
    for name in COST_COLUMNS:
        got, want = last_row[name], getattr(ref, name)
        if not abs(got - want) <= COST_TOL:
            problems.append(f"{name}: program {got!r}, reference {want!r}")
    return problems


class GraphClusters16:
    """``gen-data`` then ``train`` on 16-vertex connected clusters, gamma -0.5."""

    name = "graph-clusters16"
    #: The span whose calls enclose every epoch the round times (see run.py).
    step_span = "trainer.train"
    arch = "2,~3,2"
    gamma = -0.5
    epochs = 4
    graph_flags = ["--topology", "connected_clusters", "--vertices", "16", "--supervised", "2"]

    def __init__(self, seed: int, out_root: Path) -> None:
        self.seed = seed
        self.out_root = out_root
        self.initial_c_full: float | None = None

    def setup(self) -> None:
        warm = fresh_dir(self.out_root / "warmup")
        small = ["--topology", "connected_clusters", "--vertices", "4", "--supervised", "2"]
        call_cli(["gen-data", "--out", str(warm), "--arch", self.arch, *small])
        call_cli(["train", "--out", str(warm), "--dataset", str(warm / "dataset.json"),
                  "--arch", self.arch, *small, "--gamma", str(self.gamma), "--epochs", "2"])

    def _train_argv(self, out: Path, epochs: int) -> list[str]:
        return ["train", "--out", str(out), "--dataset", str(out / "dataset.json"),
                "--seed", str(self.seed), "--arch", self.arch, *self.graph_flags,
                "--gamma", str(self.gamma), "--epochs", str(epochs)]

    def _gen_argv(self, out: Path) -> list[str]:
        return ["gen-data", "--out", str(out), "--seed", str(self.seed),
                "--arch", self.arch, *self.graph_flags]

    def run_round(self, out: Path, index: int) -> Round:
        t0 = time.perf_counter()
        code = call_cli(self._gen_argv(out))
        t1 = time.perf_counter()
        if code == 0:
            code = call_cli(self._train_argv(out, self.epochs))
        t2 = time.perf_counter()
        if code != 0:
            return Round(t2 - t0, {}, self.epochs, self.epochs, out)
        trace = read_trace(out / "trace.csv")
        return Round(t2 - t0, {self.arch: trace["wall_ms"]}, self.epochs, 0, out,
                     {"trace": trace, "train_ms": (t2 - t1) * 1000.0})

    def _initial(self) -> float:
        """c_full before training, from an epoch-0 checkpoint and the reference."""
        if self.initial_c_full is None:
            out = fresh_dir(self.out_root / "initial")
            if call_cli(self._gen_argv(out)) or call_cli(self._train_argv(out, 0)):
                raise RuntimeError("could not write the epoch-0 checkpoint")
            net, data, outputs = reference_outputs(out)
            self.initial_c_full = refsim.costs(net, data, outputs, self.gamma).c_full
        return self.initial_c_full

    def check(self, rnd: Round) -> list[str]:
        trace = rnd.detail["trace"]
        problems = []
        if len(trace["epoch"]) != self.epochs:
            return [f"trace.csv has {len(trace['epoch'])} rows, expected {self.epochs}"]
        if sum(trace["wall_ms"]) > rnd.detail["train_ms"]:
            problems.append("epoch times add up to more than the train call took")
        last = {name: trace[name][-1] for name in COST_COLUMNS}
        problems += check_against_reference(rnd.out_dir, self.gamma, last)
        initial = self._initial()
        if not last["c_full"] > initial:
            problems.append(f"final c_full {last['c_full']!r} not above initial {initial!r}")
        return problems


class DepthSweepLine8:
    """``sweep --vary arch`` over shortcut and plain 3-hidden-layer nets, then ``plot``."""

    name = "depth-sweep-line8"
    step_span = "trainer.train"
    archs = ("2,~3,~3,~3,2", "2,3,3,3,2")
    epochs = 5
    graph_flags = ["--topology", "line", "--vertices", "8", "--supervised", "3"]

    def __init__(self, seed: int, out_root: Path) -> None:
        self.seeds = (seed, seed + 1)
        self.out_root = out_root
        self.reference_costs: dict[tuple[str, int], dict[str, list[float]]] | None = None

    def _sweep_and_plot(self, out: Path, graph_flags: list[str], epochs: int, seeds) -> tuple:
        """Run the sweep, then plot every cell it wrote; returns both exit codes and times."""
        t0 = time.perf_counter()
        code = call_cli(["sweep", "--out", str(out), "--vary", "arch", "--values", *self.archs,
                         *graph_flags, "--gamma", "0", "--epochs", str(epochs),
                         "--seeds", *(str(s) for s in seeds)])
        t1 = time.perf_counter()
        if code != 0:
            return code, None, t1 - t0, t1 - t0
        cells = json.loads((out / "sweep.json").read_text())["cells"]
        plot_code = call_cli(
            ["plot", *(str(out / c["trace_csv"]) for c in cells),
             "--labels", *(f"{c['value']} seed {c['seed']}" for c in cells),
             "--styles", *("solid" if "~" in c["value"] else "dashed" for c in cells),
             "--title", "shortcut vs plain, 3 hidden layers", "--out", str(out / "plot.svg")]
        )
        return code, plot_code, t1 - t0, time.perf_counter() - t0

    def setup(self) -> None:
        small = ["--topology", "line", "--vertices", "2", "--supervised", "1"]
        self._sweep_and_plot(fresh_dir(self.out_root / "warmup"), small, 1, (0, 1))

    def run_round(self, out: Path, index: int) -> Round:
        cells = len(self.archs) * len(self.seeds)
        code, plot_code, sweep_s, wall_s = self._sweep_and_plot(
            out, self.graph_flags, self.epochs, self.seeds
        )
        if code != 0:
            return Round(wall_s, {}, cells, cells, out)
        result = json.loads((out / "sweep.json").read_text())
        traces = {
            (c["value"], c["seed"]): read_trace(out / c["trace_csv"]) for c in result["cells"]
        }
        steps: dict[str, list[float]] = {}
        for (arch, _), trace in traces.items():
            steps.setdefault(arch, []).extend(trace["wall_ms"])
        return Round(wall_s, steps, cells, 0, out,
                     {"result": result, "traces": traces, "sweep_ms": sweep_s * 1000.0,
                      "plot_code": plot_code})

    def _reference(self) -> dict[tuple[str, int], dict[str, list[float]]]:
        """Each cell's cost columns, from ``train`` runs checked against the reference.

        The sweep keeps no checkpoints, so every cell is trained once more
        through ``gen-data`` and ``train`` with the same seed; those runs must
        reproduce the cell's costs exactly and match the reference simulator.
        """
        if self.reference_costs is None:
            self.reference_costs = {}
            for i, arch in enumerate(self.archs):
                for seed in self.seeds:
                    out = fresh_dir(self.out_root / "reference" / f"arch{i}-seed{seed}")
                    common = ["--out", str(out), "--seed", str(seed), "--arch", arch,
                              *self.graph_flags]
                    if call_cli(["gen-data", *common]) or call_cli(
                        ["train", *common, "--dataset", str(out / "dataset.json"),
                         "--gamma", "0", "--epochs", str(self.epochs)]
                    ):
                        raise RuntimeError(f"reference training of {arch} seed {seed} failed")
                    trace = read_trace(out / "trace.csv")
                    last = {name: trace[name][-1] for name in COST_COLUMNS}
                    problems = check_against_reference(out, 0.0, last)
                    if problems:
                        raise RuntimeError(f"{arch} seed {seed}: " + "; ".join(problems))
                    self.reference_costs[(arch, seed)] = {n: trace[n] for n in COST_COLUMNS}
        return self.reference_costs

    def check(self, rnd: Round) -> list[str]:
        problems = []
        result, traces = rnd.detail["result"], rnd.detail["traces"]
        failed = [c for c in result["cells"] if c["error"] is not None]
        if failed:
            problems.append(f"{len(failed)} sweep cell(s) failed")
        if rnd.detail["plot_code"] != 0:
            problems.append("plot exited non-zero")
        if sum(rnd.all_steps_ms()) > rnd.detail["sweep_ms"]:
            problems.append("epoch times add up to more than the sweep call took")
        reference = self._reference()
        if sorted(traces) != sorted(reference):
            return problems + [f"cells {sorted(traces)}, expected {sorted(reference)}"]
        for cell, trace in traces.items():
            if len(trace["epoch"]) != self.epochs:
                problems.append(f"{cell}: {len(trace['epoch'])} rows, expected {self.epochs}")
            for name in ("c_sv", "c_test"):
                if not all(-RANGE_SLACK <= x <= 1 + RANGE_SLACK for x in trace[name]):
                    problems.append(f"{cell}: {name} leaves [0, 1]")
            if not all(x >= -RANGE_SLACK for x in trace["c_g"]):
                problems.append(f"{cell}: c_g negative")
            if any(trace[name] != reference[cell][name] for name in COST_COLUMNS):
                problems.append(f"{cell}: costs differ from the checked train run")
        for agg in result["aggregates"]:
            finals = [trace["c_test"][-1] for (value, _), trace in traces.items()
                      if value == agg["value"]]
            n = len(finals)
            mean = sum(finals) / n
            stderr = math.sqrt(sum((x - mean) ** 2 for x in finals) / (n - 1)) / math.sqrt(n)
            if agg["n_seeds"] != n or not (
                math.isclose(agg["mean_final_c_test"], mean, rel_tol=1e-12, abs_tol=1e-15)
                and math.isclose(agg["stderr_final_c_test"], stderr, rel_tol=1e-9, abs_tol=1e-15)
            ):
                problems.append(f"aggregate for {agg['value']} disagrees with the cells")
        try:
            ElementTree.parse(rnd.out_dir / "plot.svg")
        except ElementTree.ParseError as exc:
            problems.append(f"plot.svg is not XML: {exc}")
        return problems


class OracleLine4:
    """Finite-difference oracle, then analytic generators at the same unitaries."""

    name = "oracle-line4"
    #: The step is timed by the benchmark around the call, not by the program.
    step_span = None
    arch = "1,~1,~1,1"
    gamma = -0.5

    def __init__(self, seed: int, out_root: Path) -> None:
        self.instance_seeds = (seed, seed + 1)
        self.out_root = out_root
        self.instances: list = []

    def setup(self) -> None:
        self.architecture = arch = netcore.arch_from_string(self.arch)
        spec = graphdata.build_graph_spec("line", 4, 2)
        self.instances = [
            (
                graphdata.generate_dataset(spec, arch.input_qubits, delta=0.3, seed=s),
                netcore.init_unitaries(arch, np.random.default_rng([s, 1])),
            )
            for s in self.instance_seeds
        ]
        dataset, unitaries = self.instances[0]
        trainer.k_numeric_oracle(arch, unitaries, dataset, self.gamma)
        self._analytic(dataset, unitaries)

    def _analytic(self, dataset, unitaries):
        arch = self.architecture
        embedded = netcore.embed_network(arch, unitaries)
        records = [
            netcore.forward(arch, unitaries, dataset.input_density(v), embedded=embedded)
            for v in range(dataset.spec.num_vertices)
        ]
        k_sv = trainer.supervised_generators(
            arch, unitaries, [records[v] for v in dataset.spec.supervised_indices],
            list(dataset.supervised_targets), 1.0, embedded,
        )
        k_g = trainer.graph_generators(arch, unitaries, records, dataset.adjacency, 1.0, embedded)
        return trainer.k_full(k_sv, k_g, self.gamma)

    def run_round(self, out: Path, index: int) -> Round:
        dataset, unitaries = self.instances[index % len(self.instances)]
        t0 = time.perf_counter()
        try:
            numeric = trainer.k_numeric_oracle(
                self.architecture, unitaries, dataset, self.gamma, 1.0, 1e-5
            )
            t1 = time.perf_counter()
            analytic = self._analytic(dataset, unitaries)
        except (ValueError, ArithmeticError) as exc:
            sys.stderr.write(f"oracle instance failed: {exc!r}\n")
            return Round(time.perf_counter() - t0, {}, 1, 1, out)
        t2 = time.perf_counter()
        return Round(t2 - t0, {"k_numeric_oracle": [(t1 - t0) * 1000.0]}, 1, 0, out,
                     {"numeric": numeric, "analytic": analytic})

    def check(self, rnd: Round) -> list[str]:
        problems = []
        numeric, analytic = rnd.detail["numeric"], rnd.detail["analytic"]
        widths, _ = refsim.parse_arch(self.arch)
        for l, (layer_a, layer_n) in enumerate(zip(analytic.layers, numeric.layers)):
            if len(layer_a) != widths[l + 1] or len(layer_n) != widths[l + 1]:
                problems.append(f"layer {l}: wrong number of generators")
            for j, (k_a, k_n) in enumerate(zip(layer_a, layer_n)):
                for label, k in (("analytic", k_a), ("numeric", k_n)):
                    scale = max(1.0, float(np.abs(k).max()))
                    if refsim.hermitian_defect(k) > HERMITIAN_TOL * scale:
                        problems.append(f"{label} generator ({l},{j}) is not Hermitian")
                c_a = refsim.pauli_coefficients(np.asarray(k_a))
                c_n = refsim.pauli_coefficients(np.asarray(k_n))
                worst = np.abs(c_a - c_n) - (ORACLE_ATOL + ORACLE_RTOL * np.abs(c_n))
                if worst.max() > 0:
                    problems.append(f"generator ({l},{j}): analytic and oracle disagree")
        if len(analytic.layers) != len(widths) - 1 or len(numeric.layers) != len(widths) - 1:
            problems.append("wrong number of generator layers")
        return problems


WORKLOADS = {cls.name: cls for cls in (GraphClusters16, DepthSweepLine8, OracleLine4)}
