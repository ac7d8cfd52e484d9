"""Command-line experiment harness.

Subcommands: ``gen-data`` (write a dataset JSON and print its digest),
``train`` (one training run to a trace CSV plus checkpoint), ``sweep``
(cross product of one varied axis and several seeds, aggregated with error
bars), and ``plot`` (deterministic SVG of held-out cost curves).

Configuration precedence: command-line flags override ``--config`` file
fields, which override the dataclass defaults; the output directory falls
back to the ``RESQNN_OUT`` environment variable. Every data-producing
subcommand echoes the merged config into the output directory as
``config.json``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .graphdata import (
    DEFAULT_DELTA,
    TOPOLOGIES,
    GraphDataset,
    build_graph_spec,
    check_graph_size,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from .netcore import arch_from_string, arch_to_string, save_checkpoint
from .svgplot import LINE_STYLES, Series, render_line_plot
from .trainer import TrainingConfig, TrainingTrace, train

__all__ = [
    "OUTPUT_ENV_VAR",
    "SWEEP_AXES",
    "TRACE_COLUMNS",
    "ExperimentConfig",
    "main",
    "read_trace_csv",
    "write_trace_csv",
]

TRACE_COLUMNS = ("epoch", "c_sv", "c_g", "c_full", "c_test", "wall_ms")
#: A custom topology needs an edge list, which no flag or config field carries.
_TOPOLOGIES = tuple(t for t in TOPOLOGIES if t != "custom")
#: Each sweep axis names the config field it sets and the parser of its values.
_SWEEP_FIELDS = {
    "gamma": ("gamma", float),
    "supervised": ("num_supervised", int),
    "arch": ("arch", lambda text: arch_to_string(arch_from_string(text))),
}
SWEEP_AXES = tuple(_SWEEP_FIELDS)
OUTPUT_ENV_VAR = "RESQNN_OUT"


@dataclass(frozen=True)
class ExperimentConfig:
    """Merged settings of one experiment; the arch string is canonicalized."""

    arch: str = "2,~3,2"
    topology: str = "line"
    num_vertices: int = 8
    num_supervised: int = 3
    gamma: float = 0.0
    epsilon: float = 0.01
    epochs: int = 250
    seeds: tuple[int, ...] = (0,)
    delta: float = DEFAULT_DELTA
    out_dir: str = "."

    def __post_init__(self) -> None:
        # Each field takes its default's type (a float field an int too); a bool is no number.
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            items = value if f.name == "seeds" else [value]
            kind = {float: (int, float), tuple: int}.get(type(f.default), type(f.default))
            if not isinstance(items, (list, tuple)) or not all(
                isinstance(v, kind) and not isinstance(v, bool) for v in items
            ):
                raise ValueError(f"{f.name} must be {f.type}, got {value!r}")
        object.__setattr__(self, "arch", arch_to_string(arch_from_string(self.arch)))
        if self.topology not in _TOPOLOGIES:
            raise ValueError(
                f"topology must be one of {_TOPOLOGIES}, got {self.topology!r}"
            )
        seeds = tuple(self.seeds)
        if not seeds:
            raise ValueError("need at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"duplicate seeds in {seeds}")
        object.__setattr__(self, "seeds", seeds)
        # Bad training, delta or graph settings are rejected before any output is written.
        self.training_config(seeds[0])
        if not 0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        check_graph_size(self.topology, self.num_vertices)

    def training_config(self, seed: int) -> TrainingConfig:
        return TrainingConfig(
            epochs=self.epochs,
            seed=seed,
            epsilon=self.epsilon,
            gamma=self.gamma,
        )


#: Each config flag stores into the attribute named after its field.
_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def resolve_config(args: argparse.Namespace) -> tuple[ExperimentConfig, set[str]]:
    """Merge defaults, the optional config file and the typed flags; name the fields given."""
    values: dict = {}
    if args.config:
        payload = json.loads(Path(args.config).read_text())
        if not isinstance(payload, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(payload) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(f"unknown config fields {sorted(unknown)} in {args.config}")
        values.update(payload)
    values.update((name, v) for name, v in vars(args).items() if name in _CONFIG_FIELDS)
    given = set(values)
    values.setdefault("out_dir", os.environ.get(OUTPUT_ENV_VAR, "."))
    return ExperimentConfig(**values), given


def _prepare_out_dir(config: ExperimentConfig) -> Path:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "config.json"
    path.write_text(json.dumps(dataclasses.asdict(config), indent=2, sort_keys=True) + "\n")
    return out


def _build_dataset(config: ExperimentConfig, seed: int) -> GraphDataset:
    arch = arch_from_string(config.arch)
    spec = build_graph_spec(config.topology, config.num_vertices, config.num_supervised)
    return generate_dataset(spec, arch.input_qubits, delta=config.delta, seed=seed)


def write_trace_csv(path: Path | str, trace: TrainingTrace) -> None:
    """Epoch-indexed cost rows, one per update; header only when no epochs ran."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for epoch, (report, wall) in enumerate(zip(trace.reports, trace.wall_ms), start=1):
            writer.writerow(
                [
                    epoch,
                    repr(report.c_sv),
                    repr(report.c_g),
                    repr(report.c_full),
                    repr(report.c_test),
                    f"{wall:.3f}",
                ]
            )


def read_trace_csv(path: Path | str) -> dict[str, list[float]]:
    """Parse a trace CSV back into per-column value lists."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or tuple(reader.fieldnames) != TRACE_COLUMNS:
            raise ValueError(
                f"{path}: expected columns {','.join(TRACE_COLUMNS)}, "
                f"got {reader.fieldnames}"
            )
        columns: dict[str, list[float]] = {name: [] for name in TRACE_COLUMNS}
        for row in reader:
            try:
                for name in TRACE_COLUMNS:
                    columns[name].append(float(row[name]))
            except (TypeError, ValueError, KeyError) as exc:
                raise ValueError(f"{path}: malformed row {row}") from exc
    return columns


def cmd_gen_data(args: argparse.Namespace) -> int:
    config, _ = resolve_config(args)
    dataset = _build_dataset(config, config.seeds[0])
    out = _prepare_out_dir(config)
    path = out / "dataset.json"
    save_dataset(path, dataset)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    print(f"wrote {path}")
    print(f"sha256 {digest}")
    return 0


def _run(
    config: ExperimentConfig, seed: int, csv_path: Path, dataset: GraphDataset
) -> TrainingTrace:
    """Train ``config`` at ``seed`` on ``dataset``; write the trace."""
    trace = train(arch_from_string(config.arch), dataset, config.training_config(seed))
    write_trace_csv(csv_path, trace)
    return trace


def cmd_train(args: argparse.Namespace) -> int:
    config, given = resolve_config(args)
    seed = config.seeds[0]
    dataset = load_dataset(args.dataset) if args.dataset else _build_dataset(config, seed)
    spec = dataset.spec
    held = {"topology": spec.topology, "num_vertices": spec.num_vertices,
            "num_supervised": len(spec.supervised_indices), "delta": dataset.delta}
    clashes = [f"{name} {getattr(config, name)!r} (the file holds {value!r})"
               for name, value in held.items() if name in given and getattr(config, name) != value]
    if clashes:
        raise ValueError(f"given settings disagree with {args.dataset}: " + "; ".join(clashes))
    out = _prepare_out_dir(config)
    csv_path = out / "trace.csv"
    trace = _run(config, seed, csv_path, dataset)
    checkpoint_path = out / "checkpoint.json"
    save_checkpoint(checkpoint_path, trace.final_unitaries, seed=seed)
    final = trace.final_report
    print(f"wrote {csv_path}")
    print(f"wrote {checkpoint_path}")
    print(
        f"final c_sv={final.c_sv:.6f} c_g={final.c_g:.6f} "
        f"c_full={final.c_full:.6f} c_test={final.c_test:.6f}"
    )
    if trace.plateau_epoch is not None:
        print(f"plateau from epoch {trace.plateau_epoch}")
    return 0


def _cell_stem(axis: str, raw_value: str, seed: int) -> str:
    sanitized = raw_value.replace(",", "-").replace("~", "r").replace(" ", "")
    return f"{axis}={sanitized}__seed{seed}"


def cmd_sweep(args: argparse.Namespace) -> int:
    config, _ = resolve_config(args)
    if len(config.seeds) < 2:
        raise ValueError(
            f"sweep needs at least 2 seeds for error bars, got {len(config.seeds)}"
        )
    field, parse = _SWEEP_FIELDS[args.vary]
    seen: dict = {}
    for raw in args.values:
        try:
            setting = parse(raw)
        except ValueError:
            continue  # fails again below, as a recorded cell
        if setting in seen:
            raise ValueError(f"--values {seen[setting]!r} and {raw!r} are the same {args.vary}")
        seen[setting] = raw
    out = _prepare_out_dir(config)
    (out / "cells").mkdir(exist_ok=True)

    cells: list[dict] = []
    for raw_value, seed in itertools.product(args.values, config.seeds):
        cell: dict = {"value": raw_value, "seed": seed, "error": None}
        csv_rel = f"cells/{_cell_stem(args.vary, raw_value, seed)}.csv"
        try:
            variant = dataclasses.replace(config, **{field: parse(raw_value)})
            trace = _run(variant, seed, out / csv_rel, _build_dataset(variant, seed))
        except (ValueError, OSError) as exc:
            cell["error"] = str(exc)
        else:
            cell.update(trace_csv=csv_rel, **dataclasses.asdict(trace.final_report))
        cells.append(cell)
    failures = sum(c["error"] is not None for c in cells)

    aggregates = []
    for raw_value in args.values:
        finals = [
            c["c_test"] for c in cells if c["value"] == raw_value and c["error"] is None
        ]
        aggregates.append(
            {
                "value": raw_value,
                "n_seeds": len(finals),
                "mean_final_c_test": statistics.mean(finals) if finals else float("nan"),
                "stderr_final_c_test": (
                    statistics.stdev(finals) / math.sqrt(len(finals))
                    if len(finals) >= 2
                    else float("nan")
                ),
            }
        )

    result = {
        "vary": args.vary,
        "values": list(args.values),
        "seeds": list(config.seeds),
        "cells": cells,
        "aggregates": aggregates,
    }
    json_path = out / "sweep.json"
    json_path.write_text(json.dumps(result, indent=2) + "\n")
    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["vary", "value", "n_seeds", "mean_final_c_test", "stderr_final_c_test"])
        for agg in aggregates:
            writer.writerow(
                [
                    args.vary,
                    agg["value"],
                    agg["n_seeds"],
                    repr(agg["mean_final_c_test"]),
                    repr(agg["stderr_final_c_test"]),
                ]
            )
    print(f"wrote {json_path}")
    print(f"wrote {csv_path}")
    for agg in aggregates:
        print(
            f"{args.vary}={agg['value']}: mean_final_c_test="
            f"{agg['mean_final_c_test']:.6f} +- {agg['stderr_final_c_test']:.6f} "
            f"over {agg['n_seeds']} seeds"
        )
    if failures:
        print(f"{failures} cell(s) failed; see sweep.json", file=sys.stderr)
        return 1
    return 0


def cmd_plot(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.traces]
    labels = list(args.labels) if args.labels else [p.stem for p in paths]
    if len(labels) != len(paths):
        raise ValueError(f"got {len(labels)} labels for {len(paths)} trace files")
    styles = list(args.styles) if args.styles else ["solid"] * len(paths)
    if len(styles) != len(paths):
        raise ValueError(f"got {len(styles)} styles for {len(paths)} trace files")

    series = []
    for path, label, style in zip(paths, labels, styles):
        columns = read_trace_csv(path)
        series.append(
            Series(
                label=label,
                xs=tuple(columns["epoch"]),
                ys=tuple(columns[args.column]),
                style=style,
            )
        )
    svg = render_line_plot(series, title=args.title, y_label=args.column)
    if args.out:
        out_path = Path(args.out)
    else:
        out_path = Path(os.environ.get(OUTPUT_ENV_VAR, ".")) / "plot.svg"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(svg)
    print(f"wrote {out_path}")
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="JSON file of fields; flags override it")
    parser.add_argument("--arch", help="layer widths, '~' marks a shortcut hidden layer")
    parser.add_argument("--topology", choices=_TOPOLOGIES)
    parser.add_argument("--vertices", dest="num_vertices", type=int,
                        help="number of graph vertices")
    parser.add_argument("--supervised", dest="num_supervised", type=int,
                        help="number of supervised vertices")
    parser.add_argument("--gamma", type=float, help="non-positive graph-cost weight")
    parser.add_argument("--epsilon", type=float, help="update step size")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--delta", type=float, help="dataset closeness scale")
    parser.add_argument("--out", dest="out_dir",
                        help=f"output directory (default ${OUTPUT_ENV_VAR} or '.')")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="resqnn",
        description="Experiment harness for shortcut-equipped quantum network training.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    # A flag that is not typed stays off the namespace, so resolve_config sees what was given.
    config_parser = {"argument_default": argparse.SUPPRESS, "allow_abbrev": False}
    seed_flag = {"dest": "seeds", "nargs": 1, "type": int, "metavar": "SEED"}
    gen = subparsers.add_parser("gen-data", help="generate a graph dataset JSON", **config_parser)
    _add_config_flags(gen)
    gen.add_argument("--seed", **seed_flag)
    gen.set_defaults(func=cmd_gen_data, parser=gen)

    tr = subparsers.add_parser("train", help="run one training loop", **config_parser)
    _add_config_flags(tr)
    tr.add_argument("--seed", **seed_flag)
    tr.add_argument("--dataset", default=None, help="dataset JSON to train on (default: generate)")
    tr.set_defaults(func=cmd_train, parser=tr)

    sw = subparsers.add_parser(
        "sweep", help="cross product of one axis and many seeds", **config_parser
    )
    _add_config_flags(sw)
    sw.add_argument("--vary", required=True, choices=SWEEP_AXES)
    sw.add_argument("--values", required=True, nargs="+")
    sw.add_argument("--seeds", nargs="+", type=int, help="seeds (>= 2) for error bars")
    sw.set_defaults(func=cmd_sweep, parser=sw)

    pl = subparsers.add_parser(
        "plot", help="render trace CSVs to a deterministic SVG", allow_abbrev=False
    )
    pl.add_argument("traces", nargs="+", help="trace CSV files")
    pl.add_argument("--labels", nargs="*", help="legend labels (default: file stems)")
    pl.add_argument("--styles", nargs="*", choices=LINE_STYLES)
    pl.add_argument("--column", default="c_test", choices=TRACE_COLUMNS[1:5])
    pl.add_argument("--title", default="")
    pl.add_argument("--out", help="output SVG path (default: $%s/plot.svg)" % OUTPUT_ENV_VAR)
    pl.set_defaults(func=cmd_plot, parser=pl)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args, extra = _build_parser().parse_known_args(argv)
    if extra:
        # argparse hands a subcommand's unknown flags back up; report them with its own usage.
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
