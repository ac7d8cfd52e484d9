#!/usr/bin/env python3
"""Compare training with and without the graph cost on line data.

Runs the one-residual-hidden-layer network over 8 seeds per arm
(graph weight -0.5 versus 0), writes the sweep aggregates, and renders
the seed-0 held-out-cost curves (solid: with graph, dashed: without).
Sparse supervision (one supervised vertex) is the regime where the graph
term measurably helps the held-out vertices.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from resqnn.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/graph_benefit")
    parser.add_argument("--epochs", type=int, default=500)
    parser.add_argument("--supervised", type=int, default=1)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(8)))
    args = parser.parse_args()

    out = Path(args.out)
    code = cli_main(
        ["sweep", "--out", str(out), "--vary", "gamma", "--values", "-0.5", "0",
         "--seeds", *[str(s) for s in args.seeds],
         "--arch", "2,~3,2", "--topology", "line", "--vertices", "8",
         "--supervised", str(args.supervised), "--epochs", str(args.epochs)]
    )
    if code != 0:
        return code
    cells = json.loads((out / "sweep.json").read_text())["cells"]
    traces = {c["value"]: str(out / c["trace_csv"]) for c in cells if c["seed"] == args.seeds[0]}
    return cli_main(
        ["plot", traces["-0.5"], traces["0"],
         "--labels", "with graph cost", "without graph cost",
         "--styles", "solid", "dashed",
         "--title", "held-out cost, graph supervision on vs off",
         "--out", str(out / "curves.svg")]
    )


if __name__ == "__main__":
    sys.exit(main())
