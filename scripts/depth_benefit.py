#!/usr/bin/env python3
"""Compare deep networks with and without shortcut connections.

Trains two- and three-hidden-layer networks on the same sparse-supervision
line data (8 seeds each, graph weight -0.5) and plots seed-0 held-out-cost
curves: shortcut-equipped variants solid, the plain baseline dashed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from resqnn.cli import main as cli_main

ARCHS = ("2,~3,~3,2", "2,3,3,2", "2,~3,~3,~3,2")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/depth_benefit")
    parser.add_argument("--epochs", type=int, default=750)
    parser.add_argument("--supervised", type=int, default=1)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(8)))
    args = parser.parse_args()

    out = Path(args.out)
    code = cli_main(
        ["sweep", "--out", str(out), "--vary", "arch", "--values", *ARCHS,
         "--seeds", *[str(s) for s in args.seeds],
         "--topology", "line", "--vertices", "8",
         "--supervised", str(args.supervised),
         "--gamma", "-0.5", "--epochs", str(args.epochs)]
    )
    if code != 0:
        return code
    cells = json.loads((out / "sweep.json").read_text())["cells"]
    traces = {c["value"]: str(out / c["trace_csv"]) for c in cells if c["seed"] == args.seeds[0]}
    return cli_main(
        ["plot", *(traces[arch] for arch in ARCHS),
         "--labels", *ARCHS,
         "--styles", "solid", "dashed", "solid",
         "--title", "held-out cost at depth, shortcuts vs none",
         "--out", str(out / "curves.svg")]
    )


if __name__ == "__main__":
    sys.exit(main())
