"""Run-to-run spread of the end-to-end metrics.

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
end-to-end metric its median over the runs and the distance between the
first and third quartile as a share of that median, next to the metric's
bound from ``BENCHMARK.json``. Each run lasts ``run_seconds`` from
``BENCHMARK.json``.

    python3 bench/spread.py --workload graph-clusters16 --seeds 0 1 2 3 4

Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    shares = set()
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        row = {name: m["value"] for name, m in result["metrics"].items()}
        for name in values:
            values[name].append(row[name])
        print(f"seed {seed}: {time.perf_counter() - start:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} "
              f"failed={result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
    print(f"failed share over runs: {sorted(shares)}")
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = quartile_spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{m['name']:12s} median {statistics.median(vals):12.6g} {m['unit']:3s} "
              f"spread {spread:7.4f}  bound {m['bound']}  (third of bound {m['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
