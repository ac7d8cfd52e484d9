"""Benchmark for resqnn: epoch and oracle times on three workloads.

Usage (from the root of a checkout; resqnn need not be installed):

    python3 bench/run.py --workload graph-clusters16 --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first repeats the untraced measurement for half the time,
then wraps resqnn's public functions and measures the other half, and
reports the per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The metric names and units are read from
``BENCHMARK.json`` at the root of the checkout; details are in
``bench/README.md``.

Each workload runs in this one process as a closed loop: one caller, each
call starting when the previous one has returned. Rounds repeat until the
next one would overrun ``--seconds``. Outputs go to ``bench/out/``.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads; the matrices are at most 64x64, where more threads only add noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import LayerTotals, Tracer, aggregate, instrument, roots, self_times  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
#: Fresh interpreters timed from start to the end of set-up, spread evenly
#: over the run; setup_s is their median.
SETUP_REPEATS = 9
#: The traced half stops after the round in which this many spans are reached,
#: which bounds its memory and the time taken to write the spans out.
MAX_SPANS = 250_000
#: A run needs this many steps before step_ms_p90 has ten samples beyond it.
P90_MIN_STEPS = 100
#: Share of the traced rounds' time that may lie outside every wrapped call:
#: the benchmark's own glue (reading the trace CSVs, redirecting output),
#: under 0.5% here.
MAX_UNTRACED_SHARE = 0.05


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def time_setup_in_fresh_interpreter(args) -> float:
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed (exit {code})")
    return elapsed


def measure(workload, seconds: float, first_index: int, tracer=None, between=None):
    """Timed rounds until the next would overrun ``seconds``; checks each round.

    Rounds also stop after a round in which an operation failed, which makes
    the run's result incorrect (a failed round may take next to no time, so
    ``seconds`` would take very many of them to fill), and, with a
    ``tracer``, once it holds ``MAX_SPANS`` spans.

    ``between(timed_s)`` is called before each round, outside the timed part,
    with the timed seconds so far.
    """
    from workloads import fresh_dir

    rounds, problems, timed = [], [], 0.0
    while True:
        if between is not None:
            between(timed)
        out = fresh_dir(workload.out_root / "round")
        with tracer.span("bench.round") if tracer is not None else nullcontext() as span:
            rnd = workload.run_round(out, first_index + len(rounds))
        if span is not None:
            rnd.span = span
        rnd.bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        rounds.append(rnd)
        timed += rnd.wall_s
        if rnd.failed:
            return rounds, problems
        problems += workload.check(rnd)
        if timed + rnd.wall_s > seconds or (tracer is not None and len(tracer) >= MAX_SPANS):
            return rounds, problems


def fastest_step_ms(rounds) -> float:
    """The fastest step of each kind, averaged over the kinds.

    On ``depth-sweep-line8`` the shortcut net does more work per epoch than
    the plain one, so both nets' fastest epochs count.
    """
    fastest: dict[str, float] = {}
    for r in rounds:
        for kind, steps in r.steps_ms.items():
            fastest[kind] = min([fastest.get(kind, float("inf")), *steps])
    return statistics.fmean(fastest.values())


def span_problems(tracer, rounds, step_span) -> list[str]:
    """Checks that the wrapped calls account for the traced rounds.

    The calls directly inside the rounds must cover all but
    ``MAX_UNTRACED_SHARE`` of their time, so the per-layer self times add up
    to the rounds' time. The share is taken over all rounds together, so that
    one preemption during the glue of one short round does not decide it.
    Where the program times its own epochs, those times must fit inside the
    ``step_span`` calls of their round.
    """
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    covered: dict[int, float] = {}
    in_step_span: dict[int, float] = {}
    root_of = roots(parents)
    for i, parent in enumerate(parents):
        if parent >= 0 and names[parent] == "bench.round":
            covered[parent] = covered.get(parent, 0.0) + ends[i] - starts[i]
        if names[i] == step_span:
            in_step_span[root_of[i]] = in_step_span.get(root_of[i], 0.0) + ends[i] - starts[i]
    problems = []
    total = sum(ends[r.span] - starts[r.span] for r in rounds)
    share = 1.0 - sum(covered.get(r.span, 0.0) for r in rounds) / total
    if share > MAX_UNTRACED_SHARE:
        problems.append(f"{share:.1%} of the traced rounds lies outside wrapped calls")
    for r in rounds:
        if step_span is not None and sum(r.all_steps_ms()) > in_step_span.get(r.span, 0.0) * 1e3:
            problems.append(f"round span {r.span}: epoch times exceed the {step_span} calls")
    return problems


def layer_metrics(tracer, untraced_rounds, traced_rounds, spec: list[dict]):
    """Per-layer metrics per step, from the spans inside each successful round."""
    root_of = roots(tracer.parents)
    counted = {r.span for r in traced_rounds}
    include = [root_of[i] in counted for i in range(len(tracer))]
    selves = self_times(tracer.starts, tracer.ends, tracer.parents)
    totals = aggregate(tracer.names, tracer.starts, tracer.ends, tracer.parents, selves, include)
    steps = sum(len(r.all_steps_ms()) for r in traced_rounds)

    special = {
        "cli.bytes_written": sum(r.bytes_written for r in traced_rounds) / steps,
        "trace.overhead_ms": fastest_step_ms(traced_rounds) - fastest_step_ms(untraced_rounds),
    }
    metrics = {}
    for entry in spec:
        name = entry["name"]
        if name in special:
            value = special[name]
        else:
            layer, kind = name.rsplit(".", 1)
            found = totals.get(layer, LayerTotals())
            raw = {"calls": found.calls, "ms": found.inclusive_s * 1000.0,
                   "self_ms": found.self_s * 1000.0}[kind]
            value = raw / steps
        metrics[name] = {"value": value, "unit": entry["unit"]}
    table = {
        name: {"calls_per_step": t.calls / steps, "ms_per_step": t.inclusive_s * 1000.0 / steps,
               "self_ms_per_step": t.self_s * 1000.0 / steps}
        for name, t in sorted(totals.items())
    }
    return metrics, table


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "resqnn" / "__init__.py").is_file():
        print(f"error: no resqnn sources under {SRC}", file=sys.stderr)
        return 2
    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.is_file():
        print(f"error: {bench_json} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 and not args.setup_only:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    out_root = OUT / (f"{args.workload}-setup" if args.setup_only else args.workload)
    # resqnn seeds its streams with non-negative integers
    workload = workloads.WORKLOADS[args.workload](args.seed % 2**31, out_root)
    workload.setup()
    if args.setup_only:
        print("ready", flush=True)
        return 0

    spec = json.loads(bench_json.read_text())
    env = environment(numpy)
    print("environment " + json.dumps(env, sort_keys=True))

    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": env}
    if args.trace == 0:
        setups: list[float] = []

        def time_setup(timed_s: float) -> None:
            # spread the set-ups evenly over the run
            due = len(setups) * args.seconds / SETUP_REPEATS
            if len(setups) < SETUP_REPEATS and timed_s >= due:
                setups.append(time_setup_in_fresh_interpreter(args))

        rounds, problems = measure(workload, args.seconds, 0, between=time_setup)
        while len(setups) < SETUP_REPEATS:
            time_setup(args.seconds)
        # Timings come from the rounds in which no operation failed only: a
        # failed round stops early and would otherwise read as the fastest.
        done = [r for r in rounds if r.failed == 0]
        if done:
            steps = [ms for r in done for ms in r.all_steps_ms()]
            values = {
                "setup_s": statistics.median(setups),
                "step_ms_min": fastest_step_ms(done),
                "round_s_min": min(r.wall_s for r in done),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            # The median and tail vary with the host's load; reported, not gated.
            report.update(step_ms_median=statistics.median(steps),
                          round_s_median=statistics.median([r.wall_s for r in done]),
                          steps=len(steps))
            if len(steps) >= P90_MIN_STEPS:
                report["step_ms_p90"] = statistics.quantiles(steps, n=10, method="inclusive")[-1]
        report.update(setup_runs_s=setups, round_s=[r.wall_s for r in rounds],
                      round_steps_ms=[r.steps_ms for r in rounds])
    else:
        from resqnn import cli, cost, graphdata, netcore, qlinalg, svgplot, trainer

        untraced, problems = measure(workload, args.seconds / 2, 0)
        tracer = Tracer()
        instrument(tracer, [qlinalg, netcore, cost, graphdata, trainer, svgplot, cli])
        traced, traced_problems = measure(workload, args.seconds / 2, len(untraced), tracer)
        problems += traced_problems
        rounds = untraced + traced
        untraced_done = [r for r in untraced if r.failed == 0]
        traced_done = [r for r in traced if r.failed == 0]
        if untraced_done and traced_done:
            problems += span_problems(tracer, traced_done, workload.step_span)
            metrics, table = layer_metrics(tracer, untraced_done, traced_done, spec["per_layer"])
            report.update(layers=table, steps=sum(len(r.all_steps_ms()) for r in traced_done))
        tracer.write(out_root / "spans.csv.gz")
        report["spans"] = len(tracer)

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if failed:
        # No operation of any workload is expected to fail.
        problems.append(f"{failed} of {attempted} operations failed")
    if "steps" not in report:
        metrics = {}
        problems.append("no round finished without a failure, so nothing was timed")
    report.update(metrics=metrics, attempted=attempted, failed=failed, problems=problems)
    (out_root / "result.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, unit in (("step_ms_median", "ms"), ("step_ms_p90", "ms"), ("round_s_median", "s")):
        if name in report:
            print(f"{name} = {report[name]:.6g} {unit} (not gated)")
    print(f"steps = {report.get('steps', 0)}")
    print(f"rounds = {len(rounds)}, attempted = {attempted}, failed = {failed}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
