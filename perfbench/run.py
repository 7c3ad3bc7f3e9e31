#!/usr/bin/env python3
"""Benchmark of overpart: exact table, paper-desk campaign, certified series.

Run from the repository root, one workload per command::

    python3 perfbench/run.py --workload desk-campaign --seed 1 --seconds 25 --trace 0

The workloads, metrics and correctness references are described in
perfbench/README.md; metric names, units and bounds are declared in
BENCHMARK.json, the single place this script reads them from.

One process runs one workload in a closed loop with one caller: set-up is
repeated ``SETUP_REPEATS`` times, then iterations run back to back until
``--seconds`` have passed (at least one).  Every iteration's output is checked
against ``references.json``; an operation that raises or differs counts as
failed.  ``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same untraced loop, then a traced loop of the same length and the kernel
probe, and prints the per-layer metrics derived from the spans.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give provenance and each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
from workloads import (DESK_CALLS, KERNEL_CHECKS, KERNEL_SLICE, RUNGS, WORKLOADS, Context,
                       kernel_probe)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
MIN_COVERAGE = 0.95  # share of a traced iteration its layer spans must cover

IMPORT_TIMER = ("import time; start = time.perf_counter(); import overpart; "
                "print(time.perf_counter() - start)")


def import_overpart():
    """Import overpart from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "overpart" / "__init__.py").is_file():
        sys.exit(f"perfbench: no overpart sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import overpart
    import overpart.cli
    if Path(overpart.__file__).resolve().parent != SRC / "overpart":
        sys.exit(f"perfbench: imported overpart from {overpart.__file__}, not {SRC}")
    return overpart, overpart.cli


def import_seconds() -> float:
    """Time ``import overpart`` in a fresh interpreter, as a CLI user pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(op) -> dict:
    import mpmath
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "overpart": op.__version__,
        "git_commit": git_commit(),
    }


def run_setup(workload, ctx: Context) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        with ctx.tracer.span("setup"):
            seconds = import_seconds()
            start = time.perf_counter()
            workload.setup(ctx)
            seconds += time.perf_counter() - start
        times.append(seconds)
    return times


def measure(workload, ctx: Context, seconds: float, traced: bool) -> list:
    """Closed loop: one iteration after another until ``seconds`` have passed."""
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        outcome = None
        with ctx.tracer.span("iteration"):
            began = time.perf_counter()
            try:
                outcome = workload.run(ctx, traced)
            except Exception:  # a raising iteration is counted, the loop goes on
                traceback.print_exc()
            times.append(time.perf_counter() - began)
        if outcome is None:
            ctx.tally.record(workload.ops, workload.ops, f"{workload.name} iteration raised")
        else:
            workload.check(ctx, outcome)
    return times


def layer_metrics(recorded: list, ctx: Context, plain: list, traced: list) -> dict:
    seconds = spans.layer_seconds
    metrics = {
        "exact_core.build_s": seconds(recorded, ["exact_core.build_table"]),
        "exact_core.save_s": seconds(recorded, ["exact_core.save_table"]),
        "exact_core.load_s": seconds(recorded, ["exact_core.load_table"]),
        "cli.render_s": seconds(recorded, ["cli.records_from_results", "cli.write_report"]),
        "asymptotics.truncation_s": seconds(recorded, ["asymptotics.rademacher_truncation"]),
        "asymptotics.bound_s": seconds(recorded, ["asymptotics.truncation_error_bound"]),
        "verifiers.lambda_s": seconds(recorded, ["verifiers.solve_lambda_table"]),
        "trace_overhead_s": statistics.median(traced) - statistics.median(plain),
    }
    for name, *_ in DESK_CALLS:
        metrics[f"verifiers.{name}.s"] = seconds(recorded, [f"verifiers.{name}"])
    for name, *_ in KERNEL_CHECKS:
        for bits in RUNGS:
            per_call = seconds(recorded, [f"kernel.{name}.{bits}"])
            metrics[f"kernel.{name}.{bits}.us"] = per_call / KERNEL_SLICE * 1e6
    covered = [spans.coverage(recorded, root) for root in spans.roots(recorded, "iteration")]
    for share in covered:
        ctx.tally.check(share >= MIN_COVERAGE,
                        f"layer spans cover only {share:.3f} of a traced iteration")
    metrics["trace_coverage"] = statistics.median(covered)
    return metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    op, cli = import_overpart()
    workload = WORKLOADS[args.workload]()
    refs = json.loads((BENCH_DIR / "references.json").read_text())[workload.name]
    work = OUT / workload.name
    work.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    ctx = Context(op=op, cli=cli, work=work, refs=refs, tracer=tracer)
    info = provenance(op)
    print("provenance " + json.dumps(info, sort_keys=True), flush=True)

    setup = run_setup(workload, ctx)
    ctx.tracer = spans.NullTracer()
    plain = measure(workload, ctx, args.seconds, traced=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(plain)
    print(f"{workload.name}: seed {args.seed}, {len(plain)} untraced iterations, "
          f"wall_s median {wall_s:.4f} min {min(plain):.4f} max {max(plain):.4f}")

    traced = []
    if args.trace:
        ctx.tracer = tracer
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.jsonl"
        try:
            traced = measure(workload, ctx, args.seconds, traced=True)
            kernel_probe(ctx, args.seed)
        finally:
            tracer.write(spans_path)
        print(f"{len(traced)} traced iterations; {len(tracer.spans)} spans written to "
              f"{spans_path.relative_to(ROOT)}")
        values = layer_metrics(tracer.spans, ctx, plain, traced)
        declared = spec["per_layer"]
        unknown = set(ctx.counts) - {m["name"] for m in declared}
        if unknown:
            raise KeyError(f"counts not declared in BENCHMARK.json: {sorted(unknown)}")
        # Counts of layers this workload does not run stay 0.
        values.update({m["name"]: ctx.counts.get(m["name"], 0)
                       for m in declared if m["name"] not in values})
    else:
        declared = spec["end_to_end"]
        error_rate = ctx.tally.failed / ctx.tally.attempted
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "items_per_s": workload.items / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "success_rate": 1.0 - error_rate,
        }
        print(f"error_rate {error_rate!r} ratio "
              f"({ctx.tally.failed} of {ctx.tally.attempted} operations failed)")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    for message in ctx.tally.messages:
        print(f"FAILED: {message}")
    result = {"correct": ctx.tally.failed == 0, "attempted": ctx.tally.attempted,
              "failed": ctx.tally.failed, "metrics": metrics}
    record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, provenance=info, setup_times=setup,
                  iteration_times=plain, traced_iteration_times=traced,
                  failures=ctx.tally.messages)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
