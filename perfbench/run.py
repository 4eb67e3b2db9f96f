"""Benchmark entry point: one workload per fresh process, one JSON line out.

    python3 perfbench/run.py --workload comparison --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` first runs the
same workload untraced in a child process (for the tracing overhead), then
runs it traced and prints the per-layer metrics, writing every span and
count to ``perfbench/out/trace-<workload>-seed<seed>.json``. ``--workload
all`` runs each workload in its own child process and prints their results
plus one combined line. The last line of standard output is always the
result object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

BLAS_THREADS = "1"
WORKLOAD_NAMES = ("comparison", "pipeline")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child(workload: str, args, trace: int, echo: bool = True) -> dict:
    """Run one workload in a fresh interpreter and return its result object."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if echo:
        sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_all(args) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        result = child(workload, args, args.trace)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def run_one(args, origin: float) -> dict:
    untraced_total = None
    if args.trace:
        untraced_total = child(args.workload, args, 0, echo=False)["metrics"]["total_s"]["value"]
        origin = perf_counter()

    import workloads  # numpy and the benchmark's modules; timed as part of total_s

    workloads.import_typsgd()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        res = workloads.WORKLOADS[args.workload](args.seed, args.seconds, origin)
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        res.run_checks(res.checks)
    finally:
        res.cleanup()

    if tracer is None:
        metrics = res.metrics
    else:
        tracer.gauges.update(res.gauges)
        metrics, calls = tracing.layer_metrics(tracer)
        overhead = res.metrics["total_s"][0] - untraced_total
        metrics["trace.overhead_s"] = (overhead, "s")
        workloads.OUT.mkdir(exist_ok=True)
        path = workloads.OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(
            path,
            origin,
            {
                "workload": args.workload,
                "seed": args.seed,
                "traced_total_s": res.metrics["total_s"][0],
                "untraced_total_s": untraced_total,
                "per_call": calls,
            },
        )
        print(f"trace: {len(tracer.start)} spans -> {path}")
        for name, summary in calls.items():
            level = summary["tail_level"]
            tail = f"p{level:g} {summary['tail']:.4g}" if level is not None else "no tail (n < 40)"
            print(f"  {name}: median {summary['median']:.4g}, {tail}, n = {summary['n']}")

    for name, ok, detail in res.checks.results:
        if not ok:
            print(f"FAILED {args.workload} {name}: {detail}")
    failed = {name for name, ok, _ in res.checks.results if not ok}
    unexpected = failed - res.known_faults
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    return {
        "correct": not unexpected,
        "attempted": max(1, len(res.checks.results)),
        "failed": len(res.checks.failed()),
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    origin = perf_counter()
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    result = run_all(args) if args.workload == "all" else run_one(args, origin)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
