"""The repo's one committed performance benchmark (see README.md here).

One run of one workload (what the PR driver invokes; prints the result as
the last line of stdout, one JSON object)::

    python3 benchmarks/perf/run.py --workload wire_neural --seed 1 --seconds 10 --trace 0

Every workload, each in a fresh process, untraced and (with ``--trace``)
traced; results land in ``--out`` and a table of every metric is printed::

    python3 benchmarks/perf/run.py --seed 1 [--trace] [--out DIR]

Judge one set of results against another, or check the harness itself::

    python3 benchmarks/perf/run.py --compare DIR_A DIR_B
    python3 benchmarks/perf/run.py --selftest
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import processes
import spec

#: Process start, as far as Python can see it; ``setup_s`` counts from here.
T0 = time.perf_counter()


def result_path(out: Path, workload: str, seed: int, trace: int) -> Path:
    return out / f"{workload}.seed{seed}.trace{trace}.json"


def run_one(args, benchmark: dict) -> int:
    """One workload in this process; the contract's result line goes last."""
    import report
    import workloads
    from fixture import environment

    table = spec.metric_table(benchmark)
    layer_names = [name for name, m in table.items() if m["kind"] == "per_layer"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, out, T0, layer_names
    )
    metrics = result.per_layer if args.trace else result.end_to_end
    document = {
        "workload": result.workload,
        "seed": result.seed,
        "trace": int(result.trace),
        "seconds": args.seconds,
        "scale": args.scale,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "violations": result.violations,
        "end_to_end": result.end_to_end,
        "per_layer": result.per_layer,
        "extra": result.extra,
        "environment": environment(),
    }
    with open(result_path(out, args.workload, args.seed, args.trace), "w") as f:
        json.dump(document, f, indent=2)
        f.write("\n")
    print(report.format_run(document, table))
    for violation in result.violations:
        print(f"CHECK FAILED: {violation}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": table[name]["unit"]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if result.correct else 1


def run_all(args, benchmark: dict) -> int:
    """Every requested workload in a fresh process of its own."""
    status = 0
    for name in spec.workload_names(benchmark):
        for trace in (0, 1) if args.trace else (0,):
            command = [sys.executable, str(Path(__file__).resolve())]
            command += ["--workload", name, "--seed", str(args.seed), "--trace", str(trace)]
            command += ["--seconds", str(args.seconds), "--scale", args.scale, "--out", args.out]
            status |= subprocess.run(command, env=spec.pinned_environment()).returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default=None, help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1, help="workload inputs derive from this")
    parser.add_argument("--seconds", type=float, default=None, help="measured time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", default=str(spec.DEFAULT_OUT), help="results and span files")
    parser.add_argument("--scale", default="full", choices=("full", "tiny"), help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two result directories")
    parser.add_argument("--selftest", action="store_true", help="check the harness (<= 60 s)")
    args = parser.parse_args()

    benchmark = spec.load()
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    if args.workload is not None and args.workload not in spec.workload_names(benchmark):
        parser.error(f"unknown workload {args.workload!r}")
    if args.compare:
        import report

        return report.compare(Path(args.compare[0]), Path(args.compare[1]), benchmark)
    if not (spec.SRC_DIR / "repro").is_dir():
        print(f"error: {spec.SRC_DIR}/repro not found; nothing to measure", file=sys.stderr)
        return 2
    if args.selftest:
        import report

        return report.selftest(benchmark)
    if args.workload is None:
        return run_all(args, benchmark)
    if not spec.is_pinned():
        # Thread counts and the hash seed only take effect at interpreter
        # start: replace this process with one that has them set.
        os.execve(sys.executable, [sys.executable] + sys.argv, spec.pinned_environment())
    # Whatever way this run ends, every process it started has ended first.
    processes.adopt_orphans()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run_one(args, benchmark)
    finally:
        processes.reap_all()


if __name__ == "__main__":
    sys.exit(main())
