"""Printing results, comparing two result sets, and the harness self-test.

Standard library only: ``--compare`` has to work on result directories
copied from anywhere, without the library under test being importable.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence

import spec


def format_run(document: dict, table: Dict[str, dict]) -> str:
    """Every metric of one run by name, with unit, direction and bound."""
    kind = "per_layer" if document["trace"] else "end_to_end"
    lines = [
        f"{document['workload']}  seed={document['seed']} trace={document['trace']} "
        f"seconds={document['seconds']}  attempted={document['attempted']} "
        f"failed={document['failed']}  {'ok' if document['correct'] else 'CHECKS FAILED'}",
        f"  {'metric':<42} {'value':>14}  {'unit':<8} {'better':<7} bound",
    ]
    for name, value in document[kind].items():
        metric = table[name]
        bound = f"{metric['bound']:.0%}" if "bound" in metric else "-"
        lines.append(
            f"  {name:<42} {value:>14.4f}  {metric['unit']:<8} {metric['better']:<7} {bound}"
        )
    stages = document["extra"].get("setup_stages_s", {})
    if stages:
        parts = ", ".join(f"{name} {seconds:.2f}" for name, seconds in stages.items())
        lines.append(f"  setup stages (s): {parts}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def load_results(directory: Path) -> List[dict]:
    results = []
    for path in sorted(directory.glob("*.trace[01].json")):
        with open(path) as f:
            results.append(json.load(f))
    if not results:
        raise SystemExit(f"no result files (*.trace0.json / *.trace1.json) in {directory}")
    return results


def collect(results: Sequence[dict]) -> Dict[tuple, List[float]]:
    """(metric, workload) -> values across the runs of one result set."""
    values: Dict[tuple, List[float]] = {}
    for document in results:
        kind = "per_layer" if document["trace"] else "end_to_end"
        for name, value in document[kind].items():
            values.setdefault((name, document["workload"]), []).append(value)
    return values


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (range over median below four
    runs; zero for a single run, which has no spread to show)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one end-to-end (metric, workload).

    Worse: the new median is past the bound. Unresolved: the runs of either
    side are spread wider than the bound, so "no worse" cannot be told from
    noise - unless every new run beats every base run.
    """
    base_median, new_median = statistics.median(base), statistics.median(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (new_median - base_median) / abs(base_median) if base_median else 0.0
    if change > bound:
        return "worse"
    if max(spread(base), spread(new)) > bound:
        dominates = max(new) < min(base) if better == "lower" else min(new) > max(base)
        return "ok" if dominates else "unresolved"
    return "ok"


def compare(dir_a: Path, dir_b: Path, benchmark: dict) -> int:
    """One row per (metric, workload): A, B, B/A, verdict. Exit 1 on ``worse``."""
    table = spec.metric_table(benchmark)
    a, b = collect(load_results(dir_a)), collect(load_results(dir_b))
    print(f"A = {dir_a}\nB = {dir_b}   (ratio = B/A, base A; medians over each side's runs)")
    print(f"{'metric':<42} {'workload':<20} {'A':>12} {'B':>12} {'B/A':>7}  verdict")
    tally = {"ok": 0, "worse": 0, "unresolved": 0}
    for name, workload in sorted(set(a) & set(b), key=lambda key: (key[1], key[0])):
        metric = table.get(name)
        if metric is None:
            continue
        base, new = a[(name, workload)], b[(name, workload)]
        base_median, new_median = statistics.median(base), statistics.median(new)
        ratio = f"{new_median / base_median:7.3f}" if base_median else "      -"
        result = "-"
        if "bound" in metric:
            result = verdict(base, new, metric["better"], metric["bound"])
            tally[result] += 1
        print(
            f"{name:<42} {workload:<20} {base_median:>12.4f} {new_median:>12.4f} {ratio}  {result}"
        )
    only = sorted(set(a) ^ set(b))
    if only:
        print(f"{len(only)} (metric, workload) pairs are in one side only; not compared")
    print(", ".join(f"{count} {result}" for result, count in tally.items()))
    return 1 if tally["worse"] else 0


# ----------------------------------------------------------------------
# --selftest
# ----------------------------------------------------------------------
SELFTEST_SEED = 3


def check_output(workload: str, stdout: str, out: Path, expected: Dict[str, set]) -> List[str]:
    """What is wrong with one traced run's result line, result file and spans."""
    from tracing import dangling_parents, read_spans

    problems = []
    line = json.loads(stdout.strip().splitlines()[-1])
    with open(out / f"{workload}.seed{SELFTEST_SEED}.trace1.json") as f:
        document = json.load(f)
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result line has keys {sorted(line)}")
    for kind, names in (("per_layer", line["metrics"]), ("end_to_end", document["end_to_end"])):
        if set(names) != expected[kind]:
            odd = sorted(set(names) ^ expected[kind])
            problems.append(f"{kind} names differ from BENCHMARK.json: {odd}")
    if line["attempted"] < 1 or not line["correct"]:
        problems.append(f"attempted={line['attempted']} correct={line['correct']}")
    for spans_file in sorted(out.glob(f"{workload}.*spans.jsonl")):
        spans = read_spans(spans_file)
        dangling = dangling_parents(spans)
        if not spans or dangling:
            problems.append(f"{spans_file.name}: {len(spans)} spans, {dangling} dangling parents")
    return problems


def selftest(benchmark: dict) -> int:
    """Tiny-scale traced run of every workload, then structural checks.

    Checks: names in the output match the contract's pattern and equal the
    set in BENCHMARK.json (both ways), every workload attempted calls and
    passed its own output checks, every span file parses and no span names
    a parent that is missing.
    """
    started = time.perf_counter()
    table = spec.metric_table(benchmark)
    expected = {
        kind: {name for name, metric in table.items() if metric["kind"] == kind}
        for kind in ("end_to_end", "per_layer")
    }
    problems = [
        f"name {name!r} does not match {spec.NAME_RE.pattern}"
        for name in list(table) + spec.workload_names(benchmark)
        if not spec.NAME_RE.match(name)
    ]
    spec.DEFAULT_OUT.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="selftest-", dir=spec.DEFAULT_OUT))
    try:
        for workload in spec.workload_names(benchmark):
            command = [sys.executable, str(spec.PERF_DIR / "run.py"), "--workload", workload]
            command += ["--seed", str(SELFTEST_SEED), "--seconds", "4", "--trace", "1"]
            command += ["--scale", "tiny", "--out", str(out)]
            done = subprocess.run(
                command, env=spec.pinned_environment(), capture_output=True, text=True
            )
            if done.returncode != 0:
                problems.append(f"{workload}: exit {done.returncode}\n{done.stderr[-2000:]}")
            else:
                found = check_output(workload, done.stdout, out, expected)
                problems += [f"{workload}: {problem}" for problem in found]
            print(f"selftest {workload}: {time.perf_counter() - started:5.1f} s elapsed")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}", file=sys.stderr)
    print(f"selftest: {len(problems)} problems in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0
