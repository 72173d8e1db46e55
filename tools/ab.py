#!/usr/bin/env python3
"""Paired A/B runs of the perf benchmark: this checkout against another.

For every workload and every pair, both checkouts run the committed
benchmark once on the same seed, each with its own ``src/`` and
``benchmarks/perf/`` (which are run as they are, never edited)::

    python3 benchmarks/perf/run.py --workload W --seed S --seconds T --scale SCALE --trace 0

The side that goes first alternates from pair to pair, so drift in the
machine's load falls on both sides alike. Each run's last stdout line (one
JSON object, the benchmark's result protocol) is parsed. Per end-to-end
metric the report gives both sides' medians and quartiles, the median of the
per-pair ratios (change over parent), the pairs the change won, a two-sided
sign-test p-value and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``worse``: the change's median is past the bound, in the metric's bad
  direction;
* ``gain``: the change won at least 9 of every 10 pairs and its median beats
  the parent's by more than the parent's interquartile range and by more
  than a millionth of the parent's median;
* ``unresolved``: the parent's runs are spread wider than the bound (IQR
  over median; range over median below four runs) and the change's runs do
  not all beat every parent run, so "no worse" cannot be told from noise;
* ``ok``: none of the above.

A metric the runs repeat exactly (``model_bytes``, the q-errors) has no
spread, so its interquartile range cannot tell a gain from float round-off;
the millionth-of-the-median floor does: a relative difference of 3e-8 on
``qerr_p95`` reads ``ok``, not ``gain``.

Run from the repository root::

    python3 tools/ab.py PARENT_CHECKOUT [--workload W]... [--pairs N]
        [--seeds A-B] [--seconds T] [--scale full|tiny]

``PARENT_CHECKOUT`` is any directory holding the repository, e.g. made with
``git clone``; ``.`` runs this checkout against itself. Without
``--workload`` every workload in ``BENCHMARK.json`` runs. ``--seeds A-B``
gives pair ``i`` seed ``A + i`` (inclusive range; it sets the number of
pairs); without it the pairs use seeds 1..N (N = ``--pairs``, default 10).
The last line is one JSON object; the exit status is 1 on any ``worse``
verdict or any failed run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
#: A ``gain`` needs the change to win at least this many of every 10 pairs.
GAIN_WINS_PER_10 = 9
#: A ``gain`` must also beat this share of the parent's median, so a metric
#: with no spread does not read round-off as a gain.
GAIN_REL_FLOOR = 1e-6
#: Pairs per workload without ``--pairs`` or ``--seeds``.
DEFAULT_PAIRS = 10


# ----------------------------------------------------------------------
# Statistics and verdicts
# ----------------------------------------------------------------------
def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p-value; tied pairs are left out."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)``; one value is its own quartiles."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """IQR over median (range over median below four runs, 0 for one run)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / abs(middle)


def judge(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> dict:
    """Per-metric summary of paired runs (``parent[i]`` and ``change[i]``
    share pair ``i``'s seed) and its verdict."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    # How far the change's median is past the parent's in the bad direction.
    worsening = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    gap = sign * (p_med - c_med)
    if worsening > bound:
        verdict = "worse"
    elif 10 * wins >= GAIN_WINS_PER_10 * len(parent) and gap > max(
        p_q3 - p_q1, GAIN_REL_FLOOR * abs(p_med)
    ):
        verdict = "gain"
    elif spread(parent) > bound and not (
        max(change) < min(parent) if better == "lower" else min(change) > max(parent)
    ):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "ratio_median": statistics.median(ratios) if ratios else None,
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "sign_p": sign_test_p(wins, losses),
        "verdict": verdict,
    }


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def parse_last_line(stdout: str) -> Optional[dict]:
    """The result object on the last non-blank stdout line, or None when
    that line is missing or is not a JSON object with ``metrics``."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return None
    return result


def run_once(checkout: Path, workload: str, seed: int, seconds: float, scale: str, out: str):
    """One untraced benchmark run in ``checkout``: ``(result or None,
    pinned_max_rel_dev or None, stderr tail)``."""
    command = [
        sys.executable, str(checkout / "benchmarks" / "perf" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--scale", scale, "--trace", "0", "--out", out,
    ]
    # The run pins itself and puts its own checkout's src/ first; a caller's
    # PYTHONPATH must not slip the other checkout's code in behind it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    result = parse_last_line(done.stdout) if done.returncode == 0 else None
    pinned = None
    document = Path(out) / f"{workload}.seed{seed}.trace0.json"
    if document.is_file():
        with open(document) as f:
            pinned = json.load(f).get("extra", {}).get("pinned_max_rel_dev")
    return result, pinned, done.stderr[-2000:]


def seed_list(pairs: Optional[int], seeds: Optional[str]) -> List[int]:
    """Pair ``i``'s seed: ``A + i`` over ``--seeds A-B``, else ``1 + i``."""
    if pairs is not None and pairs < 1:
        raise ValueError(f"--pairs {pairs}: need at least one pair")
    if seeds is None:
        return list(range(1, (pairs or DEFAULT_PAIRS) + 1))
    lo, _, hi = seeds.partition("-")
    first, last = int(lo), int(hi or lo)
    if last < first:
        raise ValueError(f"empty seed range {seeds!r}")
    chosen = list(range(first, last + 1))
    if pairs is not None and pairs != len(chosen):
        raise ValueError(f"--pairs {pairs} disagrees with --seeds {seeds} ({len(chosen)} seeds)")
    return chosen


def run_workload(checkouts: Dict[str, Path], workload: str, seeds: Sequence[int], args, tmp: str):
    """Every pair of one workload: per side, the parsed results in pair order
    (None for a failed run) and the pinned-seed deviations seen."""
    results = {side: [] for side in SIDES}
    pinned = {side: [] for side in SIDES}
    for i, seed in enumerate(seeds):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            out = os.path.join(tmp, f"{side}-{workload}-{seed}")
            result, dev, stderr = run_once(
                checkouts[side], workload, seed, args.seconds, args.scale, out
            )
            if result is None:
                print(f"  {side} {workload} seed {seed}: run failed\n{stderr}", file=sys.stderr)
            results[side].append(result)
            if dev is not None:
                pinned[side].append(dev)
            print(f"  pair {i + 1}/{len(seeds)} seed {seed}: {side} done", file=sys.stderr)
    return results, pinned


def summarize(workload: str, results: dict, pinned: dict, bounds: Dict[str, dict]) -> dict:
    """Verdicts over the pairs where both sides produced a result."""
    both = [i for i, p in enumerate(results["parent"]) if p and results["change"][i]]
    runs = {side: [results[side][i] for i in both] for side in SIDES}
    metrics = {}
    for name, metric in bounds.items():
        if not all(name in run["metrics"] for side in SIDES for run in runs[side]) or not both:
            continue
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        metrics[name] = judge(values["parent"], values["change"], metric["better"], metric["bound"])
    return {
        "workload": workload,
        "pairs": len(results["parent"]),
        # A run whose own checks fail exits non-zero, so it counts here.
        "failed_runs": {side: sum(r is None for r in results[side]) for side in SIDES},
        "failed_ops": {side: sum(r.get("failed", 0) for r in results[side] if r) for side in SIDES},
        "pinned_max_rel_dev": {side: max(pinned[side], default=None) for side in SIDES},
        "metrics": metrics,
    }


def format_summary(summary: dict) -> List[str]:
    lines = [
        f"{summary['workload']}: {summary['pairs']} pairs, failed runs "
        f"{summary['failed_runs']['parent']}/{summary['failed_runs']['change']}, failed ops "
        f"{summary['failed_ops']['parent']}/{summary['failed_ops']['change']}, pinned max rel "
        f"dev {summary['pinned_max_rel_dev']['parent']}/{summary['pinned_max_rel_dev']['change']}"
        " (parent/change)",
        f"  {'metric':<16} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
        f"{'ratio':>7} {'won':>6} {'sign p':>7}  verdict",
    ]
    for name, m in summary["metrics"].items():
        quart = {
            side: "/".join(f"{m[side][k]:.4g}" for k in ("q1", "median", "q3")) for side in SIDES
        }
        ratio = "-" if m["ratio_median"] is None else f"{m['ratio_median']:.3f}"
        lines.append(
            f"  {name:<16} {quart['parent']:>32} {quart['change']:>32} {ratio:>7} "
            f"{m['wins']:>2}/{m['pairs']:<3} {m['sign_p']:7.3f}  {m['verdict']}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout to compare against")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--pairs", type=int, default=None)
    parser.add_argument("--seeds", default=None, help="inclusive range A-B")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json")
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    names = [w["name"] for w in benchmark["workloads"]]
    workloads = args.workload or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}")
    try:
        seeds = seed_list(args.pairs, args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    if args.seconds is None:
        args.seconds = float(benchmark["run_seconds"])
    parent = Path(args.parent).resolve()
    if not (parent / "benchmarks" / "perf" / "run.py").is_file():
        parser.error(f"{parent} holds no benchmarks/perf/run.py")
    checkouts = {"parent": parent, "change": ROOT}
    bounds = {m["name"]: m for m in benchmark["end_to_end"] if "bound" in m}

    summaries = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        for workload in workloads:
            results, pinned = run_workload(checkouts, workload, seeds, args, tmp)
            summaries.append(summarize(workload, results, pinned, bounds))
    print(f"change {ROOT} against parent {parent}; seeds {seeds[0]}-{seeds[-1]}, "
          f"{args.seconds:g} s, scale {args.scale}")
    for summary in summaries:
        print("\n".join(format_summary(summary)))
    verdicts = [m["verdict"] for s in summaries for m in s["metrics"].values()]
    tally = {v: verdicts.count(v) for v in ("gain", "ok", "unresolved", "worse")}
    failed = sum(sum(s["failed_runs"].values()) for s in summaries)
    print(", ".join(f"{count} {v}" for v, count in tally.items()) + f"; {failed} failed runs")
    print(json.dumps({"seeds": seeds, "verdicts": tally, "failed_runs": failed,
                      "workloads": summaries}, sort_keys=True))
    return 1 if tally["worse"] or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
