#!/usr/bin/env python3
"""Where one progressive-sampling walk spends its time.

The recipe behind the walk numbers quoted in ROADMAP.md and CHANGES.md, on
the perf benchmark's own fixture (``benchmarks/perf/fixture.py``, imported
read-only: the fp32 model every workload serves and its 512 range-join
queries), under the benchmark's pinned environment (one BLAS thread,
``PYTHONHASHSEED=0``; ``tools/digest.py``'s ``PINNED_ENV``): run without
it, the tool re-executes itself once with it set. The header prints the
pins. Four sections:

1. median milliseconds per query of ``estimate_batch`` at batch sizes 1, 2,
   8 and 32, nothing instrumented;
2. interpreter-level calls (Python and C functions, as ``cProfile`` counts
   them) per batch-of-1 estimate;
3. a phase table at batch 1 and 32: the walk's functions are wrapped with a
   clock that charges every nanosecond to the innermost wrapped function
   running, so the rows add up to the wrapped total. The wrappers cost a few
   hundred nanoseconds per call themselves — read the shares, not the sum;
4. the working set at batch 1 and 32, walked on a fresh thread: the median
   and largest tracemalloc peak of one ``estimate_batch`` above what was
   already allocated, and the kernel's ``stats()["scratch_bytes"]`` that
   thread added (its kernel scratch plus its fold buffer).

Run from the repository root::

    python tools/profile_walk.py [--seed 1] [--scale full] [--queries 512]

Nothing is written; compare two checkouts by running it in each.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import statistics
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf")]

from digest import PINNED_ENV  # noqa: E402  (tools/ is this script's directory)

BATCH_SIZES = (1, 2, 8, 32)

#: phase -> the functions whose own time it collects, as (owner, attribute).
PHASES = {
    "probs: fold": [("session", "fold")],
    "probs: gather": [("session", "_prefix")],
    "probs: blocks": [("kernel", "_blocks")],
    "probs: head": [("session", "probs"), ("session", "probs_multi")],
    "probs: softmax": [("compiled", "_softmax_inplace")],
    "draw": [
        ("sampler", "_draw_class"),
        ("progressive", "_draw_interval"),
        ("progressive", "_draw_set"),
        ("progressive", "_draw_tilted"),
    ],
    "apply (uniforms, weigh, observe)": [("sampler", "_batch_column"), ("sampler", "_weigh")],
    "regroup (dedup ids)": [
        ("sampler", "_column_probs"),
        ("sampler", "_set_groups"),
        ("progressive", "_compress"),
        ("progressive", "_first_of"),
    ],
    "indicator run": [("sampler", "_indicator_run")],
    "step program, ops": [("sampler", "_run_batch_weights")],
    "plan, validate": [("sampler", "estimate_batch")],
}


def batches(queries, size):
    return [queries[lo : lo + size] for lo in range(0, len(queries), size)]


def run_batches(engine, queries, size, n_samples):
    """Seconds per query of every batch (pinned per-query streams)."""
    out = []
    for index, batch in enumerate(batches(queries, size)):
        rngs = [np.random.default_rng(1000 + index * size + j) for j in range(len(batch))]
        start = time.perf_counter()
        engine.estimate_batch(batch, n_samples=n_samples, rngs=rngs)
        out.append((time.perf_counter() - start) / len(batch))
    return out


class PhaseClock:
    """Self-time per wrapped function: time goes to the innermost one running."""

    def __init__(self):
        self.self_ns = {}
        self.calls = {}
        self._stack = []
        self._undo = []

    def wrap(self, owner, attribute, label):
        inner = getattr(owner, attribute)
        self.self_ns.setdefault(label, 0)
        self.calls.setdefault(label, 0)

        def timed(*args, **kwargs):
            now = time.perf_counter_ns()
            if self._stack:
                self._stack[-1][1] += now - self._stack[-1][2]
            frame = [label, 0, now]
            self._stack.append(frame)
            try:
                return inner(*args, **kwargs)
            finally:
                now = time.perf_counter_ns()
                self._stack.pop()
                self.self_ns[label] += frame[1] + now - frame[2]
                self.calls[label] += 1
                if self._stack:
                    self._stack[-1][2] = now

        original = owner.__dict__[attribute]
        static = isinstance(original, staticmethod)
        setattr(owner, attribute, staticmethod(timed) if static else timed)
        self._undo.append((owner, attribute, original))

    def restore(self):
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()


def phase_table(engine, queries, size, n_samples):
    from repro.core import progressive
    from repro.nn import compiled

    owners = {
        "session": compiled.FoldSession,
        "kernel": compiled.CompiledResMADE,
        "compiled": compiled,
        "sampler": progressive.ProgressiveSampler,
        "progressive": progressive,
    }
    clock = PhaseClock()
    for phase, functions in PHASES.items():
        for owner, attribute in functions:
            clock.wrap(owners[owner], attribute, phase)
    try:
        run_batches(engine, queries, size, n_samples)
    finally:
        clock.restore()
    total = sum(clock.self_ns.values())
    print(
        f"\nphases at batch {size} ({len(queries)} queries, wrapped total "
        f"{total / len(queries) / 1e6:.2f} ms per query)"
    )
    for phase in PHASES:
        share = clock.self_ns.get(phase, 0) / total
        per_query = clock.calls.get(phase, 0) / len(queries)
        print(f"  {phase:34s} {share:6.1%}   {per_query:7.1f} wrapped calls per query")


def working_set(engine, queries, size, n_samples):
    """``(median, max)`` tracemalloc peak of one batch above what was live
    when it started, and the ``scratch_bytes`` / fold-buffer bytes one fresh
    thread's walks added to the kernel (thread-local state starts empty)."""
    from repro.core.inference import compiled_model

    kernel = compiled_model(engine)
    found = {}

    def walk():
        before = kernel.stats()["scratch_bytes"]
        peaks = []
        tracemalloc.start()
        try:
            for index, batch in enumerate(batches(queries, size)):
                rngs = [np.random.default_rng(1000 + index * size + j) for j in range(len(batch))]
                tracemalloc.reset_peak()
                live = tracemalloc.get_traced_memory()[0]
                engine.estimate_batch(batch, n_samples=n_samples, rngs=rngs)
                peaks.append(tracemalloc.get_traced_memory()[1] - live)
        finally:
            tracemalloc.stop()
        fold = getattr(kernel._local, "fold", None)
        found.update(
            peak=(statistics.median(peaks), max(peaks)),
            scratch=kernel.stats()["scratch_bytes"] - before,
            fold=0 if fold is None else fold.nbytes,
        )

    thread = threading.Thread(target=walk)
    thread.start()
    thread.join()
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--queries", type=int, default=512)
    parser.add_argument("--rounds", type=int, default=3)
    args = parser.parse_args(argv)

    import fixture

    print("pinned: " + " ".join(f"{key}={os.environ.get(key)}" for key in PINNED_ENV))
    fx = fixture.build_fixture(args.seed, args.scale)
    engine = fx.model.inference
    n_samples = fx.model.config.progressive_samples
    queries = fx.queries[: args.queries]
    run_batches(engine, queries, 32, n_samples)  # warm kernels and caches

    print(
        f"median ms per query ({len(queries)} queries, {n_samples} samples, "
        f"{args.rounds} rounds, min-max of the round medians)"
    )
    per_size = {size: [] for size in BATCH_SIZES}
    for _ in range(args.rounds):
        for size in BATCH_SIZES:
            per_size[size].append(
                statistics.median(run_batches(engine, queries, size, n_samples)) * 1e3
            )
    for size, medians in per_size.items():
        spread = f"({min(medians):.2f}-{max(medians):.2f})"
        print(f"  b{size:<3d} {statistics.median(medians):6.2f}   {spread}")

    rngs = [np.random.default_rng(1000 + i) for i in range(len(queries))]
    profiler = cProfile.Profile()
    profiler.enable()
    for query, rng in zip(queries, rngs):
        engine.estimate_batch([query], n_samples=n_samples, rngs=[rng])
    profiler.disable()
    calls = pstats.Stats(profiler).total_calls / len(queries)
    print(f"\ninterpreter-level calls per batch-of-1 estimate: {calls:.0f}")

    for size in (1, 32):
        phase_table(engine, queries, size, n_samples)

    print(
        "\nworking set of one walking thread (tracemalloc peak of one batch above what "
        "was live, median / max; scratch_bytes the thread added = kernel scratch + fold buffer)"
    )
    for size in (1, 32):
        found = working_set(engine, queries, size, n_samples)
        median, largest = (peak / 1e6 for peak in found["peak"])
        scratch, fold = found["scratch"] / 1e6, found["fold"] / 1e6
        print(
            f"  b{size:<3d} peak {median:6.2f} / {largest:6.2f} MB   scratch_bytes "
            f"{scratch:6.2f} MB = kernel {scratch - fold:5.2f} + fold {fold:5.2f} MB"
        )
    return 0


if __name__ == "__main__":
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        # BLAS thread counts and the hash seed only take effect at
        # interpreter start: replace this process with a pinned one.
        os.execve(sys.executable, [sys.executable] + sys.argv, {**os.environ, **PINNED_ENV})
    raise SystemExit(main())
