#!/usr/bin/env python3
"""Compare this checkout with another on the perf fixture: answers, fit, bytes.

The parity check behind every "answers moved by at most x" claim in
CHANGES.md. Each checkout runs in its own subprocess with the benchmark's
pinned environment (one BLAS thread, ``PYTHONHASHSEED=0``) and its own
``src/`` and ``benchmarks/perf/fixture.py`` (imported read-only, as
``tools/profile_walk.py`` does). A side fits the fixture model and records:

* pinned-seed answers to the fixture's evaluation queries (query ``i`` on
  stream ``EVAL_SEED + i``): the sequential engine loop and
  ``estimate_batch`` at batch 1, 8 and 32;
* the fit's per-step losses and every trained parameter array;
* the in-process refresh path: the fitted model cloned with
  ``clone_estimator`` and updated on the same schema with
  ``REFRESH_TUPLES`` tuples, then its pinned-seed answers (``refresh``,
  batch 8), the refresh's own losses and the refreshed parameters;
* ``model_bytes`` (``NeuroCard.size_bytes``) and the compiled kernel table's
  entries with their shapes and bytes.

The report gives each answer set's maximum relative deviation and whether
the two sides are ``array_equal``, each side's batched-against-sequential
deviation, whether losses and parameters (of the fit and of the refresh)
are bitwise equal, both
``model_bytes`` and the table entries added, removed or resized. Its last
line is one JSON object.

Run from the repository root::

    python tools/digest.py PARENT_CHECKOUT [--scale full|tiny] [--require-equal]

``PARENT_CHECKOUT`` is any directory holding the repository, e.g. made with
``git clone``; ``.`` compares this checkout with itself.
``--require-equal`` exits 1 unless every answer, the fit and the table are
identical on both sides.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: What the benchmark pins in every process it starts (benchmarks/perf/spec.py).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

BATCH_SIZES = (1, 8, 32)
ANSWER_SETS = ("sequential",) + tuple(f"b{size}" for size in BATCH_SIZES) + ("refresh",)

#: Tuples the refresh trains on: four steps of the fixture's 512-row batch.
REFRESH_TUPLES = 2048


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------
def max_rel_dev(got: Sequence[float], want: Sequence[float]) -> float:
    """Largest ``|got - want| / |want|``; a pair of zeros deviates by 0 and
    a nonzero against a zero by ``inf``."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise ValueError(f"shape mismatch: {got.shape} vs {want.shape}")
    if got.size == 0:
        return 0.0
    diff = np.abs(got - want)
    scale = np.abs(want)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / scale)
    return float(rel.max())


def compare_answers(parent: Dict[str, np.ndarray], change: Dict[str, np.ndarray]) -> dict:
    """name -> ``{"max_rel_dev", "equal"}`` of the change against the parent."""
    return {
        name: {
            "max_rel_dev": max_rel_dev(change[name], parent[name]),
            "equal": bool(np.array_equal(change[name], parent[name])),
        }
        for name in parent
    }


def batched_vs_sequential(answers: Dict[str, np.ndarray]) -> Dict[str, float]:
    """One side's ``b<k>`` answers against its own sequential loop."""
    return {
        f"b{size}": max_rel_dev(answers[f"b{size}"], answers["sequential"])
        for size in BATCH_SIZES
    }


def arrays_equal(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> bool:
    """Same count, and every pair equal in shape, dtype and every bit of value."""
    return len(a) == len(b) and all(
        x.shape == y.shape and x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in zip(a, b)
    )


def table_diff(parent: Dict[str, dict], change: Dict[str, dict]) -> dict:
    """Kernel-table entries (``name -> {"shape", "dtype", "nbytes"}``) added,
    removed or resized, with their bytes, and both totals."""
    return {
        "parent_bytes": sum(entry["nbytes"] for entry in parent.values()),
        "change_bytes": sum(entry["nbytes"] for entry in change.values()),
        "added": {n: change[n]["nbytes"] for n in change if n not in parent},
        "removed": {n: parent[n]["nbytes"] for n in parent if n not in change},
        "resized": {
            n: [parent[n]["nbytes"], change[n]["nbytes"]]
            for n in parent
            if n in change
            and (parent[n]["shape"], parent[n]["dtype"])
            != (change[n]["shape"], change[n]["dtype"])
        },
    }


def compare_training(parent: dict, change: dict, prefix: str) -> dict:
    """Bitwise comparison of one training run's ``<prefix>losses`` and
    ``<prefix>params`` on both sides."""
    losses = [parent[f"{prefix}losses"], change[f"{prefix}losses"]]
    params = [parent[f"{prefix}params"], change[f"{prefix}params"]]
    return {
        "losses_equal": bool(
            np.array_equal(*losses) and losses[0].dtype == losses[1].dtype
        ),
        "params_equal": arrays_equal(*params),
        "n_losses": [len(side) for side in losses],
        "n_params": [len(side) for side in params],
    }


def digest(parent: dict, change: dict) -> dict:
    """The report's JSON object from two sides' records (see :func:`collect`)."""
    answers = compare_answers(parent["answers"], change["answers"])
    fit = compare_training(parent, change, "")
    refresh = compare_training(parent, change, "refresh_")
    table = table_diff(parent["table"], change["table"])
    all_equal = (
        all(entry["equal"] for entry in answers.values())
        and all(run["losses_equal"] and run["params_equal"] for run in (fit, refresh))
        and parent["model_bytes"] == change["model_bytes"]
        and not (table["added"] or table["removed"] or table["resized"])
    )
    return {
        "scale": change["scale"],
        "queries": len(change["answers"]["sequential"]),
        "answers": answers,
        "max_answer_rel_dev": max(entry["max_rel_dev"] for entry in answers.values()),
        "batched_vs_sequential": {
            "parent": batched_vs_sequential(parent["answers"]),
            "change": batched_vs_sequential(change["answers"]),
        },
        "fit": fit,
        "refresh": refresh,
        "model_bytes": {"parent": parent["model_bytes"], "change": change["model_bytes"]},
        "table": table,
        "all_equal": bool(all_equal),
    }


# ----------------------------------------------------------------------
# One side, in its own pinned process
# ----------------------------------------------------------------------
def collect(scale: str) -> dict:
    """Fit the fixture with whatever ``repro`` and ``fixture`` are importable
    and record what :func:`digest` compares."""
    import fixture
    from repro.core.inference import compiled_model
    from repro.core.refresh import clone_estimator
    from repro.workloads import job_light_ranges_queries

    fx = fixture.build_fixture(1, scale)
    model = fx.model
    engine = model.inference
    n_samples = model.config.progressive_samples
    queries = job_light_ranges_queries(
        fx.schema, n=fixture.N_EVAL_QUERIES, seed=fixture.EVAL_SEED, counts=fx.counts
    )

    def streams(lo, n):
        return [np.random.default_rng(fixture.EVAL_SEED + lo + j) for j in range(n)]

    answers = {
        "sequential": [
            engine.estimate(q, n_samples=n_samples, rng=rng)
            for q, rng in zip(queries, streams(0, len(queries)))
        ]
    }
    def batched(engine, size):
        out = []
        for lo in range(0, len(queries), size):
            batch = queries[lo : lo + size]
            rngs = streams(lo, len(batch))
            out.extend(engine.estimate_batch(batch, n_samples=n_samples, rngs=rngs))
        return out

    for size in BATCH_SIZES:
        answers[f"b{size}"] = batched(engine, size)
    table = {
        name: {"shape": list(a.shape), "dtype": str(a.dtype), "nbytes": int(a.nbytes)}
        for name, a in compiled_model(engine).export_state().items()
    }
    n_fit_losses = len(model.train_result.losses)
    refreshed = clone_estimator(model)
    refreshed.update(fx.schema, train_tuples=REFRESH_TUPLES)
    answers["refresh"] = batched(refreshed.inference, 8)
    return {
        "scale": scale,
        "answers": {k: np.asarray(v, dtype=np.float64) for k, v in answers.items()},
        "losses": np.asarray(model.train_result.losses[:n_fit_losses]),
        "params": [p.value for p in model.model.parameters()],
        "refresh_losses": np.asarray(refreshed.train_result.losses[n_fit_losses:]),
        "refresh_params": [p.value for p in refreshed.model.parameters()],
        "model_bytes": int(model.size_bytes),
        "table": table,
    }


def save_side(record: dict, path: str) -> None:
    arrays = {f"answers::{k}": v for k, v in record["answers"].items()}
    for prefix in ("", "refresh_"):
        arrays[f"{prefix}losses"] = record[f"{prefix}losses"]
        arrays.update({f"{prefix}param::{i}": p for i, p in enumerate(record[f"{prefix}params"])})
    meta = {k: record[k] for k in ("scale", "model_bytes", "table")}
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def load_side(path: str) -> dict:
    with np.load(path) as data:
        record = json.loads(str(data["meta"]))
        record["answers"] = {name: data[f"answers::{name}"] for name in ANSWER_SETS}
        for prefix in ("", "refresh_"):
            record[f"{prefix}losses"] = data[f"{prefix}losses"]
            n_params = sum(1 for key in data.files if key.startswith(f"{prefix}param::"))
            record[f"{prefix}params"] = [data[f"{prefix}param::{i}"] for i in range(n_params)]
    return record


def run_side(checkout: Path, scale: str, out: str) -> None:
    """Run :func:`collect` on ``checkout``'s code in a pinned subprocess."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(checkout / "src"), str(checkout / "benchmarks" / "perf")]
    )
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--side", str(checkout),
         "--scale", scale, "--out", out],
        env=env, cwd=checkout, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: side run failed\n{done.stderr}")


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------
def report(result: dict, parent: Path) -> List[str]:
    lines = [
        f"digest of {ROOT} against {parent} "
        f"(scale {result['scale']}, {result['queries']} queries)",
        "answers vs parent       max rel dev   array_equal",
    ]
    for name, entry in result["answers"].items():
        lines.append(f"  {name:20s} {entry['max_rel_dev']:12.3g}   {entry['equal']}")
    lines.append("batched vs sequential   parent        change")
    sides = result["batched_vs_sequential"]
    for name in sides["change"]:
        lines.append(f"  {name:20s} {sides['parent'][name]:12.3g}  {sides['change'][name]:12.3g}")
    for name in ("fit", "refresh"):
        run = result[name]
        lines.append(
            f"{name}: losses bitwise equal {run['losses_equal']} ({run['n_losses'][1]} steps), "
            f"parameters bitwise equal {run['params_equal']} ({run['n_params'][1]} arrays)"
        )
    mb = result["model_bytes"]
    lines.append(f"model_bytes: parent {mb['parent']}, change {mb['change']}")
    table = result["table"]
    lines.append(
        f"kernel table: parent {table['parent_bytes']} B, change {table['change_bytes']} B"
    )
    for name, nbytes in table["added"].items():
        lines.append(f"  + {name} {nbytes} B")
    for name, nbytes in table["removed"].items():
        lines.append(f"  - {name} {nbytes} B")
    for name, (was, now) in table["resized"].items():
        lines.append(f"  ~ {name} {was} -> {now} B")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="checkout to compare against")
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    parser.add_argument("--require-equal", action="store_true")
    parser.add_argument("--side", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.side:
        save_side(collect(args.scale), args.out)
        return 0
    if not args.parent:
        parser.error("PARENT_CHECKOUT is required")
    parent = Path(args.parent).resolve()
    if not (parent / "benchmarks" / "perf" / "fixture.py").is_file():
        parser.error(f"{parent} holds no benchmarks/perf/fixture.py")
    with tempfile.TemporaryDirectory(prefix="digest-") as tmp:
        paths = {side: os.path.join(tmp, f"{side}.npz") for side in ("parent", "change")}
        run_side(parent, args.scale, paths["parent"])
        run_side(ROOT, args.scale, paths["change"])
        result = digest(load_side(paths["parent"]), load_side(paths["change"]))
    print("\n".join(report(result, parent)))
    print(json.dumps(result, sort_keys=True))
    return 1 if args.require_equal and not result["all_equal"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
