"""What the benchmark is, read from ``BENCHMARK.json`` (stdlib only).

``run.py`` imports this before the environment is pinned, so nothing here
may import NumPy or the library under test.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, List

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent
SRC_DIR = REPO_ROOT / "src"
DEFAULT_OUT = PERF_DIR / "out"

#: Set in every process the benchmark starts, before NumPy is imported:
#: one BLAS thread (two client threads + a server already fill 2 cores)
#: and a fixed string-hash seed (set iteration order reaches plan keys).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def pinned_environment() -> Dict[str, str]:
    """``os.environ`` plus the pins, with ``src/`` and this directory
    importable (the server subprocess and spawned pool workers inherit it)."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    paths = [str(SRC_DIR), str(PERF_DIR)]
    paths += [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p and p not in paths]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def is_pinned() -> bool:
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return str(SRC_DIR) in paths and all(
        os.environ.get(key) == value for key, value in PINNED_ENV.items()
    )


def load() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def workload_names(spec: dict) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def metric_table(spec: dict) -> Dict[str, dict]:
    """name -> {"unit", "better", "bound" (end-to-end only), "kind"}."""
    table: Dict[str, dict] = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in spec[kind]:
            table[metric["name"]] = {**metric, "kind": kind}
    return table
