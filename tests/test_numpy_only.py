"""The package's only runtime dependency is NumPy.

scipy (the ``test`` extra, used by the opt-in DeepDB baseline) and networkx
are blocked in a fresh interpreter; every ``repro`` module must still
import, and a small model must still fit and answer through the cascade and
the degraded-mode fallback without either package being loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = r"""
import importlib
import importlib.abc
import pkgutil
import sys

BLOCKED = ("scipy", "networkx")


class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ModuleNotFoundError(f"No module named {name!r} (blocked)", name=name)
        return None


sys.meta_path.insert(0, Block())

import numpy as np

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)

from repro.baselines.per_table import PerTableStatsEstimator
from repro.core import NeuroCard, NeuroCardConfig
from repro.eval.calibration import calibration_workload
from repro.eval.harness import true_cardinalities
from repro.relational import JoinEdge, JoinSchema, Predicate, Query, Table
from repro.serving import EstimationService, EstimatorCascade

rng = np.random.default_rng(0)
parents = Table.from_dict(
    "P", {"id": list(range(60)), "year": [int(y) for y in rng.integers(0, 8, 60)]}
)
kids = [int(k) for k in rng.integers(0, 60, 200)]
children = Table.from_dict(
    "C", {"pid": kids, "kind": [int(k % 3) for k in kids]}
)
schema = JoinSchema(
    tables={"P": parents, "C": children},
    edges=[JoinEdge("P", "C", (("id", "pid"),))],
    root="P",
)
config = NeuroCardConfig(
    d_emb=4, d_ff=16, n_blocks=1, train_tuples=2048, batch_size=256,
    progressive_samples=32, exclude_columns=("P.id", "C.pid"),
)
neural = NeuroCard(schema, config).fit()

cascade = EstimatorCascade(schema, default_max_q_error=2.0, min_class_queries=3)
cascade.register("per_table", PerTableStatsEstimator(schema))
cascade.register("neural", neural, neural=True)
held_out = calibration_workload(schema, n_queries=30, seed=3)
cascade.calibrate(held_out, true_cardinalities(schema, held_out))
single = Query.make(["P"], [Predicate("P", "year", "<", 4)])
join = Query.make(["P", "C"], [Predicate("C", "kind", "=", 1)])
for query in (single, join):
    assert np.isfinite(cascade.estimate(query))


class Broken:
    schema = schema
    is_fitted = True
    size_bytes = 0

    def estimate_batch(self, queries, n_samples=None, rngs=None):
        raise RuntimeError("primary down")


service = EstimationService()
service.register("m", Broken())
service.register_fallback("m")
future = service.submit(single, seed=1)
assert np.isfinite(future.result(timeout=30)) and future.degraded
service.close()

loaded = sorted(m for m in sys.modules if m.partition(".")[0] in BLOCKED)
assert not loaded, loaded
print("numpy-only ok")
"""


def test_library_runs_without_scipy_or_networkx():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-3000:]
    assert "numpy-only ok" in result.stdout
