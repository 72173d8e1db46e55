"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark file regenerates one table or figure of the paper. Heavy
artifacts (schemas, ground truths, trained estimators) are session-scoped
and shared. Reports are printed and persisted under ``benchmarks/results/``
so that ``bench_output.txt`` plus that directory capture the full
paper-vs-measured comparison (methodology in docs/benchmarks.md).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.joins.counts import JoinCounts
from repro.eval.harness import true_cardinalities
from repro.relational.query import Query
from repro.relational.schema import JoinSchema
from repro.workloads import (
    job_light_queries,
    job_light_ranges_queries,
    job_m_queries,
    job_light_schema,
    job_m_schema,
)
from repro.workloads.imdb import DEFAULT_EXCLUDED_COLUMNS, ImdbScale

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Scaled-down workload sizes (paper: 70 / 1000 / 113 queries). The ranges
#: workload is trimmed to keep the full bench suite in CPU minutes.
N_JOB_LIGHT = 70
N_RANGES = 200
N_JOB_M = 113


def write_result(name: str, text: str) -> str:
    """Persist one report and echo it to stdout."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
    return path


@dataclass
class WorkloadEnv:
    """One schema + its workloads and exact ground truths."""

    schema: JoinSchema
    counts: JoinCounts
    queries: Dict[str, List[Query]] = field(default_factory=dict)
    truths: Dict[str, List[float]] = field(default_factory=dict)


def base_config(**overrides) -> NeuroCardConfig:
    """The Base NeuroCard configuration used across benches (Table 5)."""
    defaults = dict(
        d_emb=16,
        d_ff=128,
        n_blocks=2,
        factorization_bits=14,
        batch_size=512,
        train_tuples=600_000,
        learning_rate=5e-3,
        progressive_samples=512,
        sampler_threads=4,
        exclude_columns=DEFAULT_EXCLUDED_COLUMNS,
        seed=0,
    )
    defaults.update(overrides)
    return NeuroCardConfig(**defaults)


@pytest.fixture(scope="session")
def light_env() -> WorkloadEnv:
    schema = job_light_schema(ImdbScale(n_title=1500))
    counts = JoinCounts(schema)
    env = WorkloadEnv(schema=schema, counts=counts)
    env.queries["job-light"] = job_light_queries(schema, n=N_JOB_LIGHT, counts=counts)
    env.queries["ranges"] = job_light_ranges_queries(schema, n=N_RANGES, counts=counts)
    for key in ("job-light", "ranges"):
        env.truths[key] = true_cardinalities(schema, env.queries[key], counts)
    return env


@pytest.fixture(scope="session")
def jobm_env() -> WorkloadEnv:
    schema = job_m_schema(ImdbScale(n_title=2000, n_phonetic=1500))
    counts = JoinCounts(schema)
    env = WorkloadEnv(schema=schema, counts=counts)
    env.queries["job-m"] = job_m_queries(schema, n=N_JOB_M, counts=counts)
    env.truths["job-m"] = true_cardinalities(schema, env.queries["job-m"], counts)
    return env


@pytest.fixture(scope="session")
def neurocard_light(light_env) -> NeuroCard:
    """The Base NeuroCard fitted on JOB-light (shared by several benches)."""
    return NeuroCard(light_env.schema, base_config()).fit()


@pytest.fixture(scope="session")
def deepdb_light(light_env):
    from repro.baselines import DeepDBEstimator

    return DeepDBEstimator(
        light_env.schema,
        light_env.counts,
        n_samples=30_000,
        exclude_columns=DEFAULT_EXCLUDED_COLUMNS,
        seed=0,
    )


@pytest.fixture(scope="session")
def mscn_light(light_env):
    from repro.baselines import MSCNEstimator

    train = job_light_ranges_queries(
        light_env.schema, n=400, seed=91, counts=light_env.counts
    )
    cards = true_cardinalities(light_env.schema, train, light_env.counts)
    return MSCNEstimator(light_env.schema, train, cards, epochs=50, seed=0)
