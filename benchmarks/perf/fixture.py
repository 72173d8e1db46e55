"""Common fixture of the perf benchmark: schema, trained model, inputs, truths.

Everything a workload needs before its first request is built here and
timed stage by stage, so ``setup_s`` can be read as a sum of named parts.
Workload inputs (queries, their order, per-request Monte Carlo seeds)
derive from ``--seed``. The data set (``ImdbScale`` seed 0), the model's
seed and the accuracy evaluation set are pinned: a seed changes what is
asked, never what is true or which model answers, so q-error is a property
of the commit and not of the draw.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from spec import PINNED_ENV, REPO_ROOT

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.eval.calibration import calibration_workload
from repro.eval.harness import true_cardinalities
from repro.eval.metrics import q_error, summarize_errors
from repro.joins.counts import JoinCounts
from repro.relational.query import Query
from repro.relational.schema import JoinSchema
from repro.workloads import job_light_ranges_queries, job_light_schema
from repro.workloads.imdb import DEFAULT_EXCLUDED_COLUMNS, ImdbScale

#: Relative deviation allowed between a served pinned-seed answer and the
#: sequential ``estimate`` with the same seed (docs/accuracy.md, fp32 row).
FP32_ENVELOPE = 5e-6

#: name -> (n_title, train_tuples). ``full`` is the benchmark; ``tiny``
#: exists so ``--selftest`` can exercise every code path in under a minute.
SCALES = {"full": (2000, 100_000), "tiny": (600, 10_000)}

N_RANGE_QUERIES = 512
MODEL_NAME = "m"
STUB_NAME = "stub"
#: Seed of the model's initialisation and training stream.
MODEL_SEED = 0
#: Seed of the pinned accuracy evaluation (queries and Monte Carlo streams).
EVAL_SEED = 2020
N_EVAL_QUERIES = 256


def model_config(train_tuples: int) -> NeuroCardConfig:
    """The one model every workload serves (fp32-compiled, no quantization)."""
    return NeuroCardConfig(
        d_emb=16,
        d_ff=128,
        n_blocks=2,
        factorization_bits=14,
        batch_size=512,
        train_tuples=train_tuples,
        learning_rate=5e-3,
        progressive_samples=128,
        sampler_threads=1,
        exclude_columns=DEFAULT_EXCLUDED_COLUMNS,
        seed=MODEL_SEED,
    )


class StageClock:
    """Named wall-clock stages of set-up, in the order they ran."""

    def __init__(self) -> None:
        self.stages: Dict[str, float] = {}

    @contextlib.contextmanager
    def time(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.stages[name] = self.stages.get(name, 0.0) + elapsed


@dataclass
class Fixture:
    """Schema + trained model + the range-join inputs of one seed."""

    seed: int
    scale: str
    schema: JoinSchema
    counts: JoinCounts
    model: NeuroCard
    queries: List[Query]
    clock: StageClock = field(default_factory=StageClock)


def build_schema(scale: str) -> JoinSchema:
    return job_light_schema(ImdbScale(n_title=SCALES[scale][0]))


def build_fixture(
    seed: int,
    scale: str = "full",
    train_on: Optional[Callable[[JoinSchema], JoinSchema]] = None,
) -> Fixture:
    """Schema, exact counts, a fitted + compiled model, 512 range queries.

    ``train_on`` maps the schema to the snapshot the model is fitted on when
    that differs from the one queries and truths are drawn from
    (``refresh_under_load`` serves partition 1 and is judged on the last).
    """
    clock = StageClock()
    with clock.time("schema"):
        schema = build_schema(scale)
    with clock.time("joins.counts"):
        counts = JoinCounts(schema)
    with clock.time("fit"):
        config = model_config(SCALES[scale][1])
        model = NeuroCard(train_on(schema) if train_on is not None else schema, config)
        model.fit()
    with clock.time("compile"):
        model.precompile()
    with clock.time("inputs"):
        queries = job_light_ranges_queries(
            schema, n=N_RANGE_QUERIES, seed=seed, counts=counts
        )
    return Fixture(seed, scale, schema, counts, model, queries, clock)


# ----------------------------------------------------------------------
# Generator hygiene for the cascade traffic
# ----------------------------------------------------------------------
def servable(query: Query) -> bool:
    """False when a predicate names a column the model does not carry."""
    return all(
        f"{p.table}.{p.column}" not in DEFAULT_EXCLUDED_COLUMNS for p in query.predicates
    )


def draw_servable(
    schema: JoinSchema,
    counts: JoinCounts,
    n_easy: int,
    n_hard: int,
    seed: int,
) -> Tuple[List[Query], List[Query], float]:
    """``n_easy`` single-table + ``n_hard`` multi-table servable queries.

    ``calibration_workload`` filters on every non-join-key column, including
    the surrogate keys in the model's ``exclude_columns``; the neural tier
    raises ``QueryError`` on those. The generator therefore over-draws and
    rejects them, and reports the rejected share (README, "Known gaps").
    """
    total = n_easy + n_hard
    easy_fraction = n_easy / total
    drawn = calibration_workload(
        schema, n_queries=3 * total, easy_fraction=easy_fraction, seed=seed, counts=counts
    )
    kept = [q for q in drawn if servable(q)]
    rejected_frac = 1.0 - len(kept) / len(drawn)
    easy = [q for q in kept if len(q.tables) == 1][:n_easy]
    hard = [q for q in kept if len(q.tables) > 1][:n_hard]
    if len(easy) < n_easy or len(hard) < n_hard:
        raise RuntimeError(
            f"over-draw too small: kept {len(easy)}/{n_easy} easy, {len(hard)}/{n_hard} hard"
        )
    return easy, hard, rejected_frac


# ----------------------------------------------------------------------
# Output checks and summaries
# ----------------------------------------------------------------------
def out_of_range(values: np.ndarray, full_join_size: float) -> int:
    """Estimates that are not finite or not within ``[0, full_join_size]``."""
    values = np.asarray(values, dtype=np.float64)
    bad = ~np.isfinite(values) | (values < 0.0) | (values > full_join_size * (1 + 1e-9))
    return int(bad.sum())


def evaluation_set(fx: Fixture) -> Tuple[List[Query], List[float]]:
    """The pinned range-join queries accuracy is judged on, with truths."""
    queries = job_light_ranges_queries(
        fx.schema, n=N_EVAL_QUERIES, seed=EVAL_SEED, counts=fx.counts
    )
    return queries, true_cardinalities(fx.schema, queries, fx.counts)


def pinned_estimates(model: NeuroCard, queries: Sequence[Query]) -> List[float]:
    """``estimate_batch`` in batches of 32, query ``i`` on stream ``EVAL_SEED + i``."""
    estimates: List[float] = []
    for lo in range(0, len(queries), 32):
        batch = queries[lo : lo + 32]
        rngs = [np.random.default_rng(EVAL_SEED + lo + j) for j in range(len(batch))]
        estimates.extend(float(e) for e in model.estimate_batch(batch, rngs=rngs))
    return estimates


def qerr_summary(estimates: Sequence[float], truths: Sequence[float]) -> Tuple[float, float]:
    """(p50, p95) q-error of ``estimates`` against exact ``truths``."""
    summary = summarize_errors([q_error(e, t) for e, t in zip(estimates, truths)])
    return summary.median, summary.p95


def peak_rss_mb(include_self: bool) -> float:
    """Peak resident set of the serving side: waited-for children, plus this
    process when it serves in-process. Linux reports ``ru_maxrss`` in KiB."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if include_self else 0
    return (children + own) / 1024.0


def environment() -> Dict[str, object]:
    """Where and on what the numbers were taken (recorded with every run)."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "commit": commit or "unknown",
        **{key: os.environ.get(key) for key in PINNED_ENV},
    }
