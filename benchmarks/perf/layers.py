"""Layer micro-measurements taken from outside, by timing public calls.

Module names are the layer names. Each figure is a median over repeated
calls on inputs taken from the workloads; repetition counts are sized so
the whole suite fits in half of a traced run's ``--seconds``. What a layer
metric is expected to move end to end is tabulated in the README.

Measurements that need a particular topology (cascade, worker pool,
refresher, HTTP server) live with the workload that builds it; a workload
that does not instantiate a layer reports 0 for it.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, Sequence

import numpy as np
from fixture import Fixture
from stubs import ConstantModel

from repro.core.encoding import FusedEncoder
from repro.core.inference import compiled_model
from repro.core.persistence import load_model, save_model
from repro.joins.counts import JoinCounts
from repro.nn.optim import Adam
from repro.relational.dsl import query_from_dict, query_to_dict
from repro.serving import AdmissionController, MicroBatchScheduler


def median_time(fn: Callable[[], object], reps: int) -> float:
    """Median wall seconds of ``reps`` calls of ``fn``."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def median_each(fn: Callable[[object], object], items: Sequence) -> float:
    """Median wall seconds of ``fn(item)`` over ``items`` (one call each)."""
    samples = []
    for item in items:
        start = time.perf_counter()
        fn(item)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def inference(fx: Fixture) -> Dict[str, float]:
    """``estimate_batch`` at the batch sizes the serving stack produces."""
    out = {}
    for size, reps, key in (
        (1, 96, "core.inference.b1_ms"),
        (2, 48, "core.inference.b2_ms_per_query"),
        (8, 16, "core.inference.b8_ms_per_query"),
        (32, 8, "core.inference.b32_ms_per_query"),
    ):
        batches = [
            fx.queries[(i * size) % len(fx.queries) :][:size] for i in range(reps)
        ]
        out[key] = median_each(fx.model.estimate_batch, batches) * 1e3 / size
    return out


def planning(fx: Fixture) -> Dict[str, float]:
    """``engine.plan`` with cold and with warm per-predicate caches."""
    engine = fx.model.build_inference()
    queries = fx.queries[:256]
    return {
        "core.progressive.plan_cold_us": median_each(engine.plan, queries) * 1e6,
        "core.progressive.plan_cached_us": median_each(engine.plan, queries) * 1e6,
    }


def compilation(fx: Fixture) -> Dict[str, float]:
    """Folding a fresh engine's kernels (what a load or a hot-swap pays)."""

    def fold() -> None:
        compiled_model(fx.model.build_inference()).compile()

    return {"nn.compiled.compile_ms": median_time(fold, 3) * 1e3}


def training(fx: Fixture) -> Dict[str, float]:
    """The four stages one training step is made of, and the fit they add up to."""
    model, config = fx.model, fx.model.config
    batch = config.batch_size
    rng = np.random.default_rng(fx.seed)
    encoder = FusedEncoder(model.layout, model.sampler)
    rows = model.sampler.sample_row_id_matrix(batch, rng)
    tokens = encoder.encode_row_ids(rows)
    optimizer = Adam(model.model.parameters(), lr=config.learning_rate)

    def step() -> None:
        # Gradients only, no optimizer step: the served weights must not move.
        optimizer.zero_grad()
        model.model.loss_and_backward(tokens, None)

    sample_s = median_time(lambda: model.sampler.sample_row_id_matrix(batch, rng), 20)
    encode_s = median_time(lambda: encoder.encode_row_ids(rows), 20)
    return {
        "core.training.fit_tuples_per_s": model.train_result.tuples_per_second,
        "joins.sampler.tuples_per_s": batch / sample_s,
        "core.encoding.encode_tuples_per_s": batch / encode_s,
        "nn.resmade.train_step_ms": median_time(step, 8) * 1e3,
        "joins.counts.build_ms": median_time(lambda: JoinCounts(fx.schema), 5) * 1e3,
    }


def persistence(fx: Fixture, scratch: Path) -> Dict[str, float]:
    path = scratch / "layers-model.npz"
    save_s = median_time(lambda: save_model(fx.model, path), 3)
    load_s = median_time(lambda: load_model(path, fx.model.schema), 2)
    path.unlink()
    return {
        "core.persistence.save_ms": save_s * 1e3,
        "core.persistence.load_ms": load_s * 1e3,
    }


def wire_parse(fx: Fixture) -> Dict[str, float]:
    """DSL compile of a decoded request body, and one admit/release pair."""
    # Through JSON and back, so the documents are what the server decodes.
    docs = [json.loads(json.dumps(query_to_dict(q))) for q in fx.queries]
    admission = AdmissionController()

    def admit_release() -> None:
        admission.admit("bench")
        admission.release(0.001)

    return {
        "relational.dsl.parse_us": median_each(query_from_dict, docs) * 1e6,
        "serving.admission.admit_release_us": median_time(admit_release, 2000) * 1e6,
    }


def scheduler_overhead(fx: Fixture, max_wait_us: int) -> Dict[str, float]:
    """submit -> result on a constant-time model: the scheduler's own cost
    with no coalescing wait, and with the workload's ``max_wait_us``."""
    stub = ConstantModel()
    out = {}
    for wait_us, reps, key in (
        (0, 300, "serving.scheduler.stub_overhead_us"),
        (max_wait_us, 120, "serving.scheduler.coalesce_wait_us"),
    ):
        with MicroBatchScheduler(lambda: (stub, 1), max_wait_us=wait_us, cache_size=0) as sched:
            roundtrip = lambda query: sched.submit(query).result()  # noqa: E731
            out[key] = median_each(roundtrip, fx.queries[:reps]) * 1e6
    return out


def common(fx: Fixture, scratch: Path, max_wait_us: int) -> Dict[str, float]:
    """Every layer metric that needs nothing but the fitted model."""
    out: Dict[str, float] = {}
    out.update(inference(fx))
    out.update(planning(fx))
    out.update(compilation(fx))
    out.update(training(fx))
    out.update(persistence(fx, scratch))
    out.update(wire_parse(fx))
    out.update(scheduler_overhead(fx, max_wait_us))
    return out
