"""Spans recorded from outside the program, and what they add up to.

Nothing under ``src/`` knows about tracing (ROADMAP item 1 will put a stage
clock inside). Until then the benchmark's entry scripts wrap, at run time,
the public callables at each layer boundary of the objects they construct:
``query_from_dict``, ``AdmissionController.admit/release``,
``EstimationService.submit`` and its future's completion,
``EstimatorCascade.route``, the cheap tiers' ``estimate``,
``MicroBatchScheduler.submit``, ``NeuroCard.estimate_batch`` and
``WorkerPool.submit_batch``. Spans stay in memory and are written as JSON
lines when the run ends.

A span is ``{"id", "name", "start", "end", "parent", "rid", ...attrs}``.
One request's spans share the ``rid`` minted at ``EstimationService.submit``
and hang under one ``request`` root that runs from the first server-side
span's start to the future's completion. ``estimate_batch`` spans are roots
of their own (one batch carries many requests); each request gets an
``engine`` child that names the batch it rode in.
"""

from __future__ import annotations

import bisect
import contextvars
import itertools
import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence

import numpy as np

#: Stage spans whose durations should add up to the request interval.
#: ``service`` is the self time of ``service.submit``: its span minus the
#: route, tier and scheduler-submit spans it contains.
STAGES = {
    "dsl": "dsl",
    "admission.admit": "admission",
    "service.submit": "service",
    "cascade.route": "route",
    "tier.estimate": "tier",
    "queue_wait": "queue_wait",
    "engine": "engine",
    "resolve": "resolve",
}

# Spans seen before the request id exists (DSL compile and admission run
# before ``service.submit``). Context variables, not thread-locals: on the
# server every connection is its own asyncio task on one thread, and a
# task's context follows the request across awaits.
_pending: contextvars.ContextVar = contextvars.ContextVar("perf_pending", default=None)
_current: contextvars.ContextVar = contextvars.ContextVar("perf_current", default=None)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        #: id(query) -> (rid, root id, scheduler-submit start). The flusher
        #: thread has no request context; the Query object it is handed is
        #: the one ``scheduler.submit`` saw.
        self._queued: Dict[int, tuple] = {}
        self._engine_end: Dict[int, float] = {}

    def add(self, name, start, end, parent=None, rid=None, **attrs) -> int:
        span_id = next(self._ids)
        self.spans.append((span_id, name, start, end, parent, rid, attrs or None))
        return span_id

    # ------------------------------------------------------------------
    # Wrappers (each replaces one attribute of an object the caller built)
    # ------------------------------------------------------------------
    def _pending_span(self, name: str, fn):
        """Time ``fn``; the span is adopted by the next ``service.submit``."""

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                pending = _pending.get()
                if pending is None:
                    pending = []
                    _pending.set(pending)
                pending.append((name, start, time.perf_counter()))

        return wrapper

    def _child_span(self, name: str, fn, under_root: bool = False, **attrs):
        """Time ``fn`` as a child of the enclosing ``service.submit`` span
        (or, for work done after it returned, of the request root)."""

        def wrapper(*args, **kwargs):
            current = _current.get()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if current is not None:
                    rid, root, submit_id = current
                    parent = root if under_root else submit_id
                    self.add(name, start, time.perf_counter(), parent, rid, **attrs)

        return wrapper

    def wrap_http(self, http_module, server) -> None:
        """DSL compile + admission on an ``EstimationHttpServer``."""
        http_module.query_from_dict = self._pending_span("dsl", http_module.query_from_dict)
        admission = server.admission
        admission.admit = self._pending_span("admission.admit", admission.admit)
        admission.release = self._child_span(
            "admission.release", admission.release, under_root=True
        )

    def wrap_service(self, service, model: str) -> None:
        """``submit`` (mints the rid), cascade, scheduler and pool of ``model``."""
        submit = service.submit

        def traced_submit(query, **kwargs):
            rid, root = next(self._ids), next(self._ids)
            submit_id = next(self._ids)
            pending = _pending.get() or []
            _pending.set(None)
            _current.set((rid, root, submit_id))
            seed = kwargs.get("seed")
            start = time.perf_counter()
            first = min([start] + [s for _name, s, _e in pending])
            try:
                future = submit(query, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                self.spans.append((root, "request", first, end, None, rid, {"error": repr(exc)}))
                raise
            finally:
                end = time.perf_counter()
                self.spans.append((submit_id, "service.submit", start, end, root, rid, None))
                for name, s, e in pending:
                    self.add(name, s, e, root, rid)

            def completed(done) -> None:
                # Resolution runs from the end of the engine's batch, or for
                # an answer given inline from the end of ``submit`` itself.
                now = time.perf_counter()
                self.add("resolve", self._engine_end.pop(rid, end), now, root, rid)
                attrs = {"seed": seed, "tier": getattr(done, "tier", None)}
                self.spans.append((root, "request", first, now, None, rid, attrs))

            future.add_done_callback(completed)
            return future

        service.submit = traced_submit

        cascade = service.cascade_for(model)
        if cascade is not None:
            cascade.route = self._child_span("cascade.route", cascade.route)
            for tier in cascade.tiers:
                if not tier.neural:
                    estimator = tier.estimator
                    estimator.estimate = self._child_span(
                        "tier.estimate", estimator.estimate, tier=tier.name
                    )

        scheduler = service.scheduler(model)
        scheduler_submit = scheduler.submit

        def queued_submit(query, **kwargs):
            current = _current.get()
            if current is not None:
                self._queued[id(query)] = (current[0], current[1], time.perf_counter())
            return scheduler_submit(query, **kwargs)

        scheduler.submit = self._child_span("scheduler.submit", queued_submit)

        pool = service.pool(model)
        if pool is not None:
            submit_batch = pool.submit_batch

            def traced_submit_batch(model_obj, version, queries, **kwargs):
                queries = list(queries)
                start = time.perf_counter()
                pooled = submit_batch(model_obj, version, queries, **kwargs)
                # Registered before the scheduler's own callback, so the
                # engine spans exist when the request futures resolve.
                pooled.add_done_callback(
                    lambda _f: self._batch_done("pool.submit_batch", queries, start)
                )
                return pooled

            pool.submit_batch = traced_submit_batch

    def wrap_model_class(self, model_class) -> None:
        """``estimate_batch`` of every instance, hot-swapped clones included."""
        estimate_batch = model_class.estimate_batch

        def traced_estimate_batch(model_self, queries, *args, **kwargs):
            queries = list(queries)
            start = time.perf_counter()
            try:
                return estimate_batch(model_self, queries, *args, **kwargs)
            finally:
                self._batch_done("estimate_batch", queries, start)

        model_class.estimate_batch = traced_estimate_batch

    def _batch_done(self, name: str, queries: Sequence, start: float) -> None:
        end = time.perf_counter()
        batch_id = self.add(name, start, end, batch_size=len(queries))
        for query in queries:
            entry = self._queued.pop(id(query), None)
            if entry is None:
                continue
            rid, root, queued_at = entry
            self.add("queue_wait", queued_at, start, root, rid)
            self.add("engine", start, end, root, rid, batch=batch_id, batch_size=len(queries))
            self._engine_end[rid] = end

    # ------------------------------------------------------------------
    def documents(self) -> List[dict]:
        """Every span recorded so far, as the JSON-ready dicts of the file."""
        return [
            {"id": i, "name": name, "start": start, "end": end, "parent": parent, "rid": rid}
            | (attrs or {})
            for i, name, start, end, parent, rid, attrs in self.spans
        ]


def client_spans(records: Iterable, seed_base: int) -> List[dict]:
    """The generator's side of each request, joined to the server's by seed."""
    return [
        {
            "id": i + 1,
            "name": "client",
            "start": t_end - latency,
            "end": t_end,
            "parent": None,
            "rid": None,
            "seed": seed_base + k,
        }
        for i, (t_end, latency, k, values, _tier) in enumerate(records)
        if values is not None
    ]


def write_spans(path: Path, spans: Sequence[dict]) -> None:
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> List[dict]:
    with open(path) as lines:
        return [json.loads(line) for line in lines if line.strip()]


def dangling_parents(spans: Sequence[dict]) -> int:
    """Spans whose parent id is not in the same file (selftest wants 0)."""
    ids = {span["id"] for span in spans}
    return sum(1 for span in spans if span["parent"] is not None and span["parent"] not in ids)


def _p50(values: Sequence[float]) -> float:
    return float(np.median(values)) if len(values) else 0.0


def analyze(server_spans: Sequence[dict], client_spans: Sequence[dict]) -> Dict[str, float]:
    """Per-request stage times (p50 us, and share of the client-observed
    latency) plus how much of the server interval the stages explain."""
    roots = {s["rid"]: s for s in server_spans if s["name"] == "request" and "error" not in s}
    stage_us: Dict[int, Dict[str, float]] = {rid: {} for rid in roots}
    submit_ids = {s["id"] for s in server_spans if s["name"] == "service.submit"}
    for span in server_spans:
        if span["rid"] not in stage_us:
            continue
        per_request = stage_us[span["rid"]]
        duration = (span["end"] - span["start"]) * 1e6
        stage = STAGES.get(span["name"])
        if stage is not None:
            per_request[stage] = per_request.get(stage, 0.0) + duration
        if span["parent"] in submit_ids:
            per_request["service"] = per_request.get("service", 0.0) - duration
    client_us = {
        span["seed"]: (span["end"] - span["start"]) * 1e6 for span in client_spans
    }

    out: Dict[str, float] = {}
    stages = sorted(set(STAGES.values()))
    if not roots:
        # No service in the path (offline_batch): each client call holds
        # exactly one batch span, and the engine is all there is to find.
        batches = sorted(
            (s["start"], s["end"]) for s in server_spans if s["name"] == "estimate_batch"
        )
        starts = [start for start, _end in batches]
        engine, share = [], []
        for span in client_spans:
            i = bisect.bisect_left(starts, span["start"])
            if i < len(batches) and batches[i][1] <= span["end"]:
                engine.append((batches[i][1] - batches[i][0]) * 1e6)
                share.append(engine[-1] / client_us[span["seed"]])
        for stage in stages:
            out[f"trace.{stage}_us"] = _p50(engine) if stage == "engine" else 0.0
            out[f"trace.{stage}_share"] = _p50(share) if stage == "engine" else 0.0
        out["trace.wire_http_us"] = 0.0
        out["trace.reconciled_frac"] = _p50(share)
        return out

    explained, wire = [], []
    samples: Dict[str, List[float]] = {stage: [] for stage in stages}
    shares: Dict[str, List[float]] = {stage: [] for stage in stages}
    for rid, root in roots.items():
        interval = (root["end"] - root["start"]) * 1e6
        per_request = stage_us[rid]
        if interval > 0:
            explained.append(sum(per_request.values()) / interval)
        client = client_us.get(root.get("seed"))
        if client is not None:
            wire.append(client - interval)
        for stage, value in per_request.items():
            samples[stage].append(value)
            if client:
                shares[stage].append(value / client)
    for stage in stages:
        out[f"trace.{stage}_us"] = _p50(samples[stage])
        out[f"trace.{stage}_share"] = _p50(shares[stage])
    out["trace.wire_http_us"] = _p50(wire)
    out["trace.reconciled_frac"] = _p50(explained)
    return out
