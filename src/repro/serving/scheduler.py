"""Micro-batching scheduler: N concurrent callers, one batched forward pass.

PR 1's ``estimate_batch`` made *one caller with many queries* fast; this
module makes *many callers with one query each* fast. Concurrent
``submit(query)`` calls land in a queue; a background flusher coalesces
them into single ``estimate_batch`` invocations of up to ``max_batch``
requests, and each caller gets a :class:`concurrent.futures.Future`
resolving to its own estimate.

Coalescing decides on a count, not on a timer. The scheduler tracks how
many requests are *outstanding* (submitted, not yet resolved) and keeps
``expected``, the peak of that number since the last flush: its estimate
of how many callers are out there. A batch that already holds
``expected`` requests flushes at once — nobody else can arrive, so
waiting buys nothing. Only while fewer callers than expected have shown
up does the flusher wait for the stragglers, for ``max_wait_us``
microseconds at most. A lone closed-loop caller therefore never waits.
Two callers that turn around (result to next submit) inside that window
wait for each other, a fraction of a millisecond, and share every walk;
two that are slower than the window take turns, one walk each (a fixed
timer pairs those only when they happen to start together).
:meth:`MicroBatchScheduler._next_batch` has the rule and its bounds.

Determinism: a request may pin a ``seed``; its per-query generator is then
``np.random.default_rng(seed)`` (the batched engine keeps one
uniform-variate stream per query). On the deterministic tabular test
oracle that makes the result bitwise-equal to a sequential
``estimate(query, rng=np.random.default_rng(seed))`` call no matter which
requests it happened to share a batch with. A trained model's GEMM
round-off depends on how many rows share the batch, so coalescing
reproduces its answers to ~1e-9 (reference engine) or <= 5e-6 (fp32
kernels) relative rather than bit for bit (``docs/architecture.md``).

Every request is answered fresh, at the served model's own sample budget
(``NeuroCardConfig.progressive_samples``), so a flush is one
``estimate_batch`` / ``submit_batch`` call and a request's path is always
the same: validate, queue, batch, resolve. A registry hot-swap needs no
invalidation: the source is read per flush.

Failure semantics mirror :class:`~repro.errors.SamplerError`'s fail-fast
contract: if a batched inference call raises, every future in that batch
receives the error immediately (no caller blocks forever), and the
scheduler keeps serving subsequent batches.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DeadlineError, QueryError, ServingError
from repro.relational.query import Query
from repro.serving import faults
from repro.serving.metrics import Histogram, series_key

#: Why a nonzero ``cache_size`` fails: the parameter stays (accepting only
#: 0) for callers that still pass the old "off" value.
RETIRED_CACHE = (
    "the result cache was removed; every request is answered fresh "
    "(cache_size accepts only 0)"
)

#: ``source`` contract: returns the current (model, version) pair.
ModelSource = Callable[[], Tuple[object, int]]

#: Queue-wait buckets (seconds): 50us .. 250ms. A wait is a fraction of a
#: millisecond when every caller is present and ``max_wait_us`` (plus any
#: time behind a running batch) when one is not.
QUEUE_WAIT_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25,
)


def queue_wait_histogram() -> Histogram:
    """submit -> start of the ``estimate_batch`` / ``submit_batch`` call that
    carried the request, labelled by model."""
    return Histogram(
        "repro_scheduler_queue_wait_seconds",
        "Time from submit to the start of the batch that carried the request.",
        threading.Lock(),
        buckets=QUEUE_WAIT_BUCKETS,
    )


@dataclass
class _Request:
    query: Query
    seed: Optional[int]
    future: Future
    submitted_at: float
    #: Absolute ``time.monotonic()`` deadline (None = no deadline). Expired
    #: requests are failed with :class:`DeadlineError` at flush time,
    #: *before* dispatch, so dead work never burns batch slots.
    deadline: Optional[float] = None


class MicroBatchScheduler:
    """Thread-safe front door turning concurrent submits into batched inference.

    ``source`` is any zero-arg callable returning ``(model, version)`` —
    typically ``lambda: registry.get_with_version(name)`` — where ``model``
    exposes ``estimate_batch(queries, rngs=...)``. Reading
    the source *per flush* is what makes registry hot-swaps take effect
    mid-stream without a restart.

    ``executor`` (optional) offloads flushed micro-batches instead of
    executing them inline on the flusher thread: anything with
    ``submit_batch(model, version, queries, rngs=...) -> Future`` works,
    in practice a :class:`~repro.serving.workers.WorkerPool` that shards
    the batch across processes. Request coalescing, per-request seeds and
    fail-fast error chaining behave identically on both paths; the inline
    path remains the bitwise reference.

    ``cache_size`` is retired: the result cache is gone, and only its
    old "off" value, 0, is accepted.
    """

    def __init__(
        self,
        source: ModelSource,
        *,
        max_batch: int = 64,
        max_wait_us: int = 2000,
        cache_size: int = 0,
        name: str = "model",
        executor=None,
    ):
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        if max_wait_us < 0:
            raise ServingError("max_wait_us must be >= 0")
        if cache_size != 0:
            raise ServingError(RETIRED_CACHE)
        self._source = source
        self._executor = executor
        self.max_batch = max_batch
        self.max_wait_s = max_wait_us / 1e6
        self.name = name
        self._queue: List[_Request] = []
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._closed = False
        self._flusher_failure: Optional[BaseException] = None
        self._rng = np.random.default_rng(0)
        # Coalescing state (see _next_batch): requests submitted and not
        # yet resolved, and the peak of that count since the last flush.
        self._outstanding = 0
        self._expected = 1
        # Fresh straggler windows in a row that nobody used, and how many
        # chances to open another one are still to be passed up.
        self._unused_windows = 0
        self._skip_windows = 0
        # Telemetry (reads are approximate; guarded writes only).
        self.n_requests = 0
        self.n_batches = 0
        self.n_flushed_requests = 0
        self.n_deadline_expired = 0
        self.n_short_batches = 0
        # Exponentially weighted submit->resolve latency (ms); the cascade
        # reads this as the neural tier's predicted latency when deciding
        # whether the scheduler path fits a caller's budget_ms.
        self._ewma_latency_ms: Optional[float] = None
        #: An :class:`~repro.serving.service.EstimationService` points this
        #: at the one histogram all its schedulers share.
        self.queue_wait = queue_wait_histogram()
        self._queue_wait_series = series_key(model=name)
        self._flusher = threading.Thread(
            target=self._run, name=f"microbatch-{name}", daemon=True
        )
        self._flusher.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self,
        query: Query,
        *,
        seed: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> Future:
        """Enqueue one query; returns a Future resolving to its COUNT(*) estimate.

        Invalid queries (unknown tables/columns, disconnected join graphs)
        and a ``seed`` that is neither None nor a non-negative integer fail
        *here*, synchronously, with :class:`~repro.errors.QueryError`, so one
        bad request never poisons the batch it would have joined.

        ``deadline`` is an absolute ``time.monotonic()`` instant: a request
        still queued when it passes is failed with
        :class:`~repro.errors.DeadlineError` before dispatch instead of
        occupying a slot in a batch whose answer nobody is waiting for.
        """
        submitted_at = time.perf_counter()
        if seed is not None and (
            isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0
        ):
            raise QueryError(f"seed must be a non-negative integer, got {seed!r}")
        _validate(self._source()[0], query)
        future: Future = Future()
        with self._work:
            if self._closed:
                raise ServingError(f"scheduler {self.name!r} is closed")
            if self._flusher_failure is not None:
                raise self._flusher_death_error()
            self.n_requests += 1
            # Counted out again by whoever ends it: _resolve_batch / _fail
            # just before they wake the caller, or this callback if the
            # caller cancels first.
            future.add_done_callback(self._cancelled)
            self._outstanding += 1
            self._expected = max(self._expected, self._outstanding)
            self._queue.append(_Request(query, seed, future, submitted_at, deadline))
            self._work.notify()
        return future

    def _cancelled(self, future: Future) -> None:
        if future.cancelled():
            with self._lock:
                self._outstanding -= 1

    def estimate(self, query: Query, *, seed: Optional[int] = None) -> float:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(query, seed=seed).result()

    def estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """Submit many queries and gather their results (harness adapter)."""
        futures = [self.submit(q) for q in queries]
        return np.array([f.result() for f in futures], dtype=np.float64)

    def predicted_latency_ms(self) -> Optional[float]:
        """EWMA of observed submit->resolve latency, or None before any batch."""
        with self._lock:
            return self._ewma_latency_ms

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "requests": self.n_requests,
                "batches": self.n_batches,
                "mean_batch_size": (
                    self.n_flushed_requests / self.n_batches if self.n_batches else 0.0
                ),
                "deadline_expired": self.n_deadline_expired,
                "short_batches": self.n_short_batches,
                "outstanding": self._outstanding,
                "expected_concurrency": self._expected,
                "ewma_latency_ms": (
                    self._ewma_latency_ms
                    if self._ewma_latency_ms is not None
                    else 0.0
                ),
            }

    def close(self) -> None:
        """Drain pending requests, stop the flusher. Idempotent."""
        with self._work:
            if self._closed:
                return
            self._closed = True
            self._work.notify_all()
        self._flusher.join()

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Flusher
    # ------------------------------------------------------------------
    def _run(self) -> None:
        # Per-batch failures are contained inside _flush (the futures of
        # that batch get the underlying exception); this guard catches the
        # flusher thread itself dying, which would otherwise strand every
        # queued future in a silent forever-pending state. Mirrors
        # ThreadedSampler's SamplerError chaining: callers see a
        # ServingError whose __cause__ is the first underlying exception.
        batch: List[_Request] = []
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    return
                self._flush(batch)
                batch = []
        except BaseException as exc:
            with self._work:
                self._flusher_failure = exc
                stranded = batch + self._queue
                self._queue = []
            self._fail(
                [r for r in stranded if not r.future.done()],
                self._flusher_death_error(),
            )

    def _flusher_death_error(self) -> ServingError:
        failure = self._flusher_failure
        error = ServingError(
            f"scheduler {self.name!r} flusher died: "
            f"{type(failure).__name__}: {failure}"
        )
        error.__cause__ = failure
        return error

    def _next_batch(self) -> Optional[List[_Request]]:
        """Block until a batch is due; None means closed-and-drained.

        A batch is due when it holds ``expected`` requests (every caller
        the scheduler believes exists), when it is full, or when its
        straggler window of ``max_wait_us`` has run out. The window counts
        from the oldest request's submit, as a fixed timer would. For
        requests that sat queued behind a running batch it may instead
        count from now: the callers they are short of are the ones that
        batch has just handed their results to, and those get
        ``max_wait_us`` to come back. Without that, callers that fell out
        of step around a walk longer than the window would take turns for
        good, each walk carrying half of them.

        Such a fresh window only pays if callers turn around (result to
        next submit) faster than ``max_wait_us``. One that runs out unused
        doubles how many chances to open another are passed up (1, 3, 7,
        .. 63) and one that fills the batch clears the count, so callers
        that are always slower cost a stall on every 64th batch at worst.

        ``expected`` is raised to ``outstanding`` by every submit and reset
        to it here, so it is the most requests that were outstanding at
        once since the previous flush. With all N callers present it stays
        N. When some leave, the next batch stalls ``max_wait_us`` for them
        once and resets ``expected`` to those still here: one stall per
        departure, whatever N. A caller that was merely late raises it back
        with its next submit.
        """
        def short() -> bool:
            return len(self._queue) < min(self.max_batch, self._expected)

        with self._work:
            behind_a_batch = bool(self._queue)
            while not self._queue:
                if self._closed:
                    return None
                self._work.wait()
            window_start = self._queue[0].submitted_at
            fresh_window = False
            if behind_a_batch and short():
                if self._skip_windows:
                    self._skip_windows -= 1
                else:
                    fresh_window = True
                    window_start = time.perf_counter()
            deadline = window_start + self.max_wait_s
            while short() and not self._closed:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    self.n_short_batches += 1
                    break
                self._work.wait(timeout=remaining)
            if fresh_window:
                self._unused_windows = (
                    min(self._unused_windows + 1, 6) if short() else 0
                )
                self._skip_windows = 2 ** self._unused_windows - 1
            batch = self._queue[: self.max_batch]
            del self._queue[: self.max_batch]
            self._expected = max(self._outstanding, 1)
            return batch

    def _flush(self, batch: List[_Request]) -> None:
        batch = [r for r in batch if r.future.set_running_or_notify_cancel()]
        if not batch:
            return
        # Cancel expired work before dispatch: a request whose deadline has
        # already passed gets a typed DeadlineError now instead of burning a
        # batch slot computing an answer its caller stopped waiting for.
        now = time.monotonic()
        expired = [
            r for r in batch if r.deadline is not None and now >= r.deadline
        ]
        if expired:
            batch = [
                r for r in batch if r.deadline is None or now < r.deadline
            ]
            with self._lock:
                self.n_deadline_expired += len(expired)
            self._fail(
                expired,
                DeadlineError(
                    f"deadline expired before dispatch on scheduler {self.name!r}"
                ),
            )
            if not batch:
                return
        try:
            model, version = self._source()
        except BaseException as exc:  # registry failure: fail the whole batch
            self._fail(batch, exc)
            return
        rngs = [
            np.random.default_rng(r.seed) if r.seed is not None
            else self._rng.spawn(1)[0]
            for r in batch
        ]
        dispatched_at = time.perf_counter()
        for request in batch:
            self.queue_wait.observe_series(
                self._queue_wait_series, dispatched_at - request.submitted_at
            )
        if self._executor is not None:
            # Sharded path: hand the whole micro-batch to the worker pool.
            # submit_batch applies backpressure by blocking this flusher
            # when every worker is saturated — new submits keep coalescing
            # behind it, exactly like inline execution time used to buy.
            try:
                injector = faults.get_active()
                if injector is not None:
                    injector.check("scheduler.flush")
                pooled = self._executor.submit_batch(
                    model,
                    version,
                    [r.query for r in batch],
                    rngs=rngs,
                )
            except BaseException as exc:
                self._fail(batch, exc)
                return
            pooled.add_done_callback(lambda f: self._complete_pooled(batch, f))
            return
        try:
            # Chaos seam: fires inside the try so an injected fault fails
            # this batch's futures (the contract under test), never the
            # flusher thread itself.
            injector = faults.get_active()
            if injector is not None:
                injector.check("scheduler.flush")
            estimates = model.estimate_batch([r.query for r in batch], rngs=rngs)
        except BaseException as exc:
            self._fail(batch, exc)
            return
        self._resolve_batch(batch, estimates)

    def _complete_pooled(self, requests: List[_Request], pooled: Future) -> None:
        """Resolve a pool-executed batch (runs on the pool's collector)."""
        exc = pooled.exception()
        if exc is not None:
            self._fail(requests, exc)
            return
        self._resolve_batch(requests, pooled.result())

    def _resolve_batch(self, requests: List[_Request], estimates) -> None:
        if len(estimates) != len(requests):
            self._fail(
                requests,
                ServingError(
                    f"model returned {len(estimates)} estimates for "
                    f"{len(requests)} queries"
                ),
            )
            return
        now = time.perf_counter()
        with self._lock:
            self._outstanding -= len(requests)
            self.n_batches += 1
            self.n_flushed_requests += len(requests)
            for request in requests:
                lat_ms = (now - request.submitted_at) * 1e3
                self._ewma_latency_ms = (
                    lat_ms
                    if self._ewma_latency_ms is None
                    else 0.2 * lat_ms + 0.8 * self._ewma_latency_ms
                )
        # Resolve futures outside the lock: done-callbacks run synchronously
        # in this thread and may legally re-enter submit().
        for request, estimate in zip(requests, estimates):
            request.future.set_result(float(estimate))

    def _fail(self, requests: List[_Request], exc: BaseException) -> None:
        with self._lock:
            self._outstanding -= len(requests)
        for request in requests:
            request.future.set_exception(exc)


def _validate(model, query: Query) -> None:
    """Fail an invalid query at its own submit, never the batch it would join.

    Applies to models that expose a ``ProgressiveSampler``-like engine
    (``inference``, or a bare engine with ``plan``); duck-typed models
    validate nothing here.
    """
    inference = getattr(model, "inference", None)
    if inference is None and hasattr(model, "plan"):
        inference = model  # a bare ProgressiveSampler-like engine
    if inference is not None and hasattr(inference, "plan"):
        query.validate(inference.layout.schema)
