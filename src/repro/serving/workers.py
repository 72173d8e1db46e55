"""Sharded multi-process serving: a worker pool over zero-copy model memory.

Every PR 1-5 serving number is single-core: the GIL serializes all numpy
prep and the scheduler executes micro-batches inline on its flusher
thread. :class:`WorkerPool` breaks that ceiling with N worker *processes*,
each hosting the compiled engine, fed by the existing
:class:`~repro.serving.scheduler.MicroBatchScheduler` through its
``executor`` hook — micro-batches are **sharded** across the least-loaded
workers instead of executed inline, so concurrent load scales with cores.

Zero-copy model memory
----------------------
Model state is published as immutable **versioned blobs** in
``multiprocessing.shared_memory``: one segment per registry version,
holding the served model's kernel table and nothing else — the
:class:`~repro.nn.compiled.CompiledResMADE` buffers (embeddings, live
input slices, degree-permuted block weights, per-column heads — see
``CompiledResMADE.export_state``), which is all the weights a served
estimator holds. Workers rebuild only the cheap skeleton
(counts/sampler/layout, deterministic given schema + config) and serve a
kernel built over read-only views of the table — no weight copy, no fold,
no training-form model, and N workers share one physical copy.
``ModelRegistry.swap()`` / ``refresh()`` publish one new version; the pool
ships it in-band on each worker's command pipe, so a worker never
interleaves an old batch with a new model (no torn reads across
processes), and segments older than every worker's attached version are
unlinked.

Models that are not shared-memory exportable (duck-typed test models, the
tabular-oracle engine) fall back to a pickled-blob transport with the
same message protocol.

Failure semantics mirror :class:`~repro.errors.SamplerError`'s fail-fast
contract: a dead worker (crash, OOM kill) fails every in-flight shard's
batch future with a chained :class:`~repro.errors.ServingError` naming
the exit code, and the pool respawns the worker and republishes the
current model version — subsequent pinned-seed requests return results
bitwise-identical to the pre-crash pool.

The single-process inline path stays untouched and remains the bitwise
oracle for this pool (per-query Monte Carlo streams are independent, so
sharding a batch cannot change any query's draw sequence).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import threading
import time
import weakref
from concurrent.futures import Future
from multiprocessing import connection, shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.estimator import NeuroCard
from repro.errors import ServingError
from repro.nn.compiled import CompiledResMADE, pack_layout, read_blob, write_blob
from repro.relational.query import Query
from repro.serving import faults

#: Shards a worker may hold unanswered before the scheduler's flusher
#: blocks in :meth:`WorkerPool.submit_batch` (backpressure that lets new
#: requests coalesce behind it): one running, one queued on the pipe.
MAX_INFLIGHT = 2


def _disable_shm_tracking() -> None:
    """Stop this process's resource tracker from adopting attached segments.

    Pre-3.13 ``SharedMemory`` registers with the resource tracker on
    *attach*, not just create — so a worker exiting would unlink the
    parent's live blob, and attach-then-unregister from many workers
    corrupts the shared tracker's per-name set (the parent's own entry
    gets removed and its final unlink logs a KeyError). Workers never
    create segments, so suppressing shared-memory registration entirely
    in the worker process is both sufficient and side-effect-free: the
    parent remains the single owner of every segment's lifetime.
    """
    try:  # pragma: no cover - tracker internals differ across versions
        from multiprocessing import resource_tracker

        original = resource_tracker.register

        def register(name, rtype):
            if rtype != "shared_memory":
                original(name, rtype)

        resource_tracker.register = register
    except Exception:
        pass


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without adopting cleanup responsibility."""
    return shared_memory.SharedMemory(name=name)


def _unlink_segments(segments: Dict[int, shared_memory.SharedMemory]) -> None:
    for segment in list(segments.values()):
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass
    segments.clear()


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _WorkerState:
    """Per-process model slot: install versioned payloads, retire segments."""

    def __init__(self) -> None:
        self.est = None
        self.version: Optional[int] = None
        self.segment: Optional[shared_memory.SharedMemory] = None
        #: Segments whose views may still be referenced somewhere (a close
        #: raised BufferError); retried on the next install and at exit.
        self.retired: List[shared_memory.SharedMemory] = []

    def install(self, payload: dict) -> None:
        old_segment = self.segment
        if payload["transport"] == "pickle":
            self.est = pickle.loads(payload["blob"])
            self.segment = None
        else:
            segment = _attach_segment(payload["shm"])
            arrays = read_blob(payload["manifest"], segment.buf)
            est = self.est
            # A payload carrying a schema means the layout changed (first
            # publish, refresh onto a new snapshot, or this worker was
            # respawned): rebuild the deterministic skeleton. Weight-only
            # swaps ship ``schema=None`` and reuse it.
            if payload.get("schema") is not None or not isinstance(est, NeuroCard):
                est = NeuroCard(payload["schema"], payload["config"]).prepare()
            self.est = est.serve(CompiledResMADE(arrays))
            del arrays
            self.segment = segment
        self.version = payload["version"]
        if old_segment is not None:
            self.retired.append(old_segment)
        self._drain_retired()

    def _drain_retired(self) -> None:
        still = []
        for segment in self.retired:
            try:
                segment.close()
            except BufferError:
                still.append(segment)
            except Exception:
                pass
        self.retired = still

    def shutdown(self) -> None:
        if self.segment is not None:
            self.retired.append(self.segment)
            self.segment = None
        self.est = None
        self._drain_retired()


def _worker_main(slot: int, conn) -> None:
    """Worker loop: strictly ordered commands on one duplex pipe.

    In-band ordering is the torn-read defense: a ``("model", ...)``
    message is processed only after every batch dispatched before it, so
    a worker never serves a batch on a half-installed or wrong-version
    model. Batches stamped with a version other than the installed one
    (impossible under the parent's dispatch lock; defensive here) are
    rejected rather than silently served.
    """
    _disable_shm_tracking()
    state = _WorkerState()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return
            kind = msg[0]
            if kind == "stop":
                return
            if kind == "model":
                try:
                    # The parent's fault plan rides every model payload so a
                    # spawned (or respawned) worker joins the same chaos
                    # experiment; scope="worker-{slot}" gives each slot its
                    # own deterministic per-site schedule. Re-publishes of
                    # the same plan keep the running injector (and its hit
                    # counters) instead of resetting the schedule.
                    plan = msg[1].get("fault_plan")
                    current = faults.get_active()
                    if plan is None:
                        faults.uninstall()
                    elif current is None or current.plan != plan:
                        faults.install(plan, scope=f"worker-{slot}")
                    injector = faults.get_active()
                    if injector is not None:
                        injector.check("worker.attach")
                    state.install(msg[1])
                except BaseException as exc:
                    # Keep serving the previous model; the parent surfaces
                    # the install failure on publish(wait=True) instead of
                    # entering a crash/respawn/crash storm.
                    try:
                        conn.send(("install_error", slot, exc))
                    except Exception:
                        conn.send(
                            ("install_error", slot,
                             ServingError(f"{type(exc).__name__}: {exc}"))
                        )
                    continue
                conn.send(("ready", slot, state.version))
            elif kind == "batch":
                _, chunk_id, version, queries, rngs = msg
                try:
                    injector = faults.get_active()
                    if injector is not None:
                        injector.check("worker.crash")  # kind="crash": dies here
                        injector.check("worker.batch")
                    if state.est is None:
                        raise ServingError("worker has no model installed")
                    if version != state.version:
                        raise ServingError(
                            f"worker holds model version {state.version} but "
                            f"received a batch for version {version}"
                        )
                    values = state.est.estimate_batch(queries, rngs=rngs)
                    conn.send(("result", slot, chunk_id, [float(v) for v in values]))
                except BaseException as exc:
                    try:
                        conn.send(("error", slot, chunk_id, exc))
                    except Exception:  # unpicklable exception: describe it
                        conn.send(
                            ("error", slot, chunk_id,
                             ServingError(f"{type(exc).__name__}: {exc}"))
                        )
    finally:
        state.shutdown()


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
class _PendingBatch:
    """One submit_batch call: a future gathering its shards in order."""

    __slots__ = ("future", "results", "remaining", "failed")

    def __init__(self, n: int):
        self.future: Future = Future()
        self.results = np.zeros(n, dtype=np.float64)
        self.remaining = 0
        self.failed = False


class _Handle:
    """Parent-side view of one worker process."""

    __slots__ = (
        "slot", "proc", "conn", "send_lock", "inflight",
        "ready_version", "install_error", "alive",
    )

    def __init__(self, slot: int, proc, conn):
        self.slot = slot
        self.proc = proc
        self.conn = conn
        self.send_lock = threading.Lock()
        #: chunk_id -> (_PendingBatch, positions into its results array)
        self.inflight: Dict[int, Tuple[_PendingBatch, np.ndarray]] = {}
        self.ready_version: Optional[int] = None
        self.install_error: Optional[BaseException] = None
        self.alive = True

    def send(self, msg) -> None:
        with self.send_lock:
            self.conn.send(msg)


class WorkerPool:
    """N estimator processes behind the scheduler's batched-executor hook.

    One way in: pass ``executor=pool`` to
    :class:`~repro.serving.scheduler.MicroBatchScheduler` (the service does
    this when ``ServingConfig.workers > 0``), and every flushed micro-batch
    is sharded across the least-loaded workers via :meth:`submit_batch`.
    :meth:`publish` installs a model version ahead of traffic (the service
    calls it on every registry swap; ``submit_batch`` publishes a version
    it has not seen yet).

    Workers are started with ``spawn``: they import numpy fresh instead of
    inheriting a forked BLAS state mid-operation, and the cost is paid once
    per worker, not per request.
    """

    def __init__(
        self,
        *,
        n_workers: Optional[int] = None,
        name: str = "pool",
        min_shard: int = 4,
    ):
        if n_workers is not None and n_workers < 1:
            raise ServingError("n_workers must be >= 1")
        if min_shard < 1:
            raise ServingError("min_shard must be >= 1")
        self.n_workers = n_workers if n_workers is not None else (os.cpu_count() or 1)
        self.name = name
        self.min_shard = min_shard
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: Serializes every pipe write of "model"/"batch" messages, so the
        #: per-worker message order always matches version bookkeeping
        #: (a batch stamped v is never sent after the model message for
        #: v+1). Never held across anything that needs the collector.
        self._dispatch_lock = threading.Lock()
        self._handles: List[_Handle] = []
        self._collector: Optional[threading.Thread] = None
        self._wake_r, self._wake_w = multiprocessing.Pipe(duplex=False)
        self._segments: Dict[int, shared_memory.SharedMemory] = {}
        self._finalizer = weakref.finalize(self, _unlink_segments, self._segments)
        self._published_version: Optional[int] = None
        self._current_payload: Optional[dict] = None
        self._shipped_context: Optional[tuple] = None
        self._chunk_ids = itertools.count()
        self._closed = False
        # Telemetry (guarded writes, approximate reads).
        self.respawns = 0
        self.batches = 0
        self.chunks = 0
        self.inline_fallbacks = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_started_locked(self) -> None:
        if self._handles:
            return
        for slot in range(self.n_workers):
            self._handles.append(self._spawn(slot))
        self._collector = threading.Thread(
            target=self._collect, name=f"pool-collector-{self.name}", daemon=True
        )
        self._collector.start()

    def _spawn(self, slot: int) -> _Handle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(slot, child_conn),
            name=f"estimator-worker-{self.name}-{slot}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        return _Handle(slot, proc, parent_conn)

    def warm(self, timeout: float = 120.0) -> None:
        """Spawn the workers and wait for the published model to attach."""
        with self._lock:
            if self._closed:
                raise ServingError(f"worker pool {self.name!r} is closed")
            self._ensure_started_locked()
            version = self._published_version
        if version is not None:
            self._await_ready(version, timeout)

    def worker_pids(self) -> List[int]:
        """PIDs of the live workers (test fault injection targets these)."""
        with self._lock:
            return [h.proc.pid for h in self._handles if h.alive]

    def close(self) -> None:
        """Drain in-flight shards, stop the workers, unlink every segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles)
            self._cond.notify_all()
        for handle in handles:
            if handle.alive:
                try:
                    handle.send(("stop",))
                except Exception:
                    pass
        for handle in handles:
            handle.proc.join(timeout=10)
            if handle.proc.is_alive():  # pragma: no cover - stuck worker
                handle.proc.terminate()
                handle.proc.join(timeout=5)
        try:
            self._wake_w.send(None)
        except Exception:
            pass
        if self._collector is not None:
            self._collector.join(timeout=10)
        with self._lock:
            stranded = [
                entry for h in handles for entry in h.inflight.values()
            ]
            for handle in handles:
                handle.inflight.clear()
        for pending, _positions in stranded:
            self._fail_batch(
                pending,
                ServingError(f"worker pool {self.name!r} closed with requests in flight"),
            )
        _unlink_segments(self._segments)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Publishing versioned model blobs
    # ------------------------------------------------------------------
    def publish(self, model, version: Optional[int] = None, *,
                wait: bool = True, timeout: float = 120.0) -> int:
        """Install ``model`` as an immutable versioned blob on every worker.

        Idempotent for versions at or below the published one. With
        ``wait``, blocks until every live worker has attached the version
        (surfacing any worker-side install failure); without, workers
        attach in-band before their next batch.
        """
        with self._lock:
            if self._closed:
                raise ServingError(f"worker pool {self.name!r} is closed")
            self._ensure_started_locked()
            if version is None:
                version = (self._published_version or 0) + 1
        with self._dispatch_lock:
            if self._published_version is None or version > self._published_version:
                self._publish_dispatch_locked(model, version)
        if wait:
            self._await_ready(version, timeout)
        return version

    def _publish_dispatch_locked(self, model, version: int) -> None:
        payload, segment = self._build_payload(model, version)
        with self._lock:
            if segment is not None:
                self._segments[version] = segment
            self._published_version = version
            self._current_payload = payload
            handles = [h for h in self._handles if h.alive]
        slim = self._slim_payload(payload)
        for handle in handles:
            try:
                handle.send(("model", slim))
            except Exception:
                pass  # the collector handles the death and respawns
        self._shipped_context = self._context_key(payload)

    @staticmethod
    def _context_key(payload: dict) -> Optional[tuple]:
        if payload["transport"] != "shared":
            return None
        return (id(payload["schema"]), id(payload["config"]))

    def _slim_payload(self, payload: dict) -> dict:
        """Drop schema/config when the workers' skeleton already matches.

        The schema carries the actual column data (workers need it to
        rebuild counts/sampler), so weight-only republishes to already-
        initialized workers skip shipping it. Respawned workers always get
        the retained full payload.
        """
        key = self._context_key(payload)
        if key is None or key != self._shipped_context:
            return payload
        slim = dict(payload)
        slim["schema"] = None
        slim["config"] = None
        return slim

    def _build_payload(self, model, version: int):
        """``(payload, segment)`` for one immutable model version.

        Fitted estimators export their kernel table through shared memory
        (zero-copy on attach); anything else — duck-typed test models, bare
        oracle engines — ships as one pickled blob. When a fault plan is installed
        in this (parent) process it rides along, so worker processes run
        the same chaos experiment under their own per-slot scopes.
        """
        injector = faults.get_active()
        fault_plan = injector.plan if injector is not None else None
        if isinstance(model, NeuroCard) and model.compiled is not None:
            arrays = model.compiled.export_state()
            manifest, nbytes = pack_layout(arrays)
            segment = shared_memory.SharedMemory(create=True, size=nbytes)
            write_blob(arrays, manifest, segment.buf)
            payload = {
                "transport": "shared",
                "version": version,
                "shm": segment.name,
                "manifest": manifest,
                "schema": model.schema,
                "config": model.config,
                "fault_plan": fault_plan,
            }
            return payload, segment
        try:
            blob = pickle.dumps(model)
        except Exception as exc:
            raise ServingError(
                f"model {type(model).__name__} is neither shared-memory "
                "exportable (NeuroCard) nor picklable; cannot serve it "
                "from a worker pool"
            ) from exc
        return {
            "transport": "pickle",
            "version": version,
            "blob": blob,
            "fault_plan": fault_plan,
        }, None

    def _await_ready(self, version: int, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        with self._lock:
            while True:
                for handle in self._handles:
                    if handle.alive and handle.install_error is not None:
                        error = ServingError(
                            f"worker {handle.slot} of pool {self.name!r} "
                            f"failed to install model version {version}"
                        )
                        error.__cause__ = handle.install_error
                        raise error
                live = [h for h in self._handles if h.alive]
                if live and all(
                    h.ready_version is not None and h.ready_version >= version
                    for h in live
                ):
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ServingError(
                        f"pool {self.name!r} workers did not attach model "
                        f"version {version} within {timeout:.0f}s"
                    )
                self._cond.wait(timeout=min(remaining, 0.25))

    # ------------------------------------------------------------------
    # Batched executor surface (the scheduler hook)
    # ------------------------------------------------------------------
    def submit_batch(
        self,
        model,
        version: int,
        queries: Sequence[Query],
        *,
        rngs: Sequence[np.random.Generator],
    ) -> Future:
        """Shard one micro-batch across the pool; future -> ordered array.

        Publishes ``version`` first when it is ahead of the pool (the
        in-band model message precedes the shards on every worker pipe, so
        post-swap dispatches can never be served by a stale version). A
        ``version`` *behind* the pool means the caller's source read raced
        a newer swap — that batch runs inline on the model object the
        caller already holds, mirroring the scheduler's "in-flight batches
        finish on the old model" contract.
        """
        queries = list(queries)
        rngs = list(rngs)
        if len(rngs) != len(queries):
            raise ServingError(
                f"submit_batch needs one rng per query "
                f"({len(rngs)} != {len(queries)})"
            )
        with self._lock:
            if self._closed:
                raise ServingError(f"worker pool {self.name!r} is closed")
            self._ensure_started_locked()
        injector = faults.get_active()
        if injector is not None:
            injector.check("worker.dispatch")  # raises into the caller's try
        self._await_capacity()
        pending = _PendingBatch(len(queries))
        assignments = None
        with self._dispatch_lock:
            published = self._published_version
            if published is None or version > published:
                self._publish_dispatch_locked(model, version)
                published = version
            if version < published:
                with self._lock:
                    self.inline_fallbacks += 1
            else:
                assignments = self._assign_chunks(pending, len(queries))
                for handle, chunk_id, lo, hi in assignments:
                    try:
                        handle.send(
                            ("batch", chunk_id, version,
                             queries[lo:hi], rngs[lo:hi])
                        )
                    except Exception as exc:
                        with self._lock:
                            handle.inflight.pop(chunk_id, None)
                        error = ServingError(
                            f"worker {handle.slot} of pool {self.name!r} "
                            "is unreachable"
                        )
                        error.__cause__ = exc
                        self._fail_batch(pending, error)
        if assignments is None:  # stale version: inline on the caller's model
            try:
                pending.future.set_result(
                    np.asarray(model.estimate_batch(queries, rngs=rngs), dtype=np.float64)
                )
            except BaseException as exc:
                pending.future.set_exception(exc)
        return pending.future

    def _await_capacity(self) -> None:
        """Soft backpressure: block while every worker is at MAX_INFLIGHT.

        Blocking the caller (the scheduler's flusher) is the feature: new
        submits keep queueing behind it and coalesce into larger
        micro-batches, exactly like inline execution time used to provide.
        """
        with self._lock:
            while not self._closed:
                live = [h for h in self._handles if h.alive]
                if live and min(len(h.inflight) for h in live) < MAX_INFLIGHT:
                    return
                self._cond.wait(timeout=0.1)
            raise ServingError(f"worker pool {self.name!r} is closed")

    def _assign_chunks(self, pending: _PendingBatch, n: int):
        with self._lock:
            live = sorted(
                (h for h in self._handles if h.alive),
                key=lambda h: len(h.inflight),
            )
            if not live:
                raise ServingError(f"worker pool {self.name!r} has no live workers")
            n_chunks = min(len(live), max(1, -(-n // self.min_shard)))
            base, extra = divmod(n, n_chunks)
            assignments = []
            at = 0
            for i in range(n_chunks):
                size = base + (1 if i < extra else 0)
                if size == 0:
                    continue
                chunk_id = next(self._chunk_ids)
                handle = live[i]
                handle.inflight[chunk_id] = (
                    pending, np.arange(at, at + size)
                )
                pending.remaining += 1
                assignments.append((handle, chunk_id, at, at + size))
                at += size
            self.batches += 1
            self.chunks += len(assignments)
        return assignments

    # ------------------------------------------------------------------
    # Collector: results, version acks, worker death
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        while True:
            with self._lock:
                conns = {h.conn: h for h in self._handles if h.alive}
                closed = self._closed
            if not conns:
                if closed:
                    return
                time.sleep(0.01)
                continue
            ready = connection.wait(list(conns) + [self._wake_r], timeout=1.0)
            for obj in ready:
                if obj is self._wake_r:
                    try:
                        self._wake_r.recv()
                    except (EOFError, OSError):
                        pass
                    continue
                handle = conns[obj]
                try:
                    msg = obj.recv()
                except (EOFError, OSError):
                    self._on_worker_death(handle)
                    continue
                self._on_message(handle, msg)

    def _on_message(self, handle: _Handle, msg) -> None:
        kind = msg[0]
        if kind == "ready":
            with self._lock:
                handle.ready_version = msg[2]
                handle.install_error = None
                self._cond.notify_all()
            self._gc_segments()
        elif kind == "install_error":
            with self._lock:
                handle.install_error = msg[2]
                self._cond.notify_all()
        elif kind in ("result", "error"):
            _, _slot, chunk_id, payload = msg
            with self._lock:
                entry = handle.inflight.pop(chunk_id, None)
                self._cond.notify_all()
            if entry is None:
                return  # batch already failed fast (death race)
            pending, positions = entry
            if kind == "result":
                self._complete_chunk(pending, positions, payload)
            else:
                self._fail_batch(pending, payload)

    def _complete_chunk(self, pending: _PendingBatch, positions, values) -> None:
        with self._lock:
            if pending.failed:
                return
            pending.results[positions] = values
            pending.remaining -= 1
            done = pending.remaining == 0
        if done:
            # Outside the lock: done-callbacks (the scheduler's completion)
            # run synchronously on this collector thread.
            pending.future.set_result(pending.results)

    def _fail_batch(self, pending: _PendingBatch, exc: BaseException) -> None:
        with self._lock:
            if pending.failed:
                return
            pending.failed = True
        pending.future.set_exception(exc)

    def _on_worker_death(self, handle: _Handle) -> None:
        with self._lock:
            if not handle.alive:
                return
            handle.alive = False
            stranded = list(handle.inflight.values())
            handle.inflight.clear()
            closed = self._closed
            if not closed:
                self.respawns += 1
            self._cond.notify_all()
        try:
            handle.conn.close()
        except Exception:
            pass
        if closed:
            return
        handle.proc.join(timeout=1)
        exitcode = handle.proc.exitcode
        for pending, _positions in stranded:
            error = ServingError(
                f"worker {handle.slot} of pool {self.name!r} died mid-batch; "
                "its in-flight shards failed fast and the worker was respawned"
            )
            error.__cause__ = RuntimeError(
                f"worker process exited with code {exitcode}"
            )
            self._fail_batch(pending, error)
        # Respawn into the same slot and replay the current model version,
        # so recovered workers serve bitwise the same blob as the others.
        replacement = self._spawn(handle.slot)
        with self._lock:
            self._handles[handle.slot] = replacement
            payload = self._current_payload
        if payload is not None:
            try:
                replacement.send(("model", payload))
            except Exception:
                pass

    def _gc_segments(self) -> None:
        """Unlink blob versions every worker has moved past.

        Safe because the dispatch lock orders each worker's pipe: all
        batches stamped with an old version precede the newer model
        message, so a worker acking version v has no pre-v work left.
        """
        with self._lock:
            live = [h for h in self._handles if h.alive]
            if not live:
                return
            min_ready = min(
                (h.ready_version if h.ready_version is not None else -1)
                for h in live
            )
            victims = [
                v for v in self._segments
                if v < min_ready and v != self._published_version
            ]
            segments = [self._segments.pop(v) for v in victims]
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except Exception:
                pass

    # ------------------------------------------------------------------
    @property
    def shared_bytes(self) -> int:
        """Bytes of published shared-memory blobs (one copy serves N workers)."""
        with self._lock:
            return sum(segment.size for segment in self._segments.values())

    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "workers": sum(1 for h in self._handles if h.alive),
                "respawns": self.respawns,
                "batches": self.batches,
                "chunks": self.chunks,
                "inline_fallbacks": self.inline_fallbacks,
                "inflight": sum(len(h.inflight) for h in self._handles),
                "published_version": (
                    self._published_version if self._published_version is not None else -1
                ),
                "shared_segments": len(self._segments),
                "shared_bytes": sum(s.size for s in self._segments.values()),
            }
