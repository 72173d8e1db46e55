"""Closed-loop load generation and windowed statistics.

The callers this benchmark models are optimizer threads that each wait for
a reply, so every workload is a closed loop: a client sends its next
request only when an earlier one has completed. Clients append one record
per completed call; windows are cut afterwards from completion times, so
the hot loop holds no window logic.

A record is ``(t_end, latency_s, k, values, tier)``: ``k`` is the request's
serial number (its query is ``queries[k % len(queries)]``, its pinned seed
``seed_base + k``), ``values`` the estimates the call returned (``None``
for a failed call) and ``tier`` the cascade tier named in the reply.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

Record = Tuple[float, float, int, Optional[Sequence[float]], Optional[str]]
Client = Callable[[List[Record], threading.Event], None]

#: A client that fails this many calls stops issuing (a dead server must
#: not turn the loop into a busy spin); every failure is still counted.
MAX_CLIENT_FAILURES = 50

#: Below this many calls a window's own percentiles are too coarse and the
#: run's samples are pooled instead.
MIN_WINDOW_CALLS = 200


class RequestStream:
    """Serial numbers for one client thread: ``thread, thread + n, ...``.

    The position survives across load phases, so a request's pinned seed is
    unique for the whole run and the result cache could never hit even if
    it were on.
    """

    def __init__(self, queries: Sequence, seed_base: int, thread: int, n_threads: int):
        self.queries = queries
        self.seed_base = seed_base
        self.k = thread
        self.stride = n_threads

    def next(self):
        k = self.k
        self.k += self.stride
        return k, self.queries[k % len(self.queries)], self.seed_base + k


def batch_client(model, queries: Sequence, batch: int) -> Client:
    """One ``estimate_batch`` of ``batch`` consecutive queries per call."""
    n_batches = len(queries) // batch

    def client(records: List[Record], stop: threading.Event) -> None:
        call = 0
        while not stop.is_set():
            lo = (call % n_batches) * batch
            start = time.perf_counter()
            values = model.estimate_batch(queries[lo : lo + batch])
            end = time.perf_counter()
            records.append((end, end - start, lo, values, None))
            call += 1

    return client


def wire_client(make_http, stream: RequestStream) -> Client:
    """One HTTP estimate request in flight on this thread's own connection."""

    def client(records: List[Record], stop: threading.Event) -> None:
        http = make_http()
        failures = 0
        try:
            while not stop.is_set() and failures < MAX_CLIENT_FAILURES:
                k, query, seed = stream.next()
                start = time.perf_counter()
                try:
                    value = http.estimate(query, seed=seed)
                except Exception:  # noqa: BLE001 - counted as a failed call
                    failures += 1
                    records.append((time.perf_counter(), float("nan"), k, None, None))
                    continue
                end = time.perf_counter()
                records.append((end, end - start, k, (value,), http.last_tier))
        finally:
            http.close()

    return client


def submit_client(service, stream: RequestStream, depth: int) -> Client:
    """``depth`` in-process ``service.submit`` calls in flight per thread.

    Latency is per request, submit to completion: a done-callback stamps
    the completion, so a result that sits behind an older one in this
    client's queue is not charged for the wait.
    """

    def client(records: List[Record], stop: threading.Event) -> None:
        inflight: deque = deque()
        failures = 0
        while failures < MAX_CLIENT_FAILURES:
            while len(inflight) < depth and not stop.is_set():
                k, query, seed = stream.next()
                done: List[float] = []
                start = time.perf_counter()
                try:
                    future = service.submit(query, seed=seed)
                except Exception:  # noqa: BLE001 - counted as a failed call
                    failures += 1
                    records.append((time.perf_counter(), float("nan"), k, None, None))
                    continue
                future.add_done_callback(lambda _f, d=done: d.append(time.perf_counter()))
                inflight.append((future, start, k, done))
            if not inflight:
                return
            future, start, k, done = inflight.popleft()
            try:
                value = future.result(timeout=60)
            except Exception:  # noqa: BLE001 - counted as a failed call
                failures += 1
                records.append((time.perf_counter(), float("nan"), k, None, None))
                continue
            end = done[0] if done else time.perf_counter()
            records.append((end, end - start, k, (value,), getattr(future, "tier", None)))

    return client


class RunningClients:
    """Client threads running in the background of a ``with`` block.

    The block's body decides how long they run (a sleep for the windowed
    workloads, the refresh cycles for ``refresh_under_load``); leaving the
    block stops and joins them, after which ``records`` holds every call
    ordered by completion.
    """

    def __init__(self, clients: Sequence[Client]):
        self._per_thread: List[List[Record]] = [[] for _ in clients]
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=client, args=(records, self._stop), name=f"client-{i}")
            for i, (client, records) in enumerate(zip(clients, self._per_thread))
        ]
        self.records: List[Record] = []

    def __enter__(self) -> "RunningClients":
        self.start = time.perf_counter()
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=120)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not stop within 120 s")
        self.records = sorted(
            (r for records in self._per_thread for r in records), key=lambda r: r[0]
        )


@dataclass
class LoadStats:
    """Windowed summary of one load phase (warm-up excluded)."""

    attempted: int
    failed: int
    estimates: int
    window_qps: List[float]
    throughput_qps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    pooled: bool
    measured: List[Record]
    warmup: List[Record]
    #: Every call of the phase, in or out of a window (the server's
    #: counters are reconciled against these).
    issued: int
    issued_failed: int


def _percentiles_ms(latencies: Sequence[float]) -> Tuple[float, float, float]:
    p50, p95, p99 = np.percentile(np.asarray(latencies, dtype=np.float64), [50, 95, 99])
    return float(p50) * 1e3, float(p95) * 1e3, float(p99) * 1e3


def _rate(window: Sequence[Record], width: float) -> float:
    """Estimates per second inside one window.

    Timed between the window's first and last completion rather than over
    its nominal width, so the figure does not move in steps of one call.
    """
    done = [r for r in window if r[3] is not None]
    if len(done) < 2 or done[-1][0] <= done[0][0]:
        return sum(len(r[3]) for r in done) / width
    return sum(len(r[3]) for r in done[1:]) / (done[-1][0] - done[0][0])


def summarize(
    records: Sequence[Record],
    windows: Sequence[Tuple[float, float]],
    warmup_end: float,
) -> LoadStats:
    """The least disturbed window of the phase speaks for it.

    On a shared machine contention only ever slows a window down, in bursts
    of seconds to minutes, so the fastest window's rate and the lowest
    per-window latency percentiles are the steadiest reading of the same
    code (README, "Load shape"). Where a window holds too few calls for its
    own percentiles the run's samples are pooled.
    """
    warmup = [r for r in records if r[0] < warmup_end]
    per_window: List[List[Record]] = [
        [r for r in records if lo <= r[0] < hi] for lo, hi in windows
    ]
    measured = [r for window in per_window for r in window]
    ok = [r for r in measured if r[3] is not None]
    if not ok:
        raise RuntimeError("no call completed inside a measured window")
    window_qps = [_rate(window, hi - lo) for window, (lo, hi) in zip(per_window, windows)]
    window_ok = [[r[1] for r in window if r[3] is not None] for window in per_window]
    pooled = min(len(lat) for lat in window_ok) < MIN_WINDOW_CALLS
    if pooled:
        p50, p95, p99 = _percentiles_ms([r[1] for r in ok])
    else:
        p50, p95, p99 = (min(column) for column in zip(*map(_percentiles_ms, window_ok)))
    return LoadStats(
        attempted=len(measured),
        failed=len(measured) - len(ok),
        estimates=sum(len(r[3]) for r in ok),
        window_qps=window_qps,
        throughput_qps=max(window_qps),
        latency_p50_ms=p50,
        latency_p95_ms=p95,
        latency_p99_ms=p99,
        pooled=pooled,
        measured=measured,
        warmup=warmup,
        issued=len(records),
        issued_failed=sum(1 for r in records if r[3] is None),
    )


def run_phase(
    clients: Sequence[Client], warmup_s: float, n_windows: int, window_s: float
) -> LoadStats:
    """Warm-up (discarded) followed by ``n_windows`` windows of ``window_s``."""
    with RunningClients(clients) as running:
        time.sleep(warmup_s + n_windows * window_s)
    first = running.start + warmup_s
    windows = [(first + i * window_s, first + (i + 1) * window_s) for i in range(n_windows)]
    return summarize(running.records, windows, first)


def tier_counts(records: Sequence[Record]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in records:
        if record[3] is not None and record[4] is not None:
            counts[record[4]] = counts.get(record[4], 0) + 1
    return counts
