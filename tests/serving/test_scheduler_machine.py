"""The scheduler as a state machine: generated interleavings against its invariants.

``test_scheduler.py`` steps hand-written scenarios one batch at a time;
this file draws them. Rules submit (a valid seed, a bad seed, an already
expired deadline), cancel a pending request, let the batch in the model
finish or fail, and hot-swap the source to a new version. The model is a
:class:`GatedModel`, so every batch waits inside ``estimate_batch`` until a
rule lets it go; ``max_wait_us=0`` makes the flusher take whatever is
queued as soon as it is free. Invariants, after every rule:

* ``outstanding`` is never negative, never above the requests still
  pending, and 0 once none is;
* no batch holds more than ``max_batch`` requests;
* no future resolves twice, and the flusher never dies (a bad seed fails
  its own ``submit`` with ``QueryError``, nothing else);
* at the end, every future resolved exactly once, with an outcome its
  request allows: a valid request an answer from a version at least the
  one it was submitted under (or its batch's failure, or a cancel), an
  expired one ``DeadlineError`` (or a cancel).

The profile is derandomized and bounded, so tier-1 stays deterministic.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import List, Tuple

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.errors import DeadlineError, QueryError
from repro.relational.query import Query
from repro.serving import MicroBatchScheduler
from tests.serving.test_scheduler import GatedModel

MAX_BATCH = 3
QUERY = Query.make(["T"])
#: Wall-clock bound on any one wait for the flusher (a hang fails, not stalls).
WAIT_S = 10.0


class StepGate(GatedModel):
    """A :class:`GatedModel` that also signals when a released batch is over."""

    def __init__(self):
        super().__init__(tag=0.0)
        self.finished = threading.Semaphore(0)

    def estimate_batch(self, queries, rngs=None):
        try:
            return super().estimate_batch(queries, rngs)
        finally:
            self.finished.release()


class SchedulerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.gate = StepGate()
        self.version = 0
        self.scheduler = MicroBatchScheduler(
            lambda: (self.gate, self.version), max_batch=MAX_BATCH, max_wait_us=0
        )
        #: (future, "valid" | "expired", version at submit)
        self.requests: List[Tuple[Future, str, int]] = []
        self.resolutions: List[int] = []

    # ------------------------------------------------------------------
    def _track(self, future: Future, kind: str) -> None:
        index = len(self.resolutions)
        self.resolutions.append(0)

        def resolved(_future: Future) -> None:
            self.resolutions[index] += 1

        future.add_done_callback(resolved)
        self.requests.append((future, kind, self.version))

    def _pending(self) -> List[Future]:
        return [future for future, _, _ in self.requests if not future.done()]

    def _step(self, fail: bool) -> None:
        """Let the batch in the model end (a failure if ``fail``); when the
        pending requests never reach the model (all cancelled or expired),
        wait until the flusher has dropped them."""
        give_up = time.monotonic() + WAIT_S
        while self._pending():
            if self.gate._entered.acquire(timeout=0.005):
                self.gate.fail = fail
                self.gate.release()
                assert self.gate.finished.acquire(timeout=WAIT_S), "batch never ended"
                self.gate.fail = False
                return
            assert time.monotonic() < give_up, "requests pending, but no batch started"

    # ------------------------------------------------------------------
    @rule(seed=st.one_of(st.none(), st.integers(0, 2**32)))
    def submit(self, seed):
        self._track(self.scheduler.submit(QUERY, seed=seed), "valid")

    @rule(seed=st.sampled_from([-1, True, 1.5, "7"]))
    def submit_bad_seed(self, seed):
        requests = self.scheduler.stats()["requests"]
        with pytest.raises(QueryError, match="seed"):
            self.scheduler.submit(QUERY, seed=seed)
        assert self.scheduler.stats()["requests"] == requests

    @rule()
    def submit_expired(self):
        self._track(
            self.scheduler.submit(QUERY, deadline=time.monotonic() - 1.0), "expired"
        )

    @precondition(lambda self: self._pending())
    @rule(data=st.data())
    def cancel(self, data):
        data.draw(st.sampled_from(self._pending())).cancel()

    @precondition(lambda self: self._pending())
    @rule(fail=st.booleans())
    def step(self, fail):
        self._step(fail)

    @rule()
    def bump_version(self):
        self.version += 1
        self.gate.tag = float(self.version)

    # ------------------------------------------------------------------
    @invariant()
    def counts_hold(self):
        pending = len(self._pending())  # read first: counts only fall in between
        stats = self.scheduler.stats()
        assert 0 <= stats["outstanding"] <= pending
        if not pending:
            assert stats["outstanding"] == 0
        assert all(size <= MAX_BATCH for size in self.gate.batch_sizes)
        assert all(count <= 1 for count in self.resolutions)
        assert self.scheduler._flusher_failure is None
        assert self.scheduler._flusher.is_alive()

    def teardown(self):
        try:
            while self._pending():
                self._step(False)
            for (future, kind, version), count in zip(self.requests, self.resolutions):
                assert count == 1
                if future.cancelled():
                    continue
                error = future.exception()
                if kind == "expired":
                    assert isinstance(error, DeadlineError)
                elif error is not None:
                    assert isinstance(error, RuntimeError) and "exploded" in str(error)
                else:
                    assert future.result() >= version
            assert self.scheduler.stats()["outstanding"] == 0
        finally:
            for _ in range(len(self.requests) + 1):  # never strand close() on the gate
                self.gate.release()
            self.scheduler.close()


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = settings(
    derandomize=True,
    database=None,
    max_examples=30,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

