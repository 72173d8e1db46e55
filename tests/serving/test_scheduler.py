"""MicroBatchScheduler: coalescing, flush timing, fresh answers, failure semantics."""

import sys
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor

import numpy as np
import pytest

from repro.errors import DeadlineError, QueryError, ServingError
from repro.relational.query import Query
from repro.serving import MicroBatchScheduler
from tests.core.oracle import FixedBudget
from tests.serving.conftest import FakeModel


def fixed_source(model, version=0):
    return lambda: (model, version)


class GatedModel(FakeModel):
    """Every batch stops inside ``estimate_batch`` until the test releases it.

    The test thread plays the callers and steps the scheduler one batch at
    a time, so which requests share a batch is decided by the coalescing
    policy alone, never by how fast this machine happens to run.
    """

    def __init__(self, tag: float = 1.0):
        super().__init__(tag)
        self._entered = threading.Semaphore(0)
        self._proceed = threading.Semaphore(0)
        self.entered_at = 0.0

    def estimate_batch(self, queries, rngs=None):
        self.entered_at = time.perf_counter()
        self.calls += 1
        self.batch_sizes.append(len(queries))
        self._entered.release()
        assert self._proceed.acquire(timeout=30), "test never released the batch"
        if self.fail:
            raise RuntimeError(f"model {self.tag} exploded")
        return np.full(len(queries), float(self.tag))

    def wait_entered(self) -> None:
        assert self._entered.acquire(timeout=30), "no batch started"

    def release(self) -> None:
        self._proceed.release()

    def step(self) -> int:
        """Let the next batch run to completion; returns its size."""
        self.wait_entered()
        size = self.batch_sizes[-1]
        self.release()
        return size


class ThreadExecutor:
    """The ``executor=`` protocol on a thread: batches run off the flusher,
    as they do on a :class:`~repro.serving.workers.WorkerPool`."""

    def __init__(self):
        self._threads = ThreadPoolExecutor(max_workers=4)

    def submit_batch(self, model, version, queries, *, rngs):
        return self._threads.submit(model.estimate_batch, queries, rngs=rngs)

    def close(self) -> None:
        self._threads.shutdown()


@pytest.fixture(params=["inline", "pool"])
def executor(request):
    """None (batches run on the flusher) or an off-flusher executor."""
    if request.param == "inline":
        yield None
        return
    pool = ThreadExecutor()
    yield pool
    pool.close()


def prime(scheduler, gate, n):
    """Bring ``scheduler`` to ``n`` known callers, all resolved.

    One caller's batch is held inside the model while the other ``n - 1``
    arrive; it then comes back, and the batch of ``n`` runs.
    """
    q = Query.make(["T"])
    futures = [scheduler.submit(q)]
    gate.wait_entered()
    futures += [scheduler.submit(q) for _ in range(n - 1)]
    gate.release()
    futures[0].result(timeout=30)
    if n > 1:
        futures[0] = scheduler.submit(q)
        assert gate.step() == n
    for future in futures:
        future.result(timeout=30)
    assert scheduler.stats()["expected_concurrency"] == n


class TestCoalescing:
    def test_concurrent_submits_share_batches(self):
        model = FakeModel(tag=7.0, delay=0.02)
        q = Query.make(["T"])
        with MicroBatchScheduler(
            fixed_source(model), max_batch=64, max_wait_us=5_000
        ) as scheduler:
            # First request occupies the flusher (20ms model delay); the
            # rest pile up and must coalesce into far fewer batches.
            futures = [scheduler.submit(q)]
            time.sleep(0.005)
            futures += [scheduler.submit(q) for _ in range(15)]
            results = [f.result(timeout=10) for f in futures]
        assert results == [7.0] * 16
        assert model.calls <= 4
        assert scheduler.stats()["mean_batch_size"] > 1.0

    def test_full_batch_flushes_before_deadline(self):
        model = FakeModel(tag=1.0)
        q = Query.make(["T"])
        with MicroBatchScheduler(
            fixed_source(model), max_batch=4, max_wait_us=5_000_000
        ) as scheduler:
            start = time.perf_counter()
            futures = [scheduler.submit(q) for _ in range(4)]
            for f in futures:
                f.result(timeout=10)
            elapsed = time.perf_counter() - start
        # A full batch must not sit out the 5s max-wait window.
        assert elapsed < 2.0

    def test_max_wait_flush_timing(self):
        """``max_wait_us`` bounds the wait for a straggler, and only that.

        A lone caller is every caller there is, so its batch starts at once
        (the window here is a minute: waiting it out would time the test
        out). Once a second caller has been seen and then stays away, the
        batch waits for it the full window and then goes alone.
        """
        model = FakeModel(tag=1.0)
        q = Query.make(["T"])
        with MicroBatchScheduler(
            fixed_source(model), max_batch=64, max_wait_us=60_000_000
        ) as scheduler:
            for _ in range(3):
                assert scheduler.submit(q).result(timeout=10) == 1.0
        assert model.batch_sizes == [1, 1, 1]

        gate = GatedModel()
        with MicroBatchScheduler(
            fixed_source(gate), max_batch=64, max_wait_us=60_000
        ) as scheduler:
            prime(scheduler, gate, 2)
            start = time.perf_counter()
            lone = scheduler.submit(q)
            gate.wait_entered()
            waited = gate.entered_at - start
            gate.release()
            assert lone.result(timeout=10) == 1.0
        assert gate.batch_sizes[-1] == 1
        assert waited >= 0.06  # the straggler got its whole window

    def test_done_callback_may_resubmit(self):
        """Futures resolve outside the scheduler lock, so async chaining works."""
        model = FakeModel(tag=2.0)
        q = Query.make(["T"])
        with MicroBatchScheduler(
            fixed_source(model), max_batch=4, max_wait_us=1_000
        ) as scheduler:
            chained = {}
            submitted = threading.Event()

            def chain(_finished):
                chained["future"] = scheduler.submit(q)
                submitted.set()

            scheduler.submit(q).add_done_callback(chain)
            assert submitted.wait(timeout=5)  # no deadlock on re-entry
            assert chained["future"].result(timeout=5) == 2.0

    def test_close_drains_pending_requests(self):
        model = FakeModel(tag=3.0)
        q = Query.make(["T"])
        scheduler = MicroBatchScheduler(
            fixed_source(model), max_batch=64, max_wait_us=1_000_000
        )
        futures = [scheduler.submit(q) for _ in range(5)]
        scheduler.close()  # long max-wait: close must not wait the window out
        assert [f.result(timeout=1) for f in futures] == [3.0] * 5
        with pytest.raises(ServingError):
            scheduler.submit(q)
        scheduler.close()  # idempotent


class TestExpectedConcurrency:
    """The coalescing policy, one batch at a time (see ``_next_batch``).

    Windows are a minute long wherever the policy should *not* wait for it:
    a wrong wait shows up as a timeout, not as a slow assertion.
    """

    MINUTE_US = 60_000_000

    def test_alternating_callers_are_paired_and_stay_paired(self, executor):
        gate = GatedModel()
        q = Query.make(["T"])
        with MicroBatchScheduler(
            fixed_source(gate), max_wait_us=self.MINUTE_US, executor=executor
        ) as scheduler:
            a = scheduler.submit(q)  # the only caller known: goes alone
            gate.wait_entered()
            b = scheduler.submit(q)  # arrives while a's batch runs
            gate.release()
            a.result(timeout=30)
            # b is next and a is known to exist: b's batch waits for a's
            # next request rather than running the two in alternation.
            a = scheduler.submit(q)
            assert gate.step() == 2
            for _cycle in range(3):
                assert a.result(timeout=30) == b.result(timeout=30) == 1.0
                a = scheduler.submit(q)
                b = scheduler.submit(q)
                assert gate.step() == 2
            assert a.result(timeout=30) == b.result(timeout=30) == 1.0
        assert gate.batch_sizes == [1, 2, 2, 2, 2]

    @pytest.mark.parametrize("callers, remaining", [(2, 1), (3, 2), (4, 1), (8, 7)])
    def test_departed_callers_cost_one_stall(self, executor, callers, remaining):
        """N callers, K stay: the next batch waits the window out, no later one."""
        gate = GatedModel()
        q = Query.make(["T"])
        stalled = []
        with MicroBatchScheduler(
            fixed_source(gate), max_wait_us=100_000, executor=executor
        ) as scheduler:
            prime(scheduler, gate, callers)
            for _cycle in range(3):
                start = time.perf_counter()
                futures = [scheduler.submit(q) for _ in range(remaining)]
                assert gate.step() == remaining
                # A stall lasts the whole window by construction; a batch
                # that went at once would need a 100 ms hiccup to look like one.
                stalled.append(gate.entered_at - start >= 0.1)
                for future in futures:
                    future.result(timeout=30)
            assert scheduler.stats()["outstanding"] == 0
        assert stalled == [True, False, False]

    def test_walk_longer_than_the_window_still_pairs(self):
        """Inline, where a request can sit behind a running batch for longer
        than its own window: the caller that batch frees gets a fresh one."""
        gate = GatedModel()
        q = Query.make(["T"])
        with MicroBatchScheduler(
            fixed_source(gate), max_wait_us=200_000
        ) as scheduler:
            a = scheduler.submit(q)
            gate.wait_entered()
            b = scheduler.submit(q)
            time.sleep(0.25)  # b's window runs out while a's batch runs
            gate.release()
            a.result(timeout=30)
            a = scheduler.submit(q)  # back long before 200 ms are up
            assert gate.step() == 2
            for _cycle in range(2):
                assert a.result(timeout=30) == b.result(timeout=30) == 1.0
                a = scheduler.submit(q)
                b = scheduler.submit(q)
                assert gate.step() == 2
        assert gate.batch_sizes == [1, 2, 2, 2]
        assert scheduler.stats()["short_batches"] == 0

    @staticmethod
    def slow_turn(scheduler, gate, running):
        """One turn of two callers that take longer than the 50 ms window to
        come back: the other one submits while ``running``'s batch is in the
        model, that batch ends, and nobody else shows up. Returns the queued
        request, now running alone, and whether its batch waited the window out.
        """
        queued = scheduler.submit(Query.make(["T"]))
        time.sleep(0.06)  # its own window runs out behind the batch
        freed_at = time.perf_counter()
        gate.release()
        running.result(timeout=30)
        gate.wait_entered()
        assert gate.batch_sizes[-1] == 1
        # A stall lasts the whole window by construction; a batch that went
        # at once would need a 50 ms hiccup to look like one.
        return queued, gate.entered_at - freed_at >= 0.05

    def test_fresh_windows_nobody_uses_are_opened_less_and_less(self):
        gate = GatedModel()
        stalled = []
        with MicroBatchScheduler(
            fixed_source(gate), max_wait_us=50_000
        ) as scheduler:
            running = scheduler.submit(Query.make(["T"]))
            gate.wait_entered()
            for _turn in range(7):
                running, waited = self.slow_turn(scheduler, gate, running)
                stalled.append(waited)
            gate.release()
            running.result(timeout=30)
            assert scheduler.stats()["short_batches"] == 7
        assert stalled == [True, False, True, False, False, False, True]

    def test_a_fresh_window_that_fills_clears_the_count(self):
        gate = GatedModel()
        q = Query.make(["T"])
        with MicroBatchScheduler(
            fixed_source(gate), max_wait_us=50_000
        ) as scheduler:
            a = scheduler.submit(q)
            gate.wait_entered()
            b, waited = self.slow_turn(scheduler, gate, a)
            assert waited
            a, waited = self.slow_turn(scheduler, gate, b)
            assert not waited
            # This time the freed caller is back at once: the window is used.
            b = scheduler.submit(q)
            gate.release()
            a.result(timeout=30)
            a = scheduler.submit(q)
            assert gate.step() == 2
            assert a.result(timeout=30) == b.result(timeout=30) == 1.0
            # Out of step again (a alone, b behind it): with the count
            # cleared the next fresh window opens right away, not after 3 turns.
            a = scheduler.submit(q)
            gate.wait_entered()
            b, waited = self.slow_turn(scheduler, gate, a)
            assert waited
            gate.release()
            b.result(timeout=30)

    def test_close_while_waiting_for_a_straggler_drains(self, executor):
        gate = GatedModel()
        with MicroBatchScheduler(
            fixed_source(gate), max_wait_us=self.MINUTE_US, executor=executor
        ) as scheduler:
            prime(scheduler, gate, 2)
            waiting = scheduler.submit(Query.make(["T"]))
            closer = threading.Thread(target=scheduler.close)
            closer.start()
            assert gate.step() == 1  # close() cut the wait short
            assert waiting.result(timeout=30) == 1.0
            closer.join(timeout=30)
            assert not closer.is_alive()

    def test_concurrent_callers_never_lose_a_count(self):
        """More callers than cores, short switch interval: ``outstanding``
        returns to zero and ``expected`` never exceeds the callers there are."""
        n_callers, rounds = 8, 40
        model = FakeModel(tag=1.0)
        q = Query.make(["T"])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MicroBatchScheduler(
                fixed_source(model), max_batch=64, max_wait_us=200
            ) as scheduler:

                def caller():
                    for _ in range(rounds):
                        assert scheduler.submit(q).result(timeout=30) == 1.0

                threads = [threading.Thread(target=caller) for _ in range(n_callers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                stats = scheduler.stats()
        finally:
            sys.setswitchinterval(interval)
        assert stats["outstanding"] == 0
        assert 1.0 <= stats["expected_concurrency"] <= n_callers
        assert sum(model.batch_sizes) == n_callers * rounds
        assert scheduler.queue_wait.count(model="model") == n_callers * rounds

    @pytest.mark.parametrize(
        "exit_path", ["result", "cancelled", "deadline", "batch_failure", "flusher_death"]
    )
    def test_every_exit_decrements_outstanding_once(self, exit_path):
        """A leaked count would inflate ``expected`` for good, and every
        later request would silently pay ``max_wait_us`` again."""
        gate = GatedModel()
        q = Query.make(["T"])
        scheduler = MicroBatchScheduler(fixed_source(gate), max_wait_us=1_000)
        try:
            # Hold the flusher inside a batch so the request under test is
            # still queued when its fate is decided.
            holder = scheduler.submit(q)
            gate.wait_entered()
            deadline = time.monotonic() - 1.0 if exit_path == "deadline" else None
            future = scheduler.submit(q, deadline=deadline)
            assert scheduler.stats()["outstanding"] == 2
            if exit_path == "cancelled":
                assert future.cancel()
            elif exit_path == "batch_failure":
                gate.fail = True
            elif exit_path == "flusher_death":

                def dying_flush(batch):
                    raise RuntimeError("flusher exploded")

                scheduler._flush = dying_flush
            gate.release()  # the holder's batch
            if exit_path in ("result", "batch_failure"):
                gate.step()  # the batch carrying the request under test
            expected_error = {
                "result": None,
                "cancelled": CancelledError,
                "deadline": DeadlineError,
                "batch_failure": RuntimeError,
                "flusher_death": ServingError,
            }[exit_path]
            if expected_error is None:
                assert future.result(timeout=30) == 1.0
            else:
                with pytest.raises(expected_error):
                    future.result(timeout=30)
            if exit_path == "batch_failure":
                with pytest.raises(RuntimeError):
                    holder.result(timeout=30)
            else:
                assert holder.result(timeout=30) == 1.0
            # Counted out before its caller was woken: no need to wait.
            assert scheduler.stats()["outstanding"] == 0
        finally:
            scheduler.close()


class TestFailureSemantics:
    def test_batch_failure_propagates_to_every_future(self):
        model = FakeModel(tag=0.0, fail=True)
        q = Query.make(["T"])
        with MicroBatchScheduler(
            fixed_source(model), max_batch=8, max_wait_us=2_000
        ) as scheduler:
            futures = [scheduler.submit(q) for _ in range(3)]
            for f in futures:
                with pytest.raises(RuntimeError, match="exploded"):
                    f.result(timeout=10)
            # Fail-fast, not fail-forever: the scheduler keeps serving.
            model.fail = False
            assert scheduler.submit(q).result(timeout=10) == 0.0

    def test_short_result_array_fails_batch_instead_of_hanging(self):
        class TruncatingModel(FakeModel):
            def estimate_batch(self, queries, rngs=None):
                return super().estimate_batch(queries[:1])

        model = TruncatingModel(tag=1.0, delay=0.01)
        q = Query.make(["T"])
        with MicroBatchScheduler(
            fixed_source(model), max_batch=8, max_wait_us=2_000
        ) as scheduler:
            futures = [scheduler.submit(q) for _ in range(3)]
            for f in futures:
                with pytest.raises(ServingError, match="estimates for"):
                    f.result(timeout=10)

    def test_invalid_query_fails_synchronously(self, oracle_engine):
        bad = Query.make(["R", "NOPE"])
        with MicroBatchScheduler(
            fixed_source(oracle_engine), max_batch=4, max_wait_us=1_000
        ) as scheduler:
            with pytest.raises(QueryError):
                scheduler.submit(bad)

    @pytest.mark.parametrize(
        "seeds", [[-1], [0, -1], [True], [1.5]],
        ids=["negative", "negative-after-valid", "bool", "float"],
    )
    def test_bad_seed_fails_synchronously_and_scheduler_keeps_serving(
        self, oracle_engine, workload, seeds
    ):
        q = workload[0]
        pinned = oracle_engine.estimate(q, n_samples=64, rng=np.random.default_rng(7))
        with MicroBatchScheduler(
            fixed_source(FixedBudget(oracle_engine, 64)), max_batch=4, max_wait_us=1_000
        ) as scheduler:
            valid = [scheduler.submit(q, seed=s) for s in seeds[:-1]]
            with pytest.raises(QueryError, match="seed"):
                scheduler.submit(q, seed=seeds[-1])
            assert all(f.result(timeout=30) > 0 for f in valid)
            assert scheduler.submit(q, seed=7).result(timeout=30) == pinned
            assert scheduler.submit(q, seed=np.int64(7)).result(timeout=30) == pinned


class TestOracleEquivalence:
    def test_bitwise_equal_to_sequential_path(self, oracle_engine, workload):
        """Arbitrary coalescing never changes a pinned-seed result by one bit."""
        n = 120
        sequential = [
            oracle_engine.estimate(q, n_samples=n, rng=np.random.default_rng(40 + i))
            for i, q in enumerate(workload)
        ]
        with MicroBatchScheduler(
            fixed_source(FixedBudget(oracle_engine, n)), max_batch=2, max_wait_us=500
        ) as scheduler:
            futures = [
                scheduler.submit(q, seed=40 + i) for i, q in enumerate(workload)
            ]
            coalesced = [f.result(timeout=30) for f in futures]
        assert coalesced == sequential  # bitwise, not approx


class TestFreshAnswers:
    """No result cache and no sample override: every request is computed,
    at the served model's own budget."""

    def test_nonzero_cache_size_is_rejected(self):
        with pytest.raises(ServingError, match="result cache was removed"):
            MicroBatchScheduler(fixed_source(FakeModel(tag=1.0)), cache_size=1)
        MicroBatchScheduler(fixed_source(FakeModel(tag=1.0)), cache_size=0).close()

    def test_repeated_seeded_submit_recomputes(self, oracle_engine, workload):
        q = workload[1]
        with MicroBatchScheduler(
            fixed_source(FixedBudget(oracle_engine, 64)), max_batch=4, max_wait_us=500
        ) as scheduler:
            first = scheduler.submit(q, seed=5).result(timeout=30)
            batches = scheduler.stats()["batches"]
            again = scheduler.submit(q, seed=5).result(timeout=30)
            assert scheduler.stats()["batches"] == batches + 1
        assert again == first  # same pinned stream, computed twice

    def test_answers_at_the_models_own_sample_budget(self, tiny_trained, workload):
        _, estimator = tiny_trained
        assert estimator.config.progressive_samples == 64
        with pytest.raises(TypeError, match="n_samples"):
            MicroBatchScheduler(fixed_source(estimator), n_samples=64)
        with MicroBatchScheduler(fixed_source(estimator), max_wait_us=500) as scheduler:
            served = [
                scheduler.submit(q, seed=30 + i).result(timeout=30)
                for i, q in enumerate(workload)
            ]
        direct = [
            estimator.estimate_batch([q], rngs=[np.random.default_rng(30 + i)])[0]
            for i, q in enumerate(workload)
        ]
        assert served == direct  # bitwise: same engine, same budget, batches of 1
