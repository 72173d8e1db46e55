"""The single batched walk: equivalence with the sequential oracle path.

The sequential ``estimate`` loop is the correctness oracle: given the same
per-query generator, ``estimate_batch`` must reproduce its results — bitwise
under the deterministic tabular oracle model (both paths draw identical
uniform streams and the oracle's conditionals are row-independent), and
within Monte Carlo tolerance end-to-end on a trained NeuroCard. This is
the contract that pins the walk itself (prefix dedup, per-op-class draws,
one-pass apply); ``test_compiled.py`` pins the fp32 kernels against it.
"""

import sys

import numpy as np
import pytest

from repro.core.estimator import NeuroCard
from repro.core.progressive import ProgressiveSampler
from repro.errors import EstimationError
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from tests.core.oracle import OracleModel
from tests.core.test_progressive_oracle import rich_schema
from tests.helpers import paper_figure4_schema


def oracle_sampler(schema, factorization_bits=None):
    oracle = OracleModel(schema, factorization_bits=factorization_bits)
    return ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)


class _OracleSession:
    """Test double for a model-provided session over the tabular oracle.

    Owns its prefix outright (like the compiled fold buffer): the only
    tokens it ever sees are the ones the walk hands to ``fold``, so a walk
    that folds the wrong tokens, folds late or reads early shows up as a
    wrong conditional or trips one of the protocol assertions:

    - no (row, column) is folded twice;
    - every folded id lies inside the column's domain — rows whose weight
      reached 0 ride along, and their garbage draws must still be tokens;
    - no conditional is served for a row past a column that the row folds
      afterwards (it would have been computed from a stale prefix).
    """

    def __init__(self, oracle, n_rows, kind):
        n_cols = oracle.layout.n_columns
        self.oracle = oracle
        self.tokens = np.zeros((n_rows, n_cols), dtype=np.int64)
        self.wildcard = np.ones((n_rows, n_cols), dtype=bool)
        #: Highest column whose conditional was served, per row.
        self.served = np.zeros(n_rows, dtype=np.int64)
        self.fuses_indicator_runs = kind == "fused_runs"
        self.dedup_cutoff = 0.0 if kind == "raw_rows" else None
        self.multi_calls = 0

    def fold(self, col, rows, ids):
        ids = np.asarray(ids)
        assert self.wildcard[rows, col].all(), f"column {col} folded twice"
        assert ((ids >= 0) & (ids < self.oracle.layout.domains[col])).all(), (col, ids)
        assert (self.served[rows] <= col).all(), f"column {col} folded after it was read past"
        self.tokens[rows, col] = ids
        self.wildcard[rows, col] = False

    def probs(self, rows, col):
        self.served[rows] = np.maximum(self.served[rows], col)
        return self.oracle.conditional(self.tokens[rows], col, self.wildcard[rows])

    def probs_multi(self, rows, cols):
        self.multi_calls += 1
        return [self.probs(rows, col) for col in cols]


class SessionOracle(OracleModel):
    """The tabular oracle, offering ``begin_session`` like a compiled model."""

    def __init__(self, schema, factorization_bits, kind):
        super().__init__(schema, factorization_bits=factorization_bits)
        self.kind = kind
        self.sessions = []

    def begin_session(self, n_rows):
        self.sessions.append(_OracleSession(self, n_rows, self.kind))
        return self.sessions[-1]


#: Non-empty regions with zero joint mass under ``rich_schema(seed=3)``: the
#: 1996 rows have C1 children, none of kind 1, so every row dies at C1.kind.
DIES_MID_WALK = Query.make(
    ["R", "C1"],
    [Predicate("R", "year", "=", 1996), Predicate("C1", "kind", "=", 1)],
)


def mixed_workload():
    """One batch mixing every op class and every way a query can end:
    interval, IN-set (a trie once factorized), fanout-downscaled subset,
    indicator-only, an empty region, and rows that all die mid-walk."""
    return [
        Query.make(["R"], [Predicate("R", "year", ">=", 1993)]),
        Query.make(["R", "C1"], [Predicate("C1", "kind", "IN", (0, 2, 3))]),
        Query.make(
            ["R", "C2"],
            [Predicate("C2", "score", ">", 10), Predicate("C2", "score", "<=", 40)],
        ),
        Query.make(["C1"], [Predicate("C1", "kind", "=", 2)]),  # fanout downscale
        Query.make(["R", "C1", "C2"], []),
        Query.make(["R"], [Predicate("R", "year", "=", 3000)]),  # empty region
        Query.make(["R", "C2"], [Predicate("C2", "score", "IN", (1, 7, 30, 44))]),
        Query.make(["R"], [Predicate("R", "year", "=", 1995)]),
        DIES_MID_WALK,
    ]


class TestOracleEquivalence:
    @pytest.mark.parametrize("bits", [None, 2], ids=["flat", "factorized"])
    def test_batch_matches_sequential_loop(self, bits):
        """Same per-query rng => batched == sequential, bit for bit."""
        schema = rich_schema(seed=3)
        ps = oracle_sampler(schema, factorization_bits=bits)
        queries = mixed_workload()
        n = 250
        sequential = np.array(
            [
                ps.estimate(q, n_samples=n, rng=np.random.default_rng(50 + i))
                for i, q in enumerate(queries)
            ]
        )
        batched = ps.estimate_batch(
            queries,
            n_samples=n,
            rngs=[np.random.default_rng(50 + i) for i in range(len(queries))],
        )
        np.testing.assert_array_equal(batched, sequential)
        dies = queries.index(DIES_MID_WALK)
        assert not ps.plan(DIES_MID_WALK).is_empty and batched[dies] == 0.0
        assert (batched[[0, 1, 3, 4]] > 0).all()  # the batch is not trivial

    @pytest.mark.parametrize("bits", [None, 2], ids=["flat", "factorized"])
    @pytest.mark.parametrize("session", ["raw_rows", "fused_runs"])
    def test_session_declared_shortcuts_stay_exact(self, bits, session):
        """The walk picks its shortcuts from what the session declares. Under
        the exact oracle each one must still equal the sequential loop:
        ``dedup_cutoff`` switching prefix dedup off, and a fused indicator
        run (pre-folded tokens, one multi-column pass, tail column riding)."""
        oracle = SessionOracle(rich_schema(seed=3), bits, session)
        ps = ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)
        # The trio shares the all-wildcard content prefix and every query in
        # it joins C1, so the run's tail is C2's fanout — read by two of them
        # behind different R indicators (MASK vs 1): only the membership
        # pattern in the run's dedup key tells those rows apart.
        membership_trio = [
            Query.make(["R", "C1", "C2"], []),
            Query.make(["C1"], []),
            Query.make(["R", "C1"], []),
        ]
        for queries in (mixed_workload(), membership_trio):
            sequential = [
                ps.estimate(q, n_samples=120, rng=np.random.default_rng(8 + i))
                for i, q in enumerate(queries)
            ]
            batched = ps.estimate_batch(
                queries,
                n_samples=120,
                rngs=[np.random.default_rng(8 + i) for i in range(len(queries))],
            )
            np.testing.assert_array_equal(batched, sequential)
        assert oracle.sessions  # the walk asked the model for its provider
        if session == "fused_runs":
            assert all(s.multi_calls for s in oracle.sessions)

    def test_fanout_downscaled_subset(self):
        """The paper's Q2 shape: single-table query with fanout scaling."""
        schema = paper_figure4_schema()
        ps = oracle_sampler(schema)
        queries = [
            Query.make(["A"], [Predicate("A", "x", "=", 2)]),
            Query.make(["A", "B", "C"], [Predicate("A", "x", "=", 2)]),
            Query.make(["B", "C"]),
        ]
        batched = ps.estimate_batch(
            queries, n_samples=4000, rng=np.random.default_rng(1)
        )
        assert batched[0] == pytest.approx(1.0, rel=0.1)
        assert batched[1] == pytest.approx(2.0, rel=0.1)

    def test_default_rng_spawns_independent_streams(self):
        schema = rich_schema(seed=3)
        ps = oracle_sampler(schema)
        queries = [Query.make(["R"], [Predicate("R", "year", ">=", 1993)])] * 3
        out = ps.estimate_batch(queries, n_samples=200, rng=np.random.default_rng(7))
        # Same query, independent streams: close but not identical estimates.
        assert len(set(np.round(out, 12))) > 1
        assert np.allclose(out, out[0], rtol=0.25)

    def test_empty_batch_and_bad_args(self):
        schema = rich_schema(seed=3)
        ps = oracle_sampler(schema)
        assert len(ps.estimate_batch([])) == 0
        query = Query.make(["R"])
        with pytest.raises(EstimationError):
            ps.estimate_batch([query], n_samples=0)
        with pytest.raises(EstimationError):
            ps.estimate_batch([query, query], rngs=[np.random.default_rng(0)])


class TestPlanCache:
    def test_repeated_shapes_hit_cache(self):
        schema = rich_schema(seed=3)
        ps = oracle_sampler(schema)
        queries = [
            Query.make(["R", "C1"], [Predicate("R", "year", ">=", 1990 + i % 3)])
            for i in range(12)
        ]
        ps.estimate_batch(queries, n_samples=8, rng=np.random.default_rng(0))
        assert ps.shape_cache_misses == 1  # one distinct table set
        assert ps.shape_cache_hits == 11
        assert len(ps._region_cache) == 3  # three distinct predicate values

    def test_cached_plans_do_not_change_results(self):
        schema = rich_schema(seed=3)
        ps = oracle_sampler(schema)
        query = Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 2)])
        first = ps.estimate(query, n_samples=300, rng=np.random.default_rng(3))
        again = ps.estimate(query, n_samples=300, rng=np.random.default_rng(3))
        assert first == again
        assert ps.shape_cache_hits >= 1

    def test_region_cache_bounded(self):
        schema = rich_schema(seed=3)
        ps = oracle_sampler(schema)
        ps.REGION_CACHE_LIMIT = 4
        for year in range(1990, 1997):
            ps.plan(Query.make(["R"], [Predicate("R", "year", "=", year)]))
        assert len(ps._region_cache) <= 4


class TestTrainedModelEquivalence:
    @pytest.fixture(scope="class")
    def fitted(self):
        from tests.core.test_estimator import correlated_schema, small_config

        schema = correlated_schema(n_root=150)
        config = small_config(train_tuples=30_000, progressive_samples=128)
        return schema, NeuroCard(schema, config).fit()

    def test_estimate_batch_matches_sequential(self, fitted):
        _, estimator = fitted
        queries = [
            Query.make(["R"], [Predicate("R", "year", ">=", 1995)]),
            Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)]),
            Query.make(["R", "C2"], [Predicate("C2", "score", "<", 10)]),
            Query.make(["R", "C1"], [Predicate("R", "year", "IN", (1991, 1996))]),
            Query.make(["C1"], []),
        ]
        n = estimator.config.progressive_samples
        sequential = np.array(
            [
                estimator.inference.estimate(
                    q, n_samples=n, rng=np.random.default_rng(900 + i)
                )
                for i, q in enumerate(queries)
            ]
        )
        batched = estimator.inference.estimate_batch(
            queries,
            n_samples=n,
            rngs=[np.random.default_rng(900 + i) for i in range(len(queries))],
        )
        # Identical uniform streams; only BLAS batching order may differ.
        np.testing.assert_allclose(batched, sequential, rtol=0.05)

    def test_reference_engine_matches_sequential_to_gemm_noise(self, fitted):
        """On the reference forward the only batched/sequential difference
        is float64 GEMM round-off from the batch shape (prefix dedup hands
        the model fewer, differently ordered rows) — orders of magnitude
        inside the fp32 engine's tolerance above."""
        _, estimator = fitted
        reference = ProgressiveSampler(
            estimator.model, estimator.layout, estimator.full_join_size
        )
        queries = [
            Query.make(["R"], [Predicate("R", "year", ">=", 1995)]),
            Query.make(["R", "C2"], [Predicate("C2", "score", "<", 10)]),
            Query.make(["R", "C1"], [Predicate("R", "year", "IN", (1991, 1996))]),
            Query.make(["C1"], []),
        ]
        sequential = [
            reference.estimate(q, n_samples=128, rng=np.random.default_rng(900 + i))
            for i, q in enumerate(queries)
        ]
        batched = reference.estimate_batch(
            queries,
            n_samples=128,
            rngs=[np.random.default_rng(900 + i) for i in range(len(queries))],
        )
        np.testing.assert_allclose(batched, sequential, rtol=1e-7)

    def test_batch_of_one_call_budget(self, fitted):
        """A small-batch walk is interpreter-dispatch-bound: what it costs
        is how many Python and C functions it calls. Pin that count for one
        batch-of-1 query (three tables, a range, an IN list, a fanout — 8
        model columns walked) so dispatch overhead cannot creep back
        unnoticed: the walk makes 546 calls here (budget: that plus 10 %),
        the row-at-a-time walk it replaced made 1167 (``tools/profile_walk.py``
        is the recipe on the perf fixture)."""
        _, estimator = fitted
        query = Query.make(
            ["R", "C1", "C2"],
            [
                Predicate("R", "year", ">=", 1993),
                Predicate("C1", "kind", "IN", (0, 2)),
                Predicate("C2", "score", "<", 10),
            ],
        )

        def run():
            return estimator.inference.estimate_batch(
                [query], n_samples=128, rngs=[np.random.default_rng(5)]
            )

        run()  # first-use kernel caches
        calls = 0

        def tick(frame, event, arg):
            nonlocal calls
            calls += event in ("call", "c_call")

        sys.setprofile(tick)
        try:
            run()
        finally:
            sys.setprofile(None)
        assert calls <= 600, calls

    def test_public_api_returns_one_estimate_per_query(self, fitted):
        _, estimator = fitted
        queries = [
            Query.make(["R"], [Predicate("R", "year", ">=", 1995)]),
            Query.make(["R", "C1"], []),
        ]
        out = estimator.estimate_batch(queries, rng=np.random.default_rng(0))
        assert out.shape == (2,)
        assert (out >= 0).all()

    def test_column_conditional_matches_full_forward(self, fitted):
        """The sliced inference fast path computes the same conditionals."""
        _, estimator = fitted
        model = estimator.model
        rng = np.random.default_rng(0)
        n_cols = model.n_columns
        tokens = np.column_stack(
            [rng.integers(0, dom, 64) for dom in model.domains]
        )
        wildcard = rng.random((64, n_cols)) < 0.5
        for col in (0, 1, n_cols // 2, n_cols - 1):
            full = model.conditional(tokens, col, wildcard)
            sliced = model.column_conditional(tokens, col, wildcard)
            np.testing.assert_allclose(sliced, full, rtol=1e-4, atol=1e-7)

    def test_batch_unfitted_raises(self):
        from tests.core.test_estimator import correlated_schema, small_config

        estimator = NeuroCard(correlated_schema(n_root=20), small_config())
        with pytest.raises(EstimationError):
            estimator.estimate_batch([Query.make(["R"])])
