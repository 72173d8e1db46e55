"""Variance-adaptive progressive sampling: escalation, bounds, accounting.

Contract under test (``ProgressiveSampler.estimate_batch(max_rel_var=...)``):
every query first runs a probe walk on a child stream spawned off its own
generator; queries whose relative standard error exceeds the bound escalate
to the full ``n_samples`` walk on their *pristine* pinned streams. Escalated
results are therefore bitwise-equal to a fixed-``n_samples`` run, and
early-stopped queries must carry a recorded relative standard error within
the declared bound — both pinned here on the deterministic tabular oracle.
"""

import numpy as np
import pytest

from repro.core.progressive import ProgressiveSampler
from repro.errors import EstimationError
from tests.core.oracle import OracleModel
from tests.core.test_batched import mixed_workload
from tests.core.test_compiled import batch, engines, fitted, workload  # noqa: F401
from tests.core.test_progressive_oracle import rich_schema


@pytest.fixture(scope="module", params=[None, 2], ids=["flat", "factorized"])
def oracle_engine(request):
    """The reference engine over the exact tabular oracle (bitwise-stable),
    on both column layouts the per-column programs specialize for."""
    schema = rich_schema(seed=3)
    oracle = OracleModel(schema, factorization_bits=request.param)
    return ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)


def run(engine, queries, n=200, max_rel_var=None, min_samples=None, base_seed=90):
    return engine.estimate_batch(
        queries,
        n_samples=n,
        rngs=[np.random.default_rng(base_seed + i) for i in range(len(queries))],
        max_rel_var=max_rel_var,
        min_samples=min_samples,
    )


class TestEscalationBitwise:
    def test_zero_bound_escalates_all_and_matches_fixed_run(self, oracle_engine):
        """max_rel_var=0 forces every non-exact query to the full walk."""
        queries = mixed_workload()
        fixed = run(oracle_engine, queries)
        adaptive = run(oracle_engine, queries, max_rel_var=0.0)
        state = oracle_engine.last_adaptive
        escalated = state["escalated"]
        # Zero-variance probes (exact/empty regions) legally stop early; for
        # them the probe mean may differ from the full mean in the last ulp
        # (same constant averaged over a different sample count).
        assert (escalated == (state["rel_se"] > 0.0)).all()
        np.testing.assert_array_equal(adaptive[escalated], fixed[escalated])
        np.testing.assert_allclose(adaptive[~escalated], fixed[~escalated], rtol=1e-12)

    @pytest.mark.parametrize("bound", [0.01, 0.05, 0.2])
    def test_partial_escalation_is_per_query_bitwise(self, oracle_engine, bound):
        """Escalated queries match the fixed run; early stops obey the bound."""
        queries = mixed_workload()
        fixed = run(oracle_engine, queries)
        adaptive = run(oracle_engine, queries, max_rel_var=bound)
        state = oracle_engine.last_adaptive
        escalated = state["escalated"]
        np.testing.assert_array_equal(adaptive[escalated], fixed[escalated])
        # The probe's recorded relative standard error is the stop criterion:
        # every early-stopped query satisfies the declared bound.
        assert (state["rel_se"][~escalated] <= bound).all()
        assert (state["rel_se"][escalated] > bound).all()
        # n_effective is total work: escalated queries pay probe + full walk.
        probe = state["probe_samples"]
        assert (state["n_effective"][escalated] == probe + 200).all()
        assert (state["n_effective"][~escalated] == probe).all()

    def test_probe_does_not_consume_the_pinned_stream(self, oracle_engine):
        """spawn()-based probes leave the parent generators untouched."""
        queries = mixed_workload()
        rngs = [np.random.default_rng(90 + i) for i in range(len(queries))]
        adaptive = oracle_engine.estimate_batch(
            queries, n_samples=200, rngs=rngs, max_rel_var=0.0
        )
        escalated = oracle_engine.last_adaptive["escalated"]
        fixed = run(oracle_engine, queries)
        np.testing.assert_array_equal(adaptive[escalated], fixed[escalated])

    def test_trained_reference_engine_close_to_fixed_run(self, fitted):
        """Escalation on a trained model reproduces the fixed run to GEMM noise.

        The strict bitwise property lives on the tabular oracle above: its
        conditionals are per-row table lookups. A trained ResMADE forward
        runs batched fp64 GEMMs whose per-row round-off depends on the
        batch shape, so the escalated sub-batch (fewer rows than the full
        batch) agrees only to ~1e-9 relative — far inside the fp32 serving
        gate, but not bitwise.
        """
        _, estimator = fitted
        engine = engines(estimator, "off")[0]
        queries = workload()
        fixed = batch(engine, queries)
        adaptive = engine.estimate_batch(
            queries,
            n_samples=96,
            rngs=[np.random.default_rng(700 + i) for i in range(len(queries))],
            max_rel_var=0.0,
        )
        np.testing.assert_allclose(adaptive, fixed, rtol=1e-7)

    def test_trained_fp32_engine_within_serving_tolerance(self, fitted):
        """fp32 GEMMs are batch-shape sensitive only to round-off."""
        _, estimator = fitted
        engine = engines(estimator, "fp32")[0]
        queries = workload()
        fixed = batch(engine, queries)
        adaptive = engine.estimate_batch(
            queries,
            n_samples=96,
            rngs=[np.random.default_rng(700 + i) for i in range(len(queries))],
            max_rel_var=0.0,
        )
        np.testing.assert_allclose(adaptive, fixed, rtol=5e-6)


class TestAccounting:
    def test_loose_bound_saves_samples(self, oracle_engine):
        queries = mixed_workload()
        run(oracle_engine, queries, max_rel_var=1e9)
        state = oracle_engine.last_adaptive
        assert not state["escalated"].any()
        assert state["probe_samples"] == max(16, 200 // 8)
        stats = oracle_engine.adaptive_stats()
        assert stats["adaptive_queries"] >= len(queries)
        assert stats["adaptive_samples_saved"] > 0

    def test_min_samples_overrides_probe_size(self, oracle_engine):
        queries = mixed_workload()
        run(oracle_engine, queries, max_rel_var=1e9, min_samples=48)
        assert oracle_engine.last_adaptive["probe_samples"] == 48

    def test_fixed_runs_leave_no_adaptive_state(self, oracle_engine):
        run(oracle_engine, mixed_workload(), max_rel_var=1e9)
        run(oracle_engine, mixed_workload())
        assert oracle_engine.last_adaptive is None

    def test_validation_errors(self, oracle_engine):
        queries = mixed_workload()
        with pytest.raises(EstimationError):
            run(oracle_engine, queries, max_rel_var=-0.5)
        with pytest.raises(EstimationError):
            run(oracle_engine, queries, max_rel_var=0.1, min_samples=1)


class TestEstimatorPassthrough:
    def test_estimate_batch_accepts_max_rel_var(self, fitted):
        _, estimator = fitted
        queries = workload()
        rngs = [np.random.default_rng(40 + i) for i in range(len(queries))]
        fixed = estimator.estimate_batch(queries, rngs=rngs)
        rngs = [np.random.default_rng(40 + i) for i in range(len(queries))]
        adaptive = estimator.estimate_batch(queries, rngs=rngs, max_rel_var=0.0)
        np.testing.assert_allclose(adaptive, fixed, rtol=5e-6)
        assert estimator.inference.last_adaptive is not None
