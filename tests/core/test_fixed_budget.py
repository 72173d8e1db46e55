"""One engine at one sample budget: the single ``estimate_batch`` path.

Every query walks exactly ``n_samples`` rows on its own pinned generator, so
on the deterministic tabular oracle a query's answer is a function of its
query and its stream alone: which other queries share the batch, and in what
order, must not move a bit. The estimator answers at
``config.progressive_samples`` unless a call names another budget, and the
keywords of the deleted variance-adaptive path are refused, not ignored.
"""

import numpy as np
import pytest

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.core.progressive import ProgressiveSampler
from tests.core.oracle import OracleModel
from tests.core.test_batched import mixed_workload
from tests.core.test_compiled import fitted, workload  # noqa: F401
from tests.core.test_estimator import small_config
from tests.core.test_progressive_oracle import rich_schema


@pytest.fixture(scope="module", params=[None, 2], ids=["flat", "factorized"])
def oracle_engine(request):
    """The reference engine over the exact tabular oracle (bitwise-stable),
    on both column layouts the per-column programs specialize for."""
    schema = rich_schema(seed=3)
    oracle = OracleModel(schema, factorization_bits=request.param)
    return ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)


def pinned(seeds):
    return [np.random.default_rng(seed) for seed in seeds]


def run(engine, queries, seeds, n=200):
    return engine.estimate_batch(queries, n_samples=n, rngs=pinned(seeds))


class TestBatchComposition:
    def test_sub_batch_answers_bitwise(self, oracle_engine):
        """A query's answer does not depend on which queries share its batch."""
        queries = mixed_workload()
        seeds = [90 + i for i in range(len(queries))]
        full = run(oracle_engine, queries, seeds)
        for pick in (slice(0, None, 2), slice(1, None, 2), slice(3, 4)):
            part = run(oracle_engine, queries[pick], seeds[pick])
            np.testing.assert_array_equal(part, full[pick])

    def test_permuted_batch_permutes_answers(self, oracle_engine):
        queries = mixed_workload()
        seeds = [90 + i for i in range(len(queries))]
        full = run(oracle_engine, queries, seeds)
        order = np.random.default_rng(5).permutation(len(queries))
        shuffled = run(
            oracle_engine, [queries[i] for i in order], [seeds[i] for i in order]
        )
        np.testing.assert_array_equal(shuffled, full[order])

    def test_pinned_streams_advance_once_per_call(self, oracle_engine):
        """The walk draws from the caller's generators in place: the same
        generator objects give a fresh answer on a second call, and fresh
        generators at the first state reproduce the first answer."""
        queries = mixed_workload()
        seeds = [90 + i for i in range(len(queries))]
        rngs = pinned(seeds)
        first = oracle_engine.estimate_batch(queries, n_samples=200, rngs=rngs)
        second = oracle_engine.estimate_batch(queries, n_samples=200, rngs=rngs)
        np.testing.assert_array_equal(run(oracle_engine, queries, seeds), first)
        assert (first != second).any()


class TestRemovedAdaptivePath:
    @pytest.mark.parametrize("keyword", ["max_rel_var", "min_samples"])
    def test_engine_refuses_adaptive_keywords(self, oracle_engine, keyword):
        queries = mixed_workload()
        with pytest.raises(TypeError, match=keyword):
            oracle_engine.estimate_batch(
                queries, n_samples=200, rngs=pinned(range(len(queries))),
                **{keyword: 0.1},
            )

    def test_engine_keeps_no_adaptive_state(self, oracle_engine):
        run(oracle_engine, mixed_workload(), range(len(mixed_workload())))
        for name in ("last_adaptive", "adaptive_stats"):
            assert not hasattr(oracle_engine, name), name

    @pytest.mark.parametrize("keyword", ["max_rel_var", "min_samples"])
    def test_estimator_refuses_adaptive_keywords(self, fitted, keyword):
        _, estimator = fitted
        queries = workload()
        with pytest.raises(TypeError, match=keyword):
            estimator.estimate_batch(
                queries, rngs=pinned(range(len(queries))), **{keyword: 0.1}
            )


class TestOneSampleBudget:
    def test_estimator_answers_at_the_config_budget(self, fitted):
        _, estimator = fitted
        queries = workload()
        seeds = [40 + i for i in range(len(queries))]
        served = estimator.estimate_batch(queries, rngs=pinned(seeds))
        direct = run(
            estimator.inference, queries, seeds, n=estimator.config.progressive_samples
        )
        np.testing.assert_array_equal(served, direct)

    def test_explicit_n_samples_overrides_the_budget(self, fitted):
        _, estimator = fitted
        queries = workload()
        seeds = [40 + i for i in range(len(queries))]
        budget = estimator.config.progressive_samples
        small = estimator.estimate_batch(queries, n_samples=32, rngs=pinned(seeds))
        np.testing.assert_array_equal(
            small, run(estimator.inference, queries, seeds, n=32)
        )
        assert budget != 32
        assert (small != estimator.estimate_batch(queries, rngs=pinned(seeds))).any()


class TestNoInferenceModeKnob:
    @pytest.mark.parametrize("method", ["fit", "prepare"])
    def test_estimator_takes_no_compile_argument(self, method):
        schema = rich_schema(seed=3)
        estimator = NeuroCard(schema, small_config(exclude_columns=(), train_tuples=1_000))
        with pytest.raises(TypeError, match="compile"):
            getattr(estimator, method)(compile="fp32")
        assert not estimator.is_fitted

    def test_config_has_no_inference_mode_field(self):
        assert "compiled_inference" not in NeuroCardConfig.__dataclass_fields__
        with pytest.raises(TypeError, match="compiled_inference"):
            NeuroCardConfig(compiled_inference="fp32")
