"""The training form is rebuilt exactly from the served kernel table.

A fitted estimator keeps only :class:`~repro.nn.compiled.CompiledResMADE`'s
table; ``NeuroCard.training_model()`` scatters the table's live entries into
the seeded skeleton. These tests pin that unfold to the model training
produced, captured at the fold right before the estimator drops it: the
parameters, the refolded table and a further training step are all
bitwise the original's. They also pin the drop itself — nothing of the
training form stays reachable from a served estimator — and that serving
never reads the training form. Two cases: the small correlated test
schema, and the perf fixture's architecture at its tiny scale.
"""

from __future__ import annotations

import copy
import gc
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.core.encoding import FusedEncoder
from repro.core.estimator import NeuroCard
from repro.core.persistence import load_model, save_model
from repro.core.refresh import clone_estimator
from repro.nn.compiled import CompiledResMADE
from repro.nn.layers import Parameter
from repro.nn.resmade import ResMADE
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.serving import EstimationService, ModelRegistry, ServingConfig, WorkerPool
from tests.core.test_estimator import correlated_schema, small_config

PERF_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"


def small_case():
    return correlated_schema(n_root=80), small_config(train_tuples=4096, sampler_threads=1)


def perf_tiny_case():
    """The perf fixture's schema and model config at its tiny scale."""
    sys.path.insert(0, str(PERF_DIR))
    try:
        import fixture
    finally:
        sys.path.remove(str(PERF_DIR))
    return fixture.build_schema("tiny"), fixture.model_config(fixture.SCALES["tiny"][1])


CASES = {"small": small_case, "perf_tiny": perf_tiny_case}


def fit_capturing(schema, config):
    """``(estimator, trained)``: a fitted estimator, and the ``ResMADE`` its
    fit folded (then dropped) with a copy of that model's parameters taken
    at the fold."""
    captured = []
    real = CompiledResMADE.fold.__func__

    def fold(cls, model):
        captured.append((model, [p.value.copy() for p in model.parameters()]))
        return real(cls, model)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CompiledResMADE, "fold", classmethod(fold))
        estimator = NeuroCard(schema, config).fit()
    (trained,) = captured
    return estimator, trained


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    schema, config = CASES[request.param]()
    estimator, trained = fit_capturing(schema, config)
    return schema, estimator, trained


def assert_params_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)


def training_batch(estimator, seed=0):
    rng = np.random.default_rng(seed)
    rows = estimator.sampler.sample_row_id_matrix(estimator.config.batch_size, rng)
    tokens = FusedEncoder(estimator.layout, estimator.sampler).encode_row_ids(rows)
    return tokens, rng


class TestUnfold:
    def test_training_model_is_the_trained_model(self, case):
        _, estimator, (_, params) = case
        rebuilt = estimator.training_model()
        assert_params_equal([p.value for p in rebuilt.parameters()], params)
        # Each call rebuilds; the estimator keeps none of them.
        assert estimator.training_model() is not rebuilt

    def test_refolding_the_unfolded_model_gives_the_served_table(self, case):
        _, estimator, _ = case
        want = estimator.compiled.export_state()
        got = CompiledResMADE.fold(estimator.training_model()).export_state()
        assert list(got) == list(want)
        for name in want:
            assert got[name].dtype == want[name].dtype, name
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_one_training_step_from_the_unfolded_form_matches_the_original(self, case):
        _, estimator, (original, _) = case
        rebuilt = estimator.training_model()
        tokens, rng = training_batch(estimator)
        wildcard = original.sample_wildcard_mask(len(tokens), rng)
        losses = []
        for model in (original, rebuilt):
            optimizer = copy.deepcopy(estimator._optimizer)
            optimizer.params = model.parameters()
            optimizer.zero_grad()
            losses.append(model.loss_and_backward(tokens, wildcard))
            optimizer.step()
        assert losses[0] == losses[1]
        assert_params_equal(
            [p.value for p in rebuilt.parameters()], [p.value for p in original.parameters()]
        )


def training_form_reachable(root) -> list:
    """Every ``Parameter`` or ``ResMADE`` reachable from ``root`` through
    instance state (classes, modules and functions are not followed)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
            types.MethodType)
    seen, stack, found = {id(root)}, [root], []
    while stack:
        obj = stack.pop()
        if isinstance(obj, (Parameter, ResMADE)):
            found.append(type(obj).__name__)
            continue
        for ref in gc.get_referents(obj):
            if not isinstance(ref, skip) and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return found


class TestServedFormOnly:
    def test_nothing_of_the_training_form_is_reachable(self, case, tmp_path):
        schema, estimator, _ = case
        assert training_form_reachable(estimator) == []
        refreshed = clone_estimator(estimator)
        refreshed.update(schema, train_tuples=2 * estimator.config.batch_size)
        assert refreshed.train_result.steps > estimator.train_result.steps
        assert training_form_reachable(refreshed) == []
        loaded = load_model(save_model(estimator, tmp_path / "m.npz"), schema)
        assert training_form_reachable(loaded) == []

    def test_reachability_walk_finds_a_kept_model(self, case):
        """The walk itself can see a training form hung anywhere below."""
        _, estimator, _ = case
        holder = clone_estimator(estimator)
        holder.inference.extra = [{"kept": estimator.training_model()}]
        assert "ResMADE" in training_form_reachable(holder)


def boom(*args, **kwargs):
    raise AssertionError("a serving path read the training form")


QUERIES = [
    Query.make(["R"], [Predicate("R", "year", ">=", 1995)]),
    Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)]),
]


@pytest.fixture(scope="module")
def small_fitted():
    schema, config = small_case()
    return schema, NeuroCard(schema, config).fit()


def test_serving_paths_never_read_the_training_form(small_fitted, monkeypatch, tmp_path):
    """Served batches, the scheduler, a registry swap, a pool publish and a
    sharded batch run on the table alone: neither the ``model`` property,
    the no-op ``precompile``/``compile`` surfaces nor an unfold is reached.
    A lazy artifact load unfolds once, to read the weights into."""
    schema, estimator = small_fitted
    path = save_model(estimator, tmp_path / "m.npz")
    swapped = clone_estimator(estimator)
    want = estimator.estimate_batch(QUERIES, rngs=[np.random.default_rng(i) for i in range(2)])
    monkeypatch.setattr(NeuroCard, "model", property(boom))
    monkeypatch.setattr(NeuroCard, "precompile", boom)
    monkeypatch.setattr(CompiledResMADE, "compile", boom)
    registry = ModelRegistry()
    registry.register("m", estimator)
    registry.register_path("disk", path, schema)
    with EstimationService(registry, config=ServingConfig(max_wait_us=0)) as service:
        with monkeypatch.context() as strict:
            strict.setattr(NeuroCard, "training_model", boom)
            got = estimator.estimate_batch(
                QUERIES, rngs=[np.random.default_rng(i) for i in range(2)]
            )
            np.testing.assert_array_equal(got, want)
            assert service.estimate(QUERIES[0], model="m", seed=3) >= 0
            service.swap("m", swapped)
            assert service.estimate(QUERIES[1], model="m", seed=3) >= 0
            with WorkerPool(n_workers=1, name="table-only", min_shard=1) as pool:
                pool.publish(estimator, 1)
                rngs = [np.random.default_rng(i) for i in range(2)]
                pooled = pool.submit_batch(estimator, 1, QUERIES, rngs=rngs).result(timeout=60)
            np.testing.assert_array_equal(pooled, want)
        assert service.estimate(QUERIES[1], model="disk", seed=3) >= 0
