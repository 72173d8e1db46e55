"""The training step is bitwise the plain reference step.

:mod:`tests.nn.reference_step` writes every operation of a training step
out naively (fresh temporaries, per-column cross-entropy, one sort per
embedding table, Adam through fresh arrays). The library's step reorders
nothing — it only stops allocating — so losses compare with ``==`` and
every parameter with ``np.array_equal``, for ResMADE steps with wildcard
skipping, a fit followed by an incremental ``update(fraction=...)``, and
the MSCN baseline's regressor, which shares Linear, ReLU and Adam.
"""

import copy

import numpy as np
import pytest

from repro.baselines.mscn import MSCNEstimator
from repro.core.estimator import NeuroCard
from repro.nn.layers import Embedding, Linear, ReLU
from repro.nn.mlp import MLP
from repro.nn.optim import Adam
from repro.nn.resmade import ResMADE
from repro.workloads import job_light_ranges_queries, job_light_schema
from repro.workloads.imdb import ImdbScale
from tests.core.test_estimator import correlated_schema, small_config
from tests.nn.reference_step import (
    ref_adam_step,
    ref_loss_and_backward,
    ref_mse_loss_and_backward,
)


def assert_same_params(a, b):
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert pa.name == pb.name
        assert np.array_equal(pa.value, pb.value), pa.name


def use_reference_step(monkeypatch):
    monkeypatch.setattr(
        ResMADE,
        "loss_and_backward",
        lambda self, tokens, wildcard=None: ref_loss_and_backward(self, tokens, wildcard),
    )
    monkeypatch.setattr(MLP, "mse_loss_and_backward", ref_mse_loss_and_backward)
    monkeypatch.setattr(Adam, "step", ref_adam_step)


def held_activations(model: ResMADE):
    """Names of forward caches still set on ``model`` or its layers."""
    layers = [*model.embeddings, model.input_linear, model.final_relu, model.output_linear]
    for block in model.blocks:
        layers += [block.relu1, block.lin1, block.relu2, block.lin2]
    cache = {Linear: ("_x", "_w"), ReLU: ("_mask",), Embedding: ("_ids",)}
    held = [
        f"{type(layer).__name__}.{attr}"
        for layer in layers
        for attr in cache[type(layer)]
        if getattr(layer, attr) is not None
    ]
    return held + (["ResMADE._ids"] if model._ids is not None else [])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_resmade_steps_with_wildcards_match_reference(dtype):
    domains = [5, 3, 17, 2, 9, 1]
    fast = ResMADE(domains, d_emb=4, d_ff=32, n_blocks=2, seed=3, dtype=dtype)
    ref = copy.deepcopy(fast)
    steps = 12
    opt_fast = Adam(fast.parameters(), lr=1e-2, warmup_steps=3, total_steps=steps)
    opt_ref = Adam(ref.parameters(), lr=1e-2, warmup_steps=3, total_steps=steps)
    rng = np.random.default_rng(0)
    for _ in range(steps):
        tokens = np.stack([rng.integers(0, d, 64) for d in domains], axis=1)
        wildcard = fast.sample_wildcard_mask(64, rng)
        opt_fast.zero_grad()
        opt_ref.zero_grad()
        loss_fast = fast.loss_and_backward(tokens, wildcard)
        loss_ref = ref_loss_and_backward(ref, tokens, wildcard)
        assert loss_fast == loss_ref
        for pf, pr in zip(fast.parameters(), ref.parameters()):
            assert np.array_equal(pf.grad, pr.grad), pf.name
        opt_fast.step()
        ref_adam_step(opt_ref)
        assert_same_params(fast.parameters(), ref.parameters())
    for mf, mr in zip(opt_fast._m + opt_fast._v, opt_ref._m + opt_ref._v):
        assert np.array_equal(mf, mr)
    assert held_activations(fast) == []


def test_fit_and_fractional_update_match_reference(monkeypatch):
    schema = correlated_schema(n_root=60)
    config = small_config(train_tuples=4096, sampler_threads=1)

    def fit_and_update():
        model = NeuroCard(schema, config).fit()
        model.update(schema, fraction=0.25)
        return model

    fast = fit_and_update()
    with monkeypatch.context() as patch:
        use_reference_step(patch)
        ref = fit_and_update()
    assert fast.train_result.steps == ref.train_result.steps > 8
    assert fast.train_result.losses == ref.train_result.losses
    assert_same_params(fast.model.parameters(), ref.model.parameters())
    assert held_activations(fast.model) == []


def test_mscn_training_matches_reference(monkeypatch):
    schema = job_light_schema(ImdbScale(n_title=200))
    queries = job_light_ranges_queries(schema, n=48, seed=5)
    cards = np.random.default_rng(1).integers(1, 10_000, len(queries)).astype(float)

    def train():
        return MSCNEstimator(schema, queries, cards, hidden=(32, 16), epochs=3, seed=0)

    fast = train()
    with monkeypatch.context() as patch:
        use_reference_step(patch)
        ref = train()
    assert_same_params(fast.mlp.parameters(), ref.mlp.parameters())
    assert [fast.estimate(q) for q in queries[:8]] == [ref.estimate(q) for q in queries[:8]]
