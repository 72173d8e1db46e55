"""ResMADE: autoregressive property, gradient check, learning, wildcards."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn.optim import Adam
from repro.nn.resmade import ResMADE


class TestAutoregressiveProperty:
    def test_logits_independent_of_later_columns(self):
        """Column i's logits must not change when columns >= i change."""
        model = ResMADE([4, 5, 3], d_emb=8, d_ff=32, n_blocks=2, seed=0)
        rng = np.random.default_rng(0)
        base = np.stack(
            [rng.integers(0, d, size=16) for d in model.domains], axis=1
        )
        flat = model.forward_logits(base)
        for col in range(3):
            mutated = base.copy()
            for later in range(col, 3):
                mutated[:, later] = rng.integers(0, model.domains[later], 16)
            flat2 = model.forward_logits(mutated)
            assert np.allclose(
                model.column_logits(flat, col), model.column_logits(flat2, col)
            ), f"column {col} depends on later columns"

    def test_first_column_is_constant_marginal(self):
        model = ResMADE([4, 5], d_emb=4, d_ff=16, n_blocks=1, seed=1)
        rng = np.random.default_rng(1)
        tokens = np.stack([rng.integers(0, 4, 8), rng.integers(0, 5, 8)], axis=1)
        probs = model.conditional(tokens, 0)
        assert np.allclose(probs, probs[0])


class TestGradients:
    def test_full_model_gradient_check(self):
        model = ResMADE([3, 4], d_emb=3, d_ff=8, n_blocks=1, seed=2, dtype=np.float64)
        tokens = np.array([[0, 1], [2, 3], [1, 0]])
        for p in model.parameters():
            p.zero_grad()
        model.loss_and_backward(tokens)
        eps = 1e-6
        rng = np.random.default_rng(3)
        for param in model.parameters():
            flat = param.value.reshape(-1)
            gflat = param.grad.reshape(-1)
            for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                old = flat[idx]
                flat[idx] = old + eps
                up = self._loss_only(model, tokens)
                flat[idx] = old - eps
                down = self._loss_only(model, tokens)
                flat[idx] = old
                numerical = (up - down) / (2 * eps)
                assert gflat[idx] == pytest.approx(numerical, abs=1e-5), param.name

    @staticmethod
    def _loss_only(model, tokens):
        from repro.nn.layers import cross_entropy

        flat = model.forward_logits(tokens)
        total = 0.0
        for i in range(model.n_columns):
            loss, _ = cross_entropy(model.column_logits(flat, i), tokens[:, i])
            total += loss
        return total


class TestLearning:
    def test_learns_correlated_joint(self):
        """Train on a deterministic x1 = f(x0) joint; conditionals become sharp."""
        rng = np.random.default_rng(4)
        model = ResMADE([4, 4], d_emb=8, d_ff=32, n_blocks=2, seed=5)
        optimizer = Adam(model.parameters(), lr=5e-3)
        for _ in range(300):
            x0 = rng.integers(0, 4, size=128)
            tokens = np.stack([x0, (x0 + 1) % 4], axis=1)
            optimizer.zero_grad()
            model.loss_and_backward(tokens)
            optimizer.step()
        probe = np.stack([np.arange(4), np.zeros(4, dtype=np.int64)], axis=1)
        cond = model.conditional(probe, 1)
        for x0 in range(4):
            assert cond[x0, (x0 + 1) % 4] > 0.9

    def test_marginal_learned_on_first_column(self):
        rng = np.random.default_rng(6)
        model = ResMADE([3, 2], d_emb=8, d_ff=16, n_blocks=1, seed=7)
        optimizer = Adam(model.parameters(), lr=5e-3)
        target = np.array([0.7, 0.2, 0.1])
        for _ in range(300):
            x0 = rng.choice(3, size=256, p=target)
            tokens = np.stack([x0, rng.integers(0, 2, 256)], axis=1)
            optimizer.zero_grad()
            model.loss_and_backward(tokens)
            optimizer.step()
        probs = model.conditional(np.zeros((1, 2), dtype=np.int64), 0)[0]
        assert np.allclose(probs, target, atol=0.06)


class TestWildcards:
    def test_wildcard_learns_marginalized_conditional(self):
        """With x0 masked, p(x1 | MASK) should approach the x1 marginal."""
        rng = np.random.default_rng(8)
        model = ResMADE([2, 2], d_emb=8, d_ff=32, n_blocks=2, seed=9)
        optimizer = Adam(model.parameters(), lr=5e-3)
        # Joint: x1 == x0, x0 ~ Bernoulli(0.8). Marginal of x1 is (0.2, 0.8).
        for _ in range(400):
            x0 = (rng.random(256) < 0.8).astype(np.int64)
            tokens = np.stack([x0, x0], axis=1)
            wildcard = model.sample_wildcard_mask(256, rng)
            optimizer.zero_grad()
            model.loss_and_backward(tokens, wildcard)
            optimizer.step()
        tokens = np.zeros((1, 2), dtype=np.int64)
        wildcard = np.array([[True, False]])
        probs = model.conditional(tokens, 1, wildcard)[0]
        assert probs[1] == pytest.approx(0.8, abs=0.08)
        # And the unmasked conditional stays sharp.
        seen = np.array([[1, 0]])
        probs_cond = model.conditional(seen, 1)[0]
        assert probs_cond[1] > 0.9


class TestValidation:
    def test_empty_domains_rejected(self):
        with pytest.raises(TrainingError):
            ResMADE([])

    def test_bad_domain_rejected(self):
        with pytest.raises(TrainingError):
            ResMADE([3, 0])

    def test_bad_token_shape_rejected(self):
        model = ResMADE([3, 3])
        with pytest.raises(TrainingError):
            model.forward_logits(np.zeros((4, 5), dtype=np.int64))

    @pytest.mark.parametrize("column, token", [(0, 3), (1, 3), (0, -1), (1, 7)])
    def test_token_outside_column_domain_rejected(self, column, token):
        """A target may not spill into the next column's logits."""
        model = ResMADE([3, 3], d_emb=4, d_ff=8, n_blocks=1)
        tokens = np.zeros((4, 2), dtype=np.int64)
        tokens[2, column] = token
        with pytest.raises(TrainingError):
            model.loss_and_backward(tokens)

    def test_size_accounting(self):
        model = ResMADE([10, 20], d_emb=4, d_ff=8, n_blocks=1)
        assert model.size_bytes == sum(p.value.nbytes for p in model.parameters())
        assert model.size_mb == pytest.approx(model.size_bytes / 2**20)
