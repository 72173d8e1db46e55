"""ResMADE: the paper's autoregressive architecture (§3.4, Fig. 3).

Input tuples are dictionary-encoded token IDs, embedded per column; the
concatenated embedding passes through masked residual blocks; an output
masked-linear produces per-column logits ``log p(X_i | x_<i)``.

Wildcard skipping (Naru's marginalization tokens) is built in: every column
has an extra MASK token (id = domain size). During training random input
positions are replaced by MASK while targets stay intact, teaching the model
conditionals with marginalized-out inputs; at inference, wildcard columns
feed MASK and are never sampled.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.nn import masks as made_masks
from repro.nn.layers import (
    Embedding,
    Linear,
    Parameter,
    ReLU,
    column_cross_entropy,
    grouped_row_sums,
    softmax,
)


class _ResidualBlock:
    """x + W2·relu(W1·relu(x)), both linears masked degree-consistently."""

    def __init__(self, rng, width: int, mask: np.ndarray, name: str, dtype):
        self.relu1 = ReLU()
        self.lin1 = Linear(rng, width, width, mask=mask, name=f"{name}.lin1", dtype=dtype)
        self.relu2 = ReLU()
        self.lin2 = Linear(rng, width, width, mask=mask, name=f"{name}.lin2", dtype=dtype)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.relu1.forward(x)
        h = self.lin1.forward(h)
        h = self.relu2.forward(h)
        h = self.lin2.forward(h)
        h += x
        return h

    def backward(self, grad: np.ndarray) -> np.ndarray:
        g = self.lin2.backward(grad)
        g = self.relu2.backward(g)
        g = self.lin1.backward(g)
        g = self.relu1.backward(g)
        g += grad
        return g

    def parameters(self) -> List[Parameter]:
        return self.lin1.parameters() + self.lin2.parameters()


class ResMADE:
    """Masked residual MLP modeling ``p(X_0) Π p(X_i | X_<i)``.

    Parameters
    ----------
    domain_sizes:
        Vocabulary size of each column in autoregressive order (dictionary
        codes ``0..dom-1``; NULL is code 0 by convention upstream).
    d_emb / d_ff / n_blocks:
        Embedding width, hidden width, number of residual blocks — the
        paper's capacity knobs (Table 5 group C).
    """

    def __init__(
        self,
        domain_sizes: Sequence[int],
        d_emb: int = 16,
        d_ff: int = 128,
        n_blocks: int = 2,
        seed: int = 0,
        dtype=np.float32,
    ):
        if not domain_sizes:
            raise TrainingError("ResMADE needs at least one column")
        if any(d < 1 for d in domain_sizes):
            raise TrainingError("column domains must be >= 1")
        self.domains = [int(d) for d in domain_sizes]
        self.n_columns = len(self.domains)
        self.d_emb = d_emb
        self.d_ff = d_ff
        self.dtype = dtype
        rng = np.random.default_rng(seed)

        # Per-column embedding; one extra row is the MASK (wildcard) token.
        self.embeddings = [
            Embedding(rng, dom + 1, d_emb, name=f"embed{i}", dtype=dtype)
            for i, dom in enumerate(self.domains)
        ]

        degrees = made_masks.hidden_degrees(self.n_columns, d_ff)
        input_labels = np.repeat(np.arange(self.n_columns), d_emb)
        self.input_linear = Linear(
            rng,
            self.n_columns * d_emb,
            d_ff,
            mask=made_masks.input_mask(input_labels, degrees),
            name="input",
            dtype=dtype,
        )
        hidden = made_masks.hidden_mask(degrees)
        self.blocks = [
            _ResidualBlock(rng, d_ff, hidden, f"block{i}", dtype) for i in range(n_blocks)
        ]
        self.final_relu = ReLU()
        output_labels = np.repeat(np.arange(self.n_columns), self.domains)
        self.output_linear = Linear(
            rng,
            d_ff,
            int(sum(self.domains)),
            mask=made_masks.output_mask(output_labels, degrees),
            name="output",
            dtype=dtype,
        )
        self.offsets = np.concatenate([[0], np.cumsum(self.domains)])
        # Embedding rows of all columns on one id axis (column i's rows start
        # at vocab_offsets[i]): forward gathers them from the stacked tables
        # in one pass and backward groups them with one sort, a radix sort
        # while the ids fit in 16 bits.
        self._mask_ids = np.array(self.domains)
        self._vocab_offsets = np.concatenate([[0], np.cumsum(self._mask_ids + 1)])
        self._id_dtype = np.min_scalar_type(int(self._vocab_offsets[-1]))
        self._ids: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def _embed(self, tokens: np.ndarray, wildcard: Optional[np.ndarray]) -> np.ndarray:
        if tokens.ndim != 2 or tokens.shape[1] != self.n_columns:
            raise TrainingError(
                f"tokens must be (batch, {self.n_columns}), got {tokens.shape}"
            )
        ids = tokens if wildcard is None else np.where(wildcard, self._mask_ids, tokens)
        bad = np.flatnonzero(
            (ids.min(axis=0, initial=0) < 0) | (ids.max(axis=0, initial=0) > self._mask_ids)
        )
        if len(bad):
            emb = self.embeddings[bad[0]]
            raise TrainingError(f"{emb.W.name}: token id outside vocabulary of size {emb.vocab}")
        self._ids = (ids + self._vocab_offsets[:-1]).astype(self._id_dtype).ravel()
        table = np.concatenate([emb.W.value for emb in self.embeddings])
        return table[self._ids].reshape(len(ids), self.n_columns * self.d_emb)

    def _embed_backward(self, grad: np.ndarray) -> None:
        """Scatter-add ``grad`` (batch, n_columns * d_emb) into the tables."""
        ids, self._ids = self._ids, None
        if not len(ids):
            return
        rows, sums = grouped_row_sums(ids, grad.reshape(len(ids), self.d_emb))
        bounds = np.searchsorted(rows, self._vocab_offsets)
        for i, emb in enumerate(self.embeddings):
            lo, hi = bounds[i], bounds[i + 1]
            emb.W.grad[rows[lo:hi] - self._vocab_offsets[i]] += sums[lo:hi]

    def forward_logits(
        self, tokens: np.ndarray, wildcard: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """All columns' logits, shape ``(batch, Σ domains)``."""
        x = self._embed(tokens, wildcard)
        h = self.input_linear.forward(x)
        for block in self.blocks:
            h = block.forward(h)
        h = self.final_relu.forward(h)
        return self.output_linear.forward(h)

    def column_logits(self, flat_logits: np.ndarray, col: int) -> np.ndarray:
        """Slice one column's logits out of the flat output."""
        return flat_logits[:, self.offsets[col] : self.offsets[col + 1]]

    def conditional(
        self, tokens: np.ndarray, col: int, wildcard: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``p(X_col | inputs)`` — depends only on columns ``< col`` by masking."""
        flat = self.forward_logits(tokens, wildcard)
        return softmax(self.column_logits(flat, col).astype(np.float64))

    def column_conditional(
        self, tokens: np.ndarray, col: int, wildcard: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``p(X_col | inputs)`` on the inference fast path.

        Mathematically identical to :meth:`conditional`, but computes only
        what column ``col`` depends on: embeddings and input-linear weights
        are sliced to columns ``< col`` (the MADE masks zero every other
        connection anyway) and only column ``col``'s slice of the output
        head is evaluated — instead of all ``Σ domains`` logits. Does not
        touch the layers' backward caches, so it is safe to interleave with
        training steps. The batched serving engine calls this per column.
        """
        if tokens.ndim != 2 or tokens.shape[1] < col:
            raise TrainingError(
                f"tokens must be (batch, >= {col}), got {tokens.shape}"
            )
        n = len(tokens)
        if col == 0:
            x = np.zeros((n, 0), dtype=self.dtype)
        else:
            pieces = []
            for i in range(col):
                ids = tokens[:, i]
                if wildcard is not None:
                    ids = np.where(wildcard[:, i], self.domains[i], ids)
                pieces.append(self.embeddings[i].W.value[ids])
            x = np.concatenate(pieces, axis=1)
        w_in = self.input_linear.effective_weight()[:, : col * self.d_emb]
        h = x @ w_in.T + self.input_linear.b.value
        for block in self.blocks:
            a = np.maximum(h, 0.0)
            a = a @ block.lin1.effective_weight().T + block.lin1.b.value
            np.maximum(a, 0.0, out=a)
            a = a @ block.lin2.effective_weight().T + block.lin2.b.value
            h = h + a
        np.maximum(h, 0.0, out=h)
        lo, hi = self.offsets[col], self.offsets[col + 1]
        w_out = self.output_linear.effective_weight()[lo:hi]
        logits = h @ w_out.T + self.output_linear.b.value[lo:hi]
        return softmax(logits.astype(np.float64))

    def loss_and_backward(
        self, tokens: np.ndarray, wildcard: Optional[np.ndarray] = None
    ) -> float:
        """Mean per-tuple NLL (nats) with gradients accumulated into params."""
        flat = self.forward_logits(tokens, wildcard)
        # The softmax gradient is written over the logits.
        total_loss = 0.0
        for loss in column_cross_entropy(flat, tokens, self.offsets):
            total_loss += float(loss)
        g = self.output_linear.backward(flat)
        g = self.final_relu.backward(g)
        for block in reversed(self.blocks):
            g = block.backward(g)
        self._embed_backward(self.input_linear.backward(g))
        return total_loss

    # ------------------------------------------------------------------
    def sample_wildcard_mask(
        self, batch: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Random wildcard-skipping mask: per tuple, mask a random fraction."""
        fraction = rng.random((batch, 1))
        return rng.random((batch, self.n_columns)) < fraction

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for emb in self.embeddings:
            params.extend(emb.parameters())
        params.extend(self.input_linear.parameters())
        for block in self.blocks:
            params.extend(block.parameters())
        params.extend(self.output_linear.parameters())
        return params

    @property
    def size_bytes(self) -> int:
        """Model size in bytes (the paper's reported estimator size)."""
        return int(sum(p.size_bytes for p in self.parameters()))

    @property
    def size_mb(self) -> float:
        return self.size_bytes / 2**20
