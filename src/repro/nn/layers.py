"""Neural layers with explicit forward/backward passes.

Each layer caches what its backward pass needs during ``forward``,
accumulates parameter gradients into :class:`Parameter.grad` during
``backward`` (returning the gradient w.r.t. its input) and then drops that
cache, so a trained model holds no activations. Layers are stateful per
call — a layer instance participates in one forward/backward pair at a
time, which is all the training loops here require.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import TrainingError


class Parameter:
    """A trainable tensor plus its gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = value
        self.grad = np.zeros_like(value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def size_bytes(self) -> int:
        return self.value.nbytes


class Linear:
    """(Optionally masked) affine layer ``y = x @ (W ∘ M)^T + b``.

    ``mask`` (shape ``(d_out, d_in)``) zeroes connections; the MADE masks
    of :mod:`repro.nn.masks` enforce the autoregressive property.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        d_in: int,
        d_out: int,
        mask: Optional[np.ndarray] = None,
        name: str = "linear",
        dtype=np.float32,
    ):
        scale = np.sqrt(2.0 / max(d_in, 1))
        weight = (rng.standard_normal((d_out, d_in)) * scale).astype(dtype)
        self.W = Parameter(f"{name}.W", weight)
        self.b = Parameter(f"{name}.b", np.zeros(d_out, dtype=dtype))
        if mask is not None and mask.shape != (d_out, d_in):
            raise TrainingError(
                f"{name}: mask shape {mask.shape} != ({d_out}, {d_in})"
            )
        # Stored as ``bool``: a product with it casts to the weight's dtype,
        # so masking is exact and the mask costs a byte per entry.
        self.mask = None if mask is None else mask.astype(bool, copy=False)
        self._x: Optional[np.ndarray] = None
        self._w: Optional[np.ndarray] = None

    def effective_weight(self) -> np.ndarray:
        return self.W.value if self.mask is None else self.W.value * self.mask

    def forward(self, x: np.ndarray) -> np.ndarray:
        # The masked weight is formed once here and reused by backward.
        self._x, self._w = x, self.effective_weight()
        out = x @ self._w.T
        out += self.b.value
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise TrainingError("backward called before forward")
        dW = grad_out.T @ self._x
        if self.mask is not None:
            dW *= self.mask
        self.W.grad += dW
        self.b.grad += grad_out.sum(axis=0)
        grad_in = grad_out @ self._w
        self._x = self._w = None
        return grad_in

    def parameters(self) -> List[Parameter]:
        return [self.W, self.b]


class Embedding:
    """Lookup table with scatter-add backward."""

    def __init__(
        self,
        rng: np.random.Generator,
        vocab: int,
        dim: int,
        name: str = "embed",
        dtype=np.float32,
    ):
        self.vocab = vocab
        weight = (rng.standard_normal((vocab, dim)) * 0.1).astype(dtype)
        self.W = Parameter(f"{name}.W", weight)
        self._ids: Optional[np.ndarray] = None

    def forward(self, ids: np.ndarray) -> np.ndarray:
        if ids.min(initial=0) < 0 or ids.max(initial=0) >= self.vocab:
            raise TrainingError(
                f"{self.W.name}: token id outside vocabulary of size {self.vocab}"
            )
        self._ids = ids
        return self.W.value[ids]

    def backward(self, grad_out: np.ndarray) -> None:
        if self._ids is None:
            raise TrainingError("backward called before forward")
        ids, self._ids = self._ids, None
        if len(ids):
            rows, sums = grouped_row_sums(ids, grad_out)
            self.W.grad[rows] += sums

    def parameters(self) -> List[Parameter]:
        return [self.W]


class ReLU:
    """Elementwise max(x, 0)."""

    def __init__(self):
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """In place: ``grad_out`` is the fresh gradient the layer above returned."""
        grad_out *= self._mask
        self._mask = None
        return grad_out


class Sigmoid:
    """Elementwise logistic function (used by the MSCN baseline's head)."""

    def __init__(self):
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._y = 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60)))
        return self._y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out * self._y * (1.0 - self._y)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def grouped_row_sums(ids: np.ndarray, rows: np.ndarray):
    """The distinct ``ids`` ascending, and the sum of ``rows`` per id.

    ``ids`` must be non-empty. Sort + reduceat scatter-add (much faster
    than ``np.add.at``): the sort is stable, so each group's rows are added
    in their original order.
    """
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    boundaries = np.empty(len(order), dtype=bool)
    boundaries[0] = True
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    return sorted_ids[starts], np.add.reduceat(rows[order], starts, axis=0)


def cross_entropy(logits: np.ndarray, targets: np.ndarray):
    """Mean NLL over the batch and its gradient w.r.t. the logits."""
    grad = np.array(logits)
    targets = np.asarray(targets)[:, None]
    loss = column_cross_entropy(grad, targets, np.array([0, grad.shape[1]]))
    return float(loss[0]), grad


def column_cross_entropy(
    logits: np.ndarray, targets: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Per-column mean NLL of a row of softmax heads, written in place.

    Column ``i``'s logits are ``logits[:, offsets[i]:offsets[i + 1]]`` and
    its targets ``targets[:, i]``; on return ``logits`` holds the gradient.
    Elementwise passes run once over the whole block, while each column's
    row max and row sum reduce over that column's own slice, so every
    column's loss and gradient are those of a softmax over it alone.
    Computed in the logits' own dtype; float32 is numerically sufficient
    here (probabilities are clamped before the log).
    """
    batch, width = logits.shape
    starts, sizes = offsets[:-1], np.diff(offsets)
    if batch and (targets.min() < 0 or (targets.max(axis=0) >= sizes).any()):
        raise TrainingError("target token outside its column's domain")
    logits -= np.repeat(np.maximum.reduceat(logits, starts, axis=1), sizes, axis=1)
    np.exp(logits, out=logits)
    sums = np.empty((len(starts), batch), dtype=logits.dtype)
    for i in range(len(starts)):
        logits[:, offsets[i] : offsets[i + 1]].sum(axis=1, out=sums[i])
    logits /= np.repeat(sums.T, sizes, axis=1)
    # Flat positions of the targets, (columns, batch) in C order: each
    # column's mean then reduces one contiguous row.
    picked = np.ascontiguousarray(targets.T + starts[:, None] + np.arange(batch) * width)
    flat = logits.reshape(-1)
    loss = (-np.log(np.maximum(flat[picked], 1e-30))).mean(axis=1)
    flat[picked] -= 1.0
    logits /= batch
    return loss
