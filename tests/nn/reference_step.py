"""Reference training step: the plain layer-by-layer arithmetic the fast
step in :mod:`repro.nn` must reproduce bit for bit.

Every function here allocates freely — one temporary per operation, the
masked weight recomputed wherever it is used, one sort per embedding table,
per-column softmax cross-entropy copied back into a zeroed gradient, Adam's
moments through fresh arrays. It reads and writes the live model's
:class:`~repro.nn.layers.Parameter` objects (values, gradients) and the
optimizer's moment state, so a test can swap it in for the fast step and
compare the two runs with ``==``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Linear


class RefLinear:
    def __init__(self, lin):
        self.W, self.b, self.mask = lin.W, lin.b, lin.mask
        self._x = None

    def effective_weight(self):
        return self.W.value if self.mask is None else self.W.value * self.mask

    def forward(self, x):
        self._x = x
        return x @ self.effective_weight().T + self.b.value

    def backward(self, grad_out):
        dW = grad_out.T @ self._x
        if self.mask is not None:
            dW *= self.mask
        self.W.grad += dW
        self.b.grad += grad_out.sum(axis=0)
        return grad_out @ self.effective_weight()


class RefEmbedding:
    def __init__(self, emb):
        self.W = emb.W
        self._ids = None

    def forward(self, ids):
        self._ids = ids
        return self.W.value[ids]

    def backward(self, grad_out):
        order = np.argsort(self._ids, kind="stable")
        sorted_ids = self._ids[order]
        boundaries = np.empty(len(order), dtype=bool)
        if len(order) == 0:
            return
        boundaries[0] = True
        boundaries[1:] = sorted_ids[1:] != sorted_ids[:-1]
        starts = np.flatnonzero(boundaries)
        sums = np.add.reduceat(grad_out[order], starts, axis=0)
        self.W.grad[sorted_ids[starts]] += sums


class RefReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad_out):
        return grad_out * self._mask


def ref_cross_entropy(logits, targets):
    batch = logits.shape[0]
    rows = np.arange(batch)
    shifted = logits - logits.max(axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
    picked = shifted[rows, targets]
    loss = float(-np.log(np.maximum(picked, 1e-30)).mean())
    shifted[rows, targets] -= 1.0
    shifted /= batch
    return loss, shifted


def ref_loss_and_backward(model, tokens, wildcard=None):
    """``ResMADE.loss_and_backward`` over ``model``'s parameters."""
    embeddings = [RefEmbedding(e) for e in model.embeddings]
    input_linear = RefLinear(model.input_linear)
    blocks = [(RefReLU(), RefLinear(b.lin1), RefReLU(), RefLinear(b.lin2)) for b in model.blocks]
    final_relu = RefReLU()
    output_linear = RefLinear(model.output_linear)

    pieces = []
    for i, emb in enumerate(embeddings):
        ids = tokens[:, i]
        if wildcard is not None:
            ids = np.where(wildcard[:, i], model.domains[i], ids)
        pieces.append(emb.forward(ids))
    h = input_linear.forward(np.concatenate(pieces, axis=1))
    for relu1, lin1, relu2, lin2 in blocks:
        a = lin2.forward(relu2.forward(lin1.forward(relu1.forward(h))))
        h = h + a
    flat = output_linear.forward(final_relu.forward(h))

    total_loss = 0.0
    grad_flat = np.zeros_like(flat)
    for i in range(model.n_columns):
        lo, hi = model.offsets[i], model.offsets[i + 1]
        loss, grad = ref_cross_entropy(flat[:, lo:hi], tokens[:, i])
        total_loss += loss
        grad_flat[:, lo:hi] = grad
    g = output_linear.backward(grad_flat)
    g = final_relu.backward(g)
    for relu1, lin1, relu2, lin2 in reversed(blocks):
        inner = relu1.backward(lin1.backward(relu2.backward(lin2.backward(g))))
        g = g + inner
    g = input_linear.backward(g)
    d = model.d_emb
    for i, emb in enumerate(embeddings):
        emb.backward(g[:, i * d : (i + 1) * d])
    return total_loss


def ref_mse_loss_and_backward(mlp, x, y):
    """``MLP.mse_loss_and_backward`` over ``mlp``'s parameters."""
    layers = [RefLinear(layer) if isinstance(layer, Linear) else RefReLU() for layer in mlp.layers]
    out = x
    for layer in layers:
        out = layer.forward(out)
    pred = out.ravel()
    diff = pred - y
    loss = float((diff**2).mean())
    grad = (2.0 * diff / len(y)).reshape(-1, 1).astype(pred.dtype)
    for layer in reversed(layers):
        grad = layer.backward(grad)
    return loss


def ref_adam_step(opt):
    """``Adam.step`` over ``opt``'s parameters and moment state."""
    if opt.clip_norm is not None:
        total = 0.0
        for p in opt.params:
            g = p.grad.ravel()
            total += float(np.dot(g, g))
        norm = np.sqrt(total)
        if norm > opt.clip_norm:
            scale = opt.clip_norm / (norm + 1e-12)
            for p in opt.params:
                p.grad *= scale
    opt.t += 1
    lr = opt.lr_at(opt.t)
    correction1 = 1.0 - opt.beta1**opt.t
    correction2 = 1.0 - opt.beta2**opt.t
    for p, m, v in zip(opt.params, opt._m, opt._v):
        grad = p.grad
        m *= opt.beta1
        m += (1.0 - opt.beta1) * grad
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (grad * grad)
        update = (m / correction1) / (np.sqrt(v / correction2) + opt.eps)
        p.value -= (lr * update).astype(p.value.dtype, copy=False)
