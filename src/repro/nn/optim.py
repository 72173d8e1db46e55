"""Adam optimizer with optional warmup and gradient clipping."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.layers import Parameter


class Adam:
    """Standard Adam (Kingma & Ba) over a parameter list.

    ``warmup_steps`` linearly ramps the learning rate from 0, matching the
    short warmup used when streaming sampled tuples (fresh batches every
    step make early updates noisy). When ``total_steps`` is set, the rate
    follows a cosine decay from ``lr`` to ``lr * min_lr_ratio`` after the
    warmup, which markedly improves convergence of the streamed MLE loop.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 2e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        clip_norm: Optional[float] = 5.0,
        warmup_steps: int = 20,
        total_steps: Optional[int] = None,
        min_lr_ratio: float = 0.05,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.clip_norm = clip_norm
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.min_lr_ratio = min_lr_ratio
        self.t = 0
        self._segment_start = 0
        self._segment_warmup = warmup_steps
        self._m = [np.zeros_like(p.value, dtype=np.float64) for p in self.params]
        self._v = [np.zeros_like(p.value, dtype=np.float64) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def extend_schedule(self, extra_steps: int) -> None:
        """Re-anchor warmup+decay for ``extra_steps`` more steps.

        Incremental training (``NeuroCard.update``) reuses this optimizer
        past its original ``total_steps``; without re-anchoring, the cosine
        progress stays clamped at 1.0 and every extra step runs at the
        ``min_lr_ratio`` floor. This starts a fresh warmup-then-decay
        segment at the current step so the update budget gets a real
        schedule while preserving Adam's moment state. The segment's warmup
        is capped to a tenth of the extension so short update budgets spend
        their steps decaying instead of ramping.
        """
        if extra_steps <= 0:
            return
        self._segment_start = self.t
        self._segment_warmup = min(self.warmup_steps, extra_steps // 10)
        if self.total_steps is not None:
            self.total_steps = self.t + extra_steps

    def _clip(self) -> None:
        if self.clip_norm is None:
            return
        total = 0.0
        for p in self.params:
            g = p.grad.ravel()
            total += float(np.dot(g, g))
        norm = np.sqrt(total)
        if norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)
            for p in self.params:
                p.grad *= scale

    def lr_at(self, t: int) -> float:
        """Learning rate used at (1-based) step ``t`` of the current segment."""
        t_seg = t - self._segment_start
        warmup = self._segment_warmup
        if warmup and t_seg <= warmup:
            return self.lr * t_seg / warmup
        if self.total_steps:
            seg_total = self.total_steps - self._segment_start
            if seg_total > warmup:
                progress = (t_seg - warmup) / (seg_total - warmup)
                progress = min(max(progress, 0.0), 1.0)
                floor = self.lr * self.min_lr_ratio
                return floor + 0.5 * (self.lr - floor) * (1 + np.cos(np.pi * progress))
        return self.lr

    def step(self) -> None:
        """Apply one update from the accumulated gradients.

        The moment arithmetic is the plain Adam formula, written through
        ``out=`` into scratch rows sized to the largest parameter (one
        float64 pair, one row per gradient dtype) instead of a dozen fresh
        temporaries per parameter.
        """
        self._clip()
        self.t += 1
        lr = self.lr_at(self.t)
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        size = max((p.value.size for p in self.params), default=0)
        num, den = np.empty(size), np.empty(size)
        low = {dtype: np.empty(size, dtype) for dtype in {p.grad.dtype for p in self.params}}
        for p, m, v in zip(self.params, self._m, self._v):
            grad = p.grad
            n = grad.size
            g = low[grad.dtype][:n].reshape(grad.shape)
            upd = num[:n].reshape(grad.shape)
            root = den[:n].reshape(grad.shape)
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=g)
            m += g
            v *= self.beta2
            np.multiply(grad, grad, out=g)
            g *= 1.0 - self.beta2
            v += g
            np.divide(v, correction2, out=root)
            np.sqrt(root, out=root)
            root += self.eps
            np.divide(m, correction1, out=upd)
            upd /= root
            np.multiply(upd, lr, out=g, casting="same_kind")
            p.value -= g
