"""NeuroCard configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import TrainingError

#: Recognized values for ``NeuroCardConfig.compiled_inference``.
INFERENCE_MODES = ("off", "fp32")


def mode_error(compiled_inference: str) -> Optional[str]:
    """Why this engine mode cannot be served.

    The one place the rule lives: the config validates with it before
    training, the estimator when it resolves its mode and ``build_engine``
    before wrapping a model. Returns None for a servable mode.
    """
    if compiled_inference not in INFERENCE_MODES:
        return (
            f"unknown inference mode {compiled_inference!r}; "
            f"compiled_inference must be one of {INFERENCE_MODES}"
        )
    return None


@dataclass
class NeuroCardConfig:
    """All capacity/training/inference knobs of the estimator.

    Defaults mirror the paper's Base configuration (Table 5) scaled to CPU
    training: ResMADE with ``d_ff`` feed-forward width and ``d_emb``
    embeddings, 14 factorization bits, wildcard skipping on, and a few
    hundred progressive samples at inference.
    """

    d_emb: int = 16
    d_ff: int = 128
    n_blocks: int = 2
    factorization_bits: Optional[int] = 14
    batch_size: int = 1024
    train_tuples: int = 200_000
    learning_rate: float = 2e-3
    progressive_samples: int = 512
    sampler_threads: int = 4
    wildcard_skipping: bool = True
    exclude_columns: Tuple[str, ...] = field(default_factory=tuple)
    seed: int = 0
    #: Serving-side kernel compilation: "fp32" (compiled fast path, the
    #: default) or "off" (uncompiled reference engine, the oracle).
    compiled_inference: str = "fp32"

    def validate(self) -> None:
        if self.d_emb < 1 or self.d_ff < 1 or self.n_blocks < 0:
            raise TrainingError("model dimensions must be positive")
        if self.factorization_bits is not None and self.factorization_bits < 1:
            raise TrainingError("factorization_bits must be >= 1 or None")
        if self.batch_size < 1 or self.train_tuples < 1:
            raise TrainingError("training sizes must be positive")
        if self.progressive_samples < 1:
            raise TrainingError("progressive_samples must be >= 1")
        if self.sampler_threads < 1:
            raise TrainingError("sampler_threads must be >= 1")
        problem = mode_error(self.compiled_inference)
        if problem is not None:
            raise TrainingError(problem)
