"""NeuroCard configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import TrainingError


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
