"""Constant-time stand-ins that isolate a serving layer from the engine.

Kept in a module of their own (not ``__main__``) because the worker pool
ships duck-typed models to its spawned processes by pickle, which resolves
classes by import path.
"""

from __future__ import annotations

import numpy as np


class ConstantModel:
    """Answers 1.0 for every query in (near) zero time.

    Whatever a round trip through a scheduler, a worker pool or the HTTP
    server costs with this model behind it is that layer's own overhead.
    """

    is_fitted = True
    size_bytes = 0

    def estimate_batch(self, queries, **_kwargs) -> np.ndarray:
        return np.ones(len(queries), dtype=np.float64)

    def estimate(self, query, **_kwargs) -> float:
        return 1.0
