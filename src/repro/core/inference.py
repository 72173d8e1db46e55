"""Engine assembly: the progressive-sampling engine an estimator serves.

There is one engine class, :class:`~repro.core.progressive.ProgressiveSampler`,
and one batched walk inside it. A fitted estimator serves it over
:class:`~repro.nn.compiled.CompiledResMADE` (embedding rows folded through
per-column input slices, degree-sorted prefix-sliced blocks, sliced output
heads, chunked fp32 passes over bounded scratch), whose incremental
:class:`~repro.nn.compiled.FoldSession` owns the walk's sampled prefix as a
running pre-activation buffer: each column's drawn tokens are folded into
it exactly once per walk, as the walk draws them.

The kernel table is the served form of the model: an estimator folds it
when training ends or weights load, and holds nothing else. The reference
engine is the correctness oracle, not a serving mode: tests, tools and
benchmarks build it directly over the training form, as
``ProgressiveSampler(estimator.training_model(), layout, full_join_size)``,
so the walk calls the trained model's own forward. Compiled estimates sit
within 1e-4 relative of it (CI-gated).
"""

from __future__ import annotations

from typing import Optional

from repro.core.progressive import ProgressiveSampler
from repro.nn.compiled import CompiledResMADE


def build_engine(model, layout, full_join_size: float) -> ProgressiveSampler:
    """The serving engine over a trained ``model``'s folded kernel table."""
    return ProgressiveSampler(CompiledResMADE.fold(model), layout, full_join_size)


def compiled_model(engine: ProgressiveSampler) -> Optional[CompiledResMADE]:
    """The engine's compiled kernel table, or None for a reference engine."""
    model = getattr(engine, "model", None)
    return model if isinstance(model, CompiledResMADE) else None
