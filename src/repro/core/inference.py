"""Engine assembly: the progressive-sampling engine an estimator serves.

There is one engine class, :class:`~repro.core.progressive.ProgressiveSampler`,
and one batched walk inside it. A fitted estimator serves it over
:class:`~repro.nn.compiled.CompiledResMADE` (embedding rows folded through
per-column input slices, degree-sorted prefix-sliced blocks, sliced output
heads, chunked fp32 passes over bounded scratch), whose incremental
:class:`~repro.nn.compiled.FoldSession` owns the walk's sampled prefix as a
running pre-activation buffer: each column's drawn tokens are folded into
it exactly once per walk, as the walk draws them.

The reference engine is the correctness oracle, not a serving mode: tests,
tools and benchmarks build it directly as
``ProgressiveSampler(model, layout, full_join_size)``, so the walk calls
the trained model's own forward. Compiled estimates sit within 1e-4
relative of it (CI-gated).

Compiled state is derived from the weights: never persisted (snapshot
artifacts carry only the raw parameters), and dropped via
:func:`invalidate_compiled` whenever weights change.
"""

from __future__ import annotations

from typing import Optional

from repro.core.progressive import ProgressiveSampler
from repro.nn.compiled import CompiledResMADE


def build_engine(model, layout, full_join_size: float) -> ProgressiveSampler:
    """The serving engine: progressive sampling over ``model``'s compiled kernels."""
    return ProgressiveSampler(CompiledResMADE(model), layout, full_join_size)


def compiled_model(engine: ProgressiveSampler) -> Optional[CompiledResMADE]:
    """The engine's compiled wrapper, or None for a reference engine."""
    model = getattr(engine, "model", None)
    return model if isinstance(model, CompiledResMADE) else None


def compiled_size_bytes(engine: Optional[ProgressiveSampler]) -> int:
    """Bytes held by the engine's compiled buffers (0 if uncompiled)."""
    compiled = compiled_model(engine)
    return 0 if compiled is None else compiled.size_bytes


def invalidate_compiled(engine: Optional[ProgressiveSampler]) -> None:
    """Drop compiled state so the next call refolds the current weights."""
    compiled = compiled_model(engine)
    if compiled is not None:
        compiled.invalidate()


def export_engine_state(engine: ProgressiveSampler) -> dict:
    """The engine's deterministic compiled buffers as ``name -> array``.

    Folds first if needed. Used by the serving worker pool to publish one
    shared-memory copy of the kernels.
    """
    return compiled_model(engine).export_state()


def attach_engine_state(engine: ProgressiveSampler, arrays: dict) -> None:
    """Install buffers from :func:`export_engine_state` into the engine.

    The engine's compiled kernel adopts the (typically shared-memory-
    backed, read-only) buffers without refolding from the weights; no-op
    when ``arrays`` is empty.
    """
    if arrays:
        compiled_model(engine).attach_state(arrays)
