"""Engine assembly: which model a progressive-sampling engine runs over.

There is one engine class, :class:`~repro.core.progressive.ProgressiveSampler`,
and one batched walk inside it. This module decides what the walk's
conditionals come from (``NeuroCardConfig.compiled_inference``):

``"off"``
    The reference engine: the walk calls the trained model's own forward.
    The correctness oracle for everything below it.
``"fp32"``
    The serving fast path: the model is wrapped in
    :class:`~repro.nn.compiled.CompiledResMADE` (embedding rows folded
    through per-column input slices, degree-sorted prefix-sliced blocks,
    sliced output heads, chunked fp32 passes over bounded scratch), whose
    incremental :class:`~repro.nn.compiled.FoldSession` owns the walk's
    sampled prefix as a running pre-activation buffer: each column's drawn tokens are
    folded into it exactly once per walk, as the walk draws them.
    Estimates sit within 1e-4 relative of ``"off"`` (CI-gated).

Compiled state is derived from the weights: never persisted (snapshot
artifacts carry only the raw parameters plus the configured modes), and
dropped via :func:`invalidate_compiled` whenever weights change.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import mode_error
from repro.core.progressive import ProgressiveSampler
from repro.errors import EstimationError
from repro.nn.compiled import CompiledResMADE


def build_engine(
    model, layout, full_join_size: float, mode: str = "fp32"
) -> ProgressiveSampler:
    """A progressive-sampling engine over ``model`` in the given mode."""
    problem = mode_error(mode)
    if problem is not None:
        raise EstimationError(problem)
    if mode == "fp32":
        model = CompiledResMADE(model)
    return ProgressiveSampler(model, layout, full_join_size)


def compiled_model(engine: ProgressiveSampler) -> Optional[CompiledResMADE]:
    """The engine's compiled wrapper, or None for reference engines."""
    model = getattr(engine, "model", None)
    return model if isinstance(model, CompiledResMADE) else None


def compiled_size_bytes(engine: Optional[ProgressiveSampler]) -> int:
    """Bytes held by the engine's compiled buffers (0 if uncompiled)."""
    compiled = None if engine is None else compiled_model(engine)
    return 0 if compiled is None else compiled.size_bytes


def invalidate_compiled(engine: Optional[ProgressiveSampler]) -> None:
    """Drop compiled state so the next call refolds the current weights."""
    compiled = None if engine is None else compiled_model(engine)
    if compiled is not None:
        compiled.invalidate()


def export_engine_state(engine: ProgressiveSampler) -> dict:
    """The engine's deterministic compiled buffers as ``name -> array``.

    Empty for reference engines (they hold no compiled buffers); otherwise
    folds first if needed. Used by the serving worker pool to publish one
    shared-memory copy of the kernels.
    """
    compiled = compiled_model(engine)
    return {} if compiled is None else compiled.export_state()


def attach_engine_state(engine: ProgressiveSampler, arrays: dict) -> None:
    """Install buffers from :func:`export_engine_state` into the engine.

    The engine's compiled kernel adopts the (typically shared-memory-
    backed, read-only) buffers without refolding from the weights; no-op
    when ``arrays`` is empty. Raises for engines that cannot hold compiled
    state — attaching fp32 buffers to a reference engine would silently
    serve nothing.
    """
    if not arrays:
        return
    compiled = compiled_model(engine)
    if compiled is None:
        raise EstimationError(
            "cannot attach compiled buffers to a reference engine "
            "(build it with mode='fp32')"
        )
    compiled.attach_state(arrays)

