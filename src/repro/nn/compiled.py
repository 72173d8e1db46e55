"""Plan-specialized compiled inference kernels for ResMADE.

Training wants one graph with gradients; serving wants the cheapest possible
per-column conditional. :class:`CompiledResMADE` is the serving side: it
takes a trained :class:`~repro.nn.resmade.ResMADE` and lowers its forward
pass into inference-only kernels that exploit everything that is constant
per query plan:

* **Embedding folding** — each column's embedding table is multiplied
  through the input masked-linear offline, so the input layer becomes one
  per-column LUT gather + add per constrained column. No embedding concat,
  no input matmul at inference.
* **Degree-sorted prefix slicing** — hidden units are permuted so MADE
  degrees are non-decreasing. Column ``c``'s logits depend only on hidden
  units of degree ``< c``, which after the permutation is a contiguous
  prefix; every residual-block matmul for step ``c`` runs on the
  ``cut[c] × cut[c]`` top-left corner (specialized contiguous weight copies
  are materialized lazily per distinct prefix width).
* **Sliced output heads** — only the next-needed column's logit rows are
  evaluated, via per-column ``(cut, dom)`` weight views prepared at the
  first use of each autoregressive step.
* **float32 scratch reuse** — all kernels run in fp32 out-of-place into
  thread-local scratch buffers that are reused across steps and calls
  (no per-call allocation on the hot path).
* **Incremental fold session** — for a batched walk, :class:`FoldSession`
  owns the sampled prefix as one running ``(n_rows, d_ff)`` pre-activation
  buffer. The walk hands each column's drawn tokens over exactly once
  (``fold(col, rows, ids)``, ascending columns) and asks for
  ``probs(rows, col)``; no token or wildcard matrix exists on that path.

Everything :meth:`CompiledResMADE.compile` folds lives in one
``name -> array`` table: it is what :meth:`~CompiledResMADE.export_state`
publishes, :meth:`~CompiledResMADE.attach_state` adopts and
:attr:`~CompiledResMADE.size_bytes` counts. The session is the only kernel:
the stateless :meth:`~CompiledResMADE.conditional` opens a one-shot session
over a private buffer, folds the prefix it was handed and asks for one
column.

Precision
---------
Conditionals match the reference forward to fp32 round-off (the
estimator-level contract is ≤1e-4 relative drift on estimates, gated by
``benchmarks/bench_compiled_inference.py``). The wrapped model itself is
the oracle: an engine built over :attr:`CompiledResMADE.reference` runs the
identical walk on the reference forward.

Quantization
------------
``quantization="int16"`` / ``"int8"`` store the folded
weights at reduced precision with per-channel symmetric scales:

* **LUTs in a shared integer domain** — every embedding LUT (and the input
  bias / MASK machinery) is quantized per *hidden channel* with one scale
  vector sized so the worst-case accumulated pre-activation fits the
  integer range. Because all columns share each channel's scale, the fold
  buffer and per-column gathers run in exact integer
  arithmetic (int16 accumulation; int8 mode stores LUT entries as int8 and
  promotes on subtract) at half/quarter the memory traffic of fp32 — this
  is where the quantized path's latency win comes from, since the residual
  GEMMs are BLAS-bound and NumPy has no integer GEMM worth using.
* **GEMM weights with fp32 accumulate** — block and output-head weights are
  stored int16/int8 with per-output-channel scales and dequantized once
  into the existing per-prefix-width corner caches, so every matmul still
  accumulates in fp32. Only the *stored* (and shared-memory exported)
  buffers shrink.

The wrapped model stays unquantized, which makes it the drift reference:
:meth:`record_drift` keeps the latest per-query relative-error measurement
against it and :meth:`stats` surfaces it for ``/metrics``.

The wrapper is **lazy**: nothing is folded until the first conditional is
requested, so loading weights into an already-constructed model (see
``persistence.load_model``) never captures stale parameters — callers that
mutate weights must still :meth:`invalidate`.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.nn import masks as made_masks
from repro.nn.layers import softmax

#: Recognized kernel weight precisions ("off" = full fp32).
QUANTIZATION_MODES = ("off", "int16", "int8")

_REQUIRED_ATTRS = (
    "embeddings",
    "input_linear",
    "blocks",
    "output_linear",
    "domains",
    "offsets",
    "d_emb",
    "d_ff",
    "n_columns",
)


def supports_compilation(model) -> bool:
    """True when ``model`` exposes the ResMADE surface the compiler folds."""
    return all(hasattr(model, attr) for attr in _REQUIRED_ATTRS)


# ----------------------------------------------------------------------
# Flat-blob layout for publishing array maps through shared memory
# ----------------------------------------------------------------------
def pack_layout(arrays: Dict[str, np.ndarray]) -> Tuple[list, int]:
    """``(manifest, total_bytes)`` laying ``arrays`` into one flat buffer.

    The manifest is a picklable list of ``(name, offset, shape, dtype)``
    entries; offsets are 64-byte aligned so attached views keep cache-line
    (and BLAS) friendly alignment. ``total_bytes`` is always >= 1 so the
    result can size a ``multiprocessing.shared_memory`` segment directly.
    """
    manifest = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        manifest.append((name, offset, tuple(array.shape), str(array.dtype)))
        offset += array.nbytes
        offset = (offset + 63) & ~63
    return manifest, max(offset, 1)


def write_blob(arrays: Dict[str, np.ndarray], manifest: list, buf) -> None:
    """Copy each manifest entry's array into ``buf`` (one writable buffer)."""
    for name, offset, shape, dtype in manifest:
        view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        view[...] = np.ascontiguousarray(arrays[name])


def read_blob(manifest: list, buf) -> Dict[str, np.ndarray]:
    """Zero-copy read-only views over a buffer written by :func:`write_blob`.

    The returned arrays alias ``buf`` — the caller must keep the owning
    segment open for as long as any view is reachable.
    """
    out: Dict[str, np.ndarray] = {}
    for name, offset, shape, dtype in manifest:
        view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        view.flags.writeable = False
        out[name] = view
    return out


def _softmax_inplace(logits: np.ndarray) -> np.ndarray:
    """Row softmax written over ``logits`` (shifted exps are <= 1, well
    inside fp32 range); downstream Monte Carlo draws work in this dtype."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


class CompiledResMADE:
    """Inference-only compiled view over a trained ResMADE.

    Exposes the same ``conditional`` / ``column_conditional`` surface the
    progressive sampler consumes, so it drops in as the engine's model.
    The wrapped model stays the single source of truth for weights (and the
    correctness oracle); compiled state is derived, lazily built, and never
    persisted.
    """

    def __init__(self, model, quantization: str = "off"):
        if quantization not in QUANTIZATION_MODES:
            raise EstimationError(
                f"unknown quantization {quantization!r}; "
                f"expected one of {QUANTIZATION_MODES}"
            )
        if not supports_compilation(model):
            raise EstimationError(
                f"cannot compile {type(model).__name__}: not a ResMADE-like model"
            )
        self.model = model
        self.quantization = quantization
        self._lock = threading.Lock()
        self._local = threading.local()
        self._reset_state()

    def _reset_state(self) -> None:
        self._compiled = False
        self._attached = False
        # The buffer table and the hot-path views :meth:`_bind` points at it.
        self._state: Dict[str, np.ndarray] = {}
        self._cuts: Optional[np.ndarray] = None
        self._luts: List[np.ndarray] = []
        self._mask_stack: Optional[np.ndarray] = None
        self._mask_base: Optional[np.ndarray] = None
        self._b_out: Optional[np.ndarray] = None
        # The shared per-channel LUT scale: None in full-precision mode,
        # and every quantized branch keys off it.
        self._q_scale: Optional[np.ndarray] = None
        self._block_cut_cache: Dict[int, list] = {}
        self._out_head_cache: Dict[int, np.ndarray] = {}
        self._multi_head_cache: Dict[tuple, Tuple[np.ndarray, list]] = {}
        self._scratch_bytes = 0
        # Latest measured drift vs the reference engine (quantized modes).
        self._drift: Optional[Dict[str, float]] = None

    def _bind(self, state: Dict[str, np.ndarray]) -> None:
        """Adopt ``state`` as the buffer table and point the hot path at it.

        ``state`` is everything deterministic the kernel holds — what
        :meth:`_compile_locked` folds, :meth:`export_state` publishes and
        :attr:`size_bytes` counts; nothing else lists the buffers.
        """
        self._state = state
        self._cuts = state["cuts"]
        self._luts = [state[f"lut::{i}"] for i in range(self.model.n_columns)]
        self._mask_stack = state["mask_stack"]
        self._mask_base = state["mask_base"]
        self._b_out = state["b_out"]
        self._q_scale = state.get("q_scale")

    # ------------------------------------------------------------------
    # Delegated model surface
    # ------------------------------------------------------------------
    @property
    def domains(self):
        return self.model.domains

    @property
    def n_columns(self) -> int:
        return self.model.n_columns

    @property
    def offsets(self):
        return self.model.offsets

    @property
    def reference(self):
        """The wrapped (uncompiled) model — the correctness oracle."""
        return self.model

    @property
    def is_compiled(self) -> bool:
        return self._compiled

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledResMADE":
        """Fold the current weights into inference kernels (idempotent)."""
        if self._compiled:
            return self
        with self._lock:
            if self._compiled:
                return self
            self._compile_locked()
            self._compiled = True
        return self

    def _compile_locked(self) -> None:
        model = self.model
        degrees = made_masks.hidden_degrees(model.n_columns, model.d_ff)
        perm = np.argsort(degrees, kind="stable")
        state: Dict[str, np.ndarray] = {
            "cuts": np.searchsorted(
                degrees[perm], np.arange(model.n_columns), side="left"
            ).astype(np.int64),
            "b_out": model.output_linear.b.value.astype(np.float32),
        }

        # Fold every embedding table through the (permuted) input linear in
        # fp64, then round once: each LUT row is the column's exact
        # contribution to the hidden pre-activation for one token id.
        w_in = model.input_linear.effective_weight()[perm].astype(np.float64)
        d_emb = model.d_emb
        luts64 = []
        for i, emb in enumerate(model.embeddings):
            block = w_in[:, i * d_emb : (i + 1) * d_emb]
            luts64.append(emb.W.value.astype(np.float64) @ block.T)
        b_in64 = model.input_linear.b.value[perm].astype(np.float64)

        if self.quantization == "off":
            luts = [lut.astype(np.float32) for lut in luts64]
            mask_stack = np.stack([luts[i][dom] for i, dom in enumerate(model.domains)])
            # The all-wildcard pre-activation: bias + every column's MASK
            # row. A column's contribution is exactly zero on hidden units
            # of lower degree, so pre-adding *future* columns' MASK rows is
            # invisible to every conditional until the column is folded
            # (replaced) — which lets fold sessions start here and touch
            # only non-wildcard rows.
            mask_base = b_in64.astype(np.float32) + mask_stack.sum(axis=0)
        else:
            state["q_scale"], luts, mask_stack, mask_base = self._quantize_luts(luts64, b_in64)
        state["mask_stack"], state["mask_base"] = mask_stack, mask_base
        for i, lut in enumerate(luts):
            state[f"lut::{i}"] = lut

        # GEMM weights, all stored ``(in, out)`` over the permuted units.
        ix = np.ix_(perm, perm)
        gemms = [("w_out", model.output_linear.effective_weight()[:, perm].T)]
        for j, block in enumerate(model.blocks):
            for k, lin in (("1", block.lin1), ("2", block.lin2)):
                gemms.append((f"block::{j}::w{k}", lin.effective_weight()[ix].T))
                state[f"block::{j}::b{k}"] = lin.b.value[perm].astype(np.float32)
        for name, weight in gemms:
            if self.quantization == "off":
                state[name] = np.ascontiguousarray(weight, dtype=np.float32)
            else:
                # Stored (and shipped to workers) quantized, next to the
                # scale that :meth:`_gemm_corner` dequantizes with.
                state[name], state[f"{name}::scale"] = self._quantize_gemm(weight)
        self._bind(state)

    # ------------------------------------------------------------------
    # Quantization (compile-time folding into integer domains)
    # ------------------------------------------------------------------
    @property
    def _q_dtype(self):
        return np.int8 if self.quantization == "int8" else np.int16

    def _quantize_luts(self, luts64, b_in64):
        """Per-channel quantization of the LUT / MASK / bias machinery.

        One scale per hidden channel, shared by *every* column's LUT, sized
        so the worst-case accumulated pre-activation (bias + one row from
        each column, rounding included) fits the accumulator: the fold
        buffer then runs exact int16 arithmetic. int8 mode stores LUT
        entries as int8 (they are bounded by the same budget) and promotes
        to int16 on the fold subtract. Returns ``(scale, luts, mask_stack,
        mask_base)``.
        """
        model = self.model
        n_terms = model.n_columns + 1  # every column's row + the bias
        margin = (n_terms + 1) // 2 + 1  # each term rounds by <= 0.5
        qmax = 127 - margin if self.quantization == "int8" else 32767 - margin
        if qmax < 16:
            raise EstimationError(
                f"{self.quantization} quantization cannot hold "
                f"{model.n_columns} columns without overflow"
            )
        col_max = np.stack([np.abs(lut).max(axis=0) for lut in luts64])
        amax = np.abs(b_in64) + col_max.sum(axis=0)
        scale = amax / qmax
        # int16 LUTs also bound each fold *delta* (token row - MASK row,
        # <= 2x one column's budget) so the pre-add temporary cannot wrap;
        # int8 deltas are promoted to int16 and need no extra headroom.
        if self.quantization == "int16":
            scale = np.maximum(scale, 2.0 * col_max.max(axis=0) / 32700.0)
        scale[amax == 0.0] = 1.0
        dtype = self._q_dtype
        luts = [np.rint(lut / scale).astype(dtype) for lut in luts64]
        mask_stack = np.stack(
            [luts[i][dom] for i, dom in enumerate(model.domains)]
        ).astype(np.int16)
        mask_base = (
            np.rint(b_in64 / scale).astype(np.int32)
            + mask_stack.sum(axis=0, dtype=np.int32)
        ).astype(np.int16)
        return scale.astype(np.float32), luts, mask_stack, mask_base

    def _quantize_gemm(self, weight: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Symmetric per-output-channel quantization of one ``(in, out)`` matrix.

        Returns ``(w_q, scale)`` with ``scale`` per column. The quantized
        copy is what gets stored and exported; :meth:`_gemm_corner`
        dequantizes into the per-width corner caches, so the GEMMs
        themselves accumulate in fp32.
        """
        weight = np.asarray(weight, dtype=np.float64)
        qmax = 127 if self.quantization == "int8" else 32767
        scale = np.abs(weight).max(axis=0) / qmax
        scale[scale == 0.0] = 1.0
        w_q = np.ascontiguousarray(np.rint(weight / scale), dtype=self._q_dtype)
        return w_q, scale.astype(np.float32)

    def invalidate(self) -> None:
        """Drop all compiled state; the next call refolds current weights."""
        with self._lock:
            self._reset_state()
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Deterministic-buffer export / attach (zero-copy worker serving)
    # ------------------------------------------------------------------
    def export_state(self) -> Dict[str, np.ndarray]:
        """Every deterministic compiled buffer, as a flat ``name -> array`` map.

        Compiles first if needed. The map is the kernel's buffer table (the
        folded LUTs, the degree-permuted GEMM weights — quantized, next to
        their scales, in quantized modes — and the wildcard MASK machinery):
        exactly the state :meth:`attach_state` needs to reconstruct this
        kernel without refolding, and exactly what :attr:`size_bytes`
        counts, so a serving worker pool can publish one copy in shared
        memory and attach it in every process. Dynamic per-width caches
        (block corners, output heads, scratch) are derived from these
        buffers and rebuilt lazily per process.
        """
        self.compile()
        with self._lock:
            return dict(self._state)

    def attach_state(self, arrays: Dict[str, np.ndarray]) -> None:
        """Adopt buffers produced by :meth:`export_state` without refolding.

        ``arrays`` values are typically read-only views over one shared
        memory segment: the kernels never write into the deterministic
        buffers (all hot-path writes land in thread-local scratch), so N
        worker processes can attach the same physical pages. Marks the
        kernel compiled; dynamic caches start empty and grow per process.
        """
        with self._lock:
            self._reset_state()
            self._bind(dict(arrays))
            self._compiled = True
            self._attached = True
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Deterministic compiled-buffer footprint (0 until compiled).

        The bytes of the buffer table :meth:`compile` fills — what
        :meth:`export_state` publishes, no more and no less. Lazily-grown
        per-step specializations and thread-local scratch are bounded but
        workload- and thread-dependent, so they are reported via
        :meth:`stats` instead — keeping serving-layer memory accounting
        (registry eviction budgets) stable across identical models. Taken
        under the compile lock: a scrape beside :meth:`invalidate` (every
        hot-swap) must see the buffers either all present or all gone.
        """
        with self._lock:
            return int(sum(a.nbytes for a in self._state.values()))

    def stats(self) -> Dict[str, float]:
        """Compiled-state telemetry, including the dynamic caches.

        Safe beside a running walk: a serving thread inserts first-use cache
        entries while ``/metrics`` scrapes this, so every cache is read
        through a ``list`` snapshot (atomic under the GIL; the hot path
        takes no lock for it).
        """
        dynamic = 0
        for entry in list(self._block_cut_cache.values()):
            dynamic += sum(a.nbytes for part in entry for a in part)
        for head in list(self._out_head_cache.values()):
            dynamic += head.nbytes
        for head, _spans in list(self._multi_head_cache.values()):
            dynamic += head.nbytes
        out: Dict[str, float] = {
            "compiled": int(self._compiled),
            "attached": int(self._attached),
            "size_bytes": self.size_bytes,
            # Constant: the cache it counted is gone, but the frozen
            # benchmarks/perf/workloads.py::scheduler_and_kernels reads it.
            "pattern_entries": 0,
            "specialized_cuts": len(self._block_cut_cache),
            "out_heads": len(self._out_head_cache),
            "dynamic_cache_bytes": int(dynamic),
            "scratch_bytes": int(self._scratch_bytes),
            "quantization_bits": {"off": 0, "int16": 16, "int8": 8}[self.quantization],
        }
        if self._drift is not None:
            out.update(self._drift)
        return out

    def record_drift(self, rel_errors) -> Dict[str, float]:
        """Record per-query relative drift vs the reference engine (quantized modes).

        ``rel_errors`` holds one ``|est_q - est_ref| / est_ref`` per
        query (see ``inference.measure_quantization_drift``). The summary
        rides :meth:`stats` — and from there the scheduler's stats and the
        HTTP ``/metrics`` gauges — until the next measurement or
        :meth:`invalidate`.
        """
        rel = np.asarray(rel_errors, dtype=np.float64)
        if rel.size == 0:
            raise EstimationError("record_drift needs at least one per-query error")
        self._drift = {
            "quantization_drift_queries": int(rel.size),
            "quantization_drift_rel_mean": float(rel.mean()),
            "quantization_drift_rel_p50": float(np.median(rel)),
            "quantization_drift_rel_p90": float(np.quantile(rel, 0.9)),
            "quantization_drift_rel_max": float(rel.max()),
        }
        return dict(self._drift)

    # ------------------------------------------------------------------
    # Conditionals (the ProgressiveSampler surface)
    # ------------------------------------------------------------------
    def conditional(
        self, tokens: np.ndarray, col: int, wildcard: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``p(X_col | inputs)`` — same contract as the reference model.

        A one-shot :class:`FoldSession`: every column before ``col`` is
        folded on the rows where it is not a wildcard, then the session
        answers. The buffer is private, not the thread-local pool's — a
        stateless call must not clobber a walk's live session on the same
        thread.
        """
        self.compile()
        buffer = np.empty((len(tokens), self.model.d_ff), dtype=self._mask_base.dtype)
        session = FoldSession(self, buffer)
        if wildcard is None:
            given = np.ones((len(tokens), col), dtype=bool)
        else:
            given = ~wildcard[:, :col]
        # The sequential oracle loop wildcards whole columns: those are
        # skipped in one test and the rest fold by slice, which is what
        # makes refolding the prefix on every call affordable there.
        for i in np.flatnonzero(given.any(axis=0)):
            rows = slice(None) if given[:, i].all() else np.flatnonzero(given[:, i])
            session.fold(i, rows, tokens[rows, i])
        return session.probs(slice(None), col)

    column_conditional = conditional

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _blocks(self, h, cut: int) -> np.ndarray:
        """Residual stack over ``h`` in place; returns the final ReLU output.

        Every weight matrix carries its bias as an extra input row (and
        propagates the ones column through itself), so the whole stack runs
        as bare ``relu``/``matmul``/``add`` passes with no separate bias
        traversals over the batch.
        """
        h[:, cut] = 1.0
        _, r, a, t = self._scratch(len(h), cut)
        for w1a, w2a in self._block_slices(cut):
            np.maximum(h, 0.0, out=r)
            np.matmul(r, w1a, out=a)
            np.maximum(a, 0.0, out=a)
            np.matmul(a, w2a, out=t)
            h += t
        np.maximum(h, 0.0, out=r)
        return r

    def _scratch(self, n: int, cut: int):
        """Four contiguous ``(n, cut + 1)`` fp32 views over thread-local buffers.

        The extra column carries the constant-1 bias input (see
        :meth:`_blocks`); buffers are reused across steps and calls.
        """
        loc = self._local
        need = n * (cut + 1)
        if getattr(loc, "capacity", 0) < need:
            capacity = max(need, 2 * getattr(loc, "capacity", 0))
            loc.h = np.empty(capacity, dtype=np.float32)
            loc.r = np.empty(capacity, dtype=np.float32)
            loc.a = np.empty(capacity, dtype=np.float32)
            loc.t = np.empty(capacity, dtype=np.float32)
            self._scratch_bytes += 4 * (capacity - getattr(loc, "capacity", 0)) * 4
            loc.capacity = capacity
        shape = (n, cut + 1)
        return (
            loc.h[:need].reshape(shape),
            loc.r[:need].reshape(shape),
            loc.a[:need].reshape(shape),
            loc.t[:need].reshape(shape),
        )

    def _session_buffer(self, n: int) -> np.ndarray:
        """A reusable ``(n, d_ff)`` fold buffer (thread-local pool).

        fp32 in full-precision mode; int16 in quantized modes, where the
        fold arithmetic is exact in the shared integer domain and the
        buffer's memory traffic halves (the main quantized latency win).
        """
        loc = self._local
        need = n * self.model.d_ff
        if getattr(loc, "fold_capacity", 0) < need:
            loc.fold = np.empty(need, dtype=self._mask_base.dtype)
            self._scratch_bytes += (
                need - getattr(loc, "fold_capacity", 0)
            ) * loc.fold.itemsize
            loc.fold_capacity = need
        return loc.fold[:need].reshape(n, self.model.d_ff)

    def begin_session(self, n_rows: int) -> "FoldSession":
        """Open an incremental-fold session over a batched sampling walk.

        The batched engine fixes model columns in ascending order and hands
        each one's tokens over exactly once (``fold``); row ``r``'s
        contribution from a column (drawn token or MASK) never changes
        again. The session exploits that: it keeps one running
        ``(n_rows, d_ff)`` pre-activation buffer — later steps gather their
        prefix straight from it instead of re-gathering every earlier
        column per forward pass.
        """
        self.compile()
        return FoldSession(self, self._session_buffer(n_rows))

    def _gemm_corner(self, name: str, rows: slice, cols: slice) -> np.ndarray:
        """``[rows, cols]`` of one stored ``(in, out)`` GEMM weight, in fp32.

        Quantized weights dequantize here, once per cached corner, by their
        per-output-channel scale; the GEMMs accumulate in fp32 as usual.
        """
        corner = self._state[name][rows, cols]
        if self._q_scale is None:
            return corner
        return corner * self._state[f"{name}::scale"][cols]

    def _block_slices(self, cut: int):
        """Bias-augmented ``(cut+1)²`` block-weight corners per prefix width.

        Row ``cut`` holds the bias, so ``x_aug @ W`` fuses the affine map
        into one GEMM; the first matrix's last column regenerates the
        constant-1 input for the second, whose last column is zero so the
        residual add leaves the caller's ones column untouched.
        """
        entry = self._block_cut_cache.get(cut)
        if entry is None:
            entry = []
            corner = slice(cut)
            for j in range(len(self.model.blocks)):
                w1a = np.zeros((cut + 1, cut + 1), dtype=np.float32)
                w1a[:cut, :cut] = self._gemm_corner(f"block::{j}::w1", corner, corner)
                w1a[cut, :cut] = self._state[f"block::{j}::b1"][:cut]
                w1a[cut, cut] = 1.0
                w2a = np.zeros((cut + 1, cut + 1), dtype=np.float32)
                w2a[:cut, :cut] = self._gemm_corner(f"block::{j}::w2", corner, corner)
                w2a[cut, :cut] = self._state[f"block::{j}::b2"][:cut]
                entry.append((w1a, w2a))
            self._block_cut_cache[cut] = entry
        return entry

    def _out_head(self, col: int, cut: int) -> np.ndarray:
        """Bias-augmented ``(cut+1, dom)`` output head for one sampling step."""
        entry = self._out_head_cache.get(col)
        if entry is None:
            lo, hi = self.model.offsets[col], self.model.offsets[col + 1]
            entry = np.empty((cut + 1, hi - lo), dtype=np.float32)
            entry[:cut] = self._gemm_corner("w_out", slice(cut), slice(lo, hi))
            entry[cut] = self._b_out[lo:hi]
            self._out_head_cache[col] = entry
        return entry

    def _multi_head(self, cols: tuple, cut: int):
        """Concatenated bias-augmented heads for a multi-column pass.

        Rows ``cut_c..cut`` of column ``c``'s span are exactly zero (the
        MADE output mask forbids those units), so evaluating every head at
        the shared width ``cut`` reproduces each per-column head.
        """
        entry = self._multi_head_cache.get(cols)
        if entry is None:
            offsets = self.model.offsets
            spans, off = [], 0
            total = int(sum(offsets[c + 1] - offsets[c] for c in cols))
            head = np.zeros((cut + 1, total), dtype=np.float32)
            for c in cols:
                lo, hi = offsets[c], offsets[c + 1]
                cut_c = int(self._cuts[c])
                head[:cut_c, off : off + (hi - lo)] = self._gemm_corner(
                    "w_out", slice(cut_c), slice(lo, hi)
                )
                head[cut, off : off + (hi - lo)] = self._b_out[lo:hi]
                spans.append((off, off + (hi - lo)))
                off += hi - lo
            entry = (head, spans)
            self._multi_head_cache[cols] = entry
        return entry


class FoldSession:
    """Incremental pre-activation state for one batched sampling walk.

    Holds a running ``(n_rows, d_ff)`` buffer initialized with the
    *all-wildcard* pre-activation (bias + every column's MASK row, see
    ``_mask_base``) — the session's own copy of the sampled prefix; the walk
    keeps none. :meth:`fold` replaces a column's MASK contribution with its
    token contribution on the rows that drew one — one small delta gather
    per column per *walk* instead of a full-width gather per forward pass,
    and wildcard rows cost nothing at all. A column's LUT rows are exactly
    zero on hidden units of lower degree, so each fold only touches the
    buffer's ``cut[col]:`` suffix. ``rows`` is a slice or an index array
    everywhere.
    """

    __slots__ = ("compiled", "buffer")

    # What the batched walk may do with this provider (see
    # ``core.progressive._ReferenceSession`` for the contract).
    #: Indicator draws are deterministic, so a run of them pre-folds and
    #: shares one blocks pass (:meth:`probs_multi`).
    fuses_indicator_runs = True
    #: Past 90 % unique rows a kernel call on the raw rows is cheaper than
    #: maintaining prefix-group ids to skip the few duplicates.
    dedup_cutoff = 0.9

    def __init__(self, compiled: CompiledResMADE, buffer: np.ndarray):
        self.compiled = compiled
        self.buffer = buffer
        self.buffer[:] = compiled._mask_base

    def fold(self, col: int, rows, ids) -> None:
        """Replace ``col``'s MASK contribution with token ids on ``rows``.

        ``ids`` may be an array (one token per row) or a scalar shared by
        every row (deterministic columns).
        """
        c = self.compiled
        cut = int(c._cuts[col])
        mask_row = c._mask_stack[col][cut:]
        if np.ndim(ids) == 0:
            delta = c._luts[col][int(ids), cut:] - mask_row
        elif c._luts[col].dtype == self.buffer.dtype:
            delta = c._luts[col][ids, cut:]
            delta -= mask_row
        else:
            # int8 LUT rows promote to the int16 buffer domain on subtract
            # (the delta can exceed the int8 range even though the folded
            # buffer value cannot).
            delta = c._luts[col][ids, cut:] - mask_row
        self.buffer[rows, cut:] += delta

    def _prefix(self, rows, cut: int) -> np.ndarray:
        """The rows' folded pre-activation, ``cut`` wide, in kernel scratch."""
        c = self.compiled
        src = self.buffer[rows, :cut]
        h = c._scratch(len(src), cut)[0]
        if c._q_scale is None:
            h[:, :cut] = src
        else:
            np.multiply(src, c._q_scale[:cut], out=h[:, :cut])
        return h

    def probs(self, rows, col: int) -> np.ndarray:
        """``p(X_col | folded prefix)`` for the given global rows."""
        c = self.compiled
        cut = int(c._cuts[col])
        if cut == 0:
            lo, hi = c.model.offsets[col], c.model.offsets[col + 1]
            logits = np.broadcast_to(c._b_out[lo:hi], (len(self.buffer[rows, :0]), hi - lo))
            return softmax(np.array(logits, dtype=np.float32))
        hidden = c._blocks(self._prefix(rows, cut), cut)
        return _softmax_inplace(hidden @ c._out_head(col, cut))

    def probs_multi(self, rows, cols) -> list:
        """Conditionals for several columns from one shared blocks pass.

        Valid when every column below ``cols[-1]`` that will ever be folded
        already is: the blocks run once at the widest column's prefix, and
        each column reads its own (zero-padded) output head. Hidden units of
        degree ``>= c`` carry exactly-zero output weights for column ``c``,
        so the wider pass computes the same logits the per-column kernel
        would.
        """
        c = self.compiled
        cut = int(c._cuts[cols[-1]])
        if cut == 0:
            return [self.probs(rows, col) for col in cols]
        head, spans = c._multi_head(tuple(cols), cut)
        logits = c._blocks(self._prefix(rows, cut), cut) @ head
        return [_softmax_inplace(logits[:, lo:hi]) for lo, hi in spans]
