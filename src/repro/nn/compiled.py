"""Plan-specialized compiled inference kernels for ResMADE.

Training wants one graph with gradients; serving wants the cheapest possible
per-column conditional. :class:`CompiledResMADE` is the serving side: it
folds a trained :class:`~repro.nn.resmade.ResMADE` into one table of
inference-only kernel operands that exploit everything that is constant
per query plan, and a served estimator holds that table instead of the
model:

* **Embedding folding** — a column's input-layer contribution for a token
  is its embedding row times the column's slice of the input masked-linear.
  The table stores the embeddings (``emb::i``) and only the slice
  (``win::i``); a fold multiplies embedding rows through it. No embedding
  concat and no full input matmul at inference.
* **Degree-sorted prefix slicing** — hidden units are permuted so MADE
  degrees are non-decreasing. Column ``c``'s logits depend only on hidden
  units of degree ``< c``, which after the permutation is a contiguous
  prefix; every residual-block matmul for step ``c`` runs on the
  ``(cut[c] + 1)²`` top-left corner of the stored weight. The corners are
  views of one bias-first table: index 0 of every GEMM weight holds the
  constant-1 input and the bias, so a corner is ``W[:cut + 1, :cut + 1]``
  (unit inner stride, ``lda = d_ff + 1``) and NumPy hands it to BLAS as is.
* **Live-only storage** — the MADE masks make a column's input
  contribution exactly zero on hidden units below its cut and its output
  weights zero past it, so the table keeps only what they leave live: input
  slice ``i`` is ``(d_emb, d_ff - cut[i])``, and column ``i``'s head is one
  contiguous bias-first ``(cut[i] + 1, dom[i])`` block, the only output
  weight its logits read.
* **Chunked passes, bounded scratch** — the gather, the residual stack
  and the head GEMMs run over at most :data:`CHUNK_ROWS` rows at a time,
  in fp32, through three thread-local scratch arrays allocated once at
  ``CHUNK_ROWS × (d_ff + 1)``; only the ``(rows, dom)`` logits grow with
  the batch, so a walk's working set is set by the chunk and the fold
  buffer, not by batch size times domain.
* **Incremental fold session** — for a batched walk, :class:`FoldSession`
  owns the sampled prefix as one running ``(n_rows, d_ff)`` pre-activation
  buffer. The walk hands each column's drawn tokens over exactly once
  (``fold(col, rows, ids)``, ascending columns) and asks for
  ``probs(rows, col)``; no token or wildcard matrix exists on that path.

Everything :meth:`CompiledResMADE.fold` produces lives in one
``name -> array`` table: it is what :meth:`~CompiledResMADE.export_state`
publishes, what the constructor adopts (a worker's shared-memory views)
and what :attr:`~CompiledResMADE.size_bytes` counts, and every kernel
operand is a view of it, so no process holds a second copy. The table
keeps no masked weight's value (block weights hold zeros there), so it is
not the training form; it keeps every live one, so
:meth:`~CompiledResMADE.unfold_into` rebuilds the training
form exactly over the model's seeded skeleton (masked weights never leave
their seeded values). The session is the only kernel: the stateless
:meth:`~CompiledResMADE.conditional` opens a one-shot session over a
private buffer, folds the prefix it was handed and asks for one column.

Precision
---------
Conditionals match the reference forward to fp32 round-off (the
estimator-level contract is ≤1e-4 relative drift on estimates, gated by
``benchmarks/bench_compiled_inference.py``). The trained model is the
oracle: an engine built over it (``NeuroCard.training_model()`` for a
served estimator) runs the identical walk on the reference forward.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.nn import masks as made_masks

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


#: Most rows one kernel pass (gather, residual stack, head GEMMs) covers,
#: and the row chunk the walk's draws count over. 512 rows keeps BLAS at
#: full rate while the scratch stays under a megabyte at ``d_ff = 128``.
CHUNK_ROWS = 512


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


def _degree_order(n_columns: int, d_ff: int) -> np.ndarray:
    """The hidden-unit permutation that sorts MADE degrees ascending (stable),
    the order every hidden axis of the kernel table is stored in."""
    return np.argsort(made_masks.hidden_degrees(n_columns, d_ff), kind="stable")


def _chunks(rows, n_rows: int) -> list:
    """``(out, part)`` per chunk of the ``n_rows`` rows ``rows`` selects:
    ``out`` slices the chunk's positions in the result, ``part`` selects its
    rows. ``rows`` is a unit-step slice from a non-negative start (cut into
    sub-slices, so no fancy indexing) or an index array."""
    if n_rows <= CHUNK_ROWS:
        return [(slice(None), rows)]
    starts = range(0, n_rows, CHUNK_ROWS)
    if isinstance(rows, slice):
        first = rows.start or 0
        return [
            (slice(lo, lo + CHUNK_ROWS), slice(first + lo, first + min(lo + CHUNK_ROWS, n_rows)))
            for lo in starts
        ]
    return [(slice(lo, lo + CHUNK_ROWS), rows[lo : lo + CHUNK_ROWS]) for lo in starts]


def _softmax_inplace(logits: np.ndarray) -> np.ndarray:
    """Row softmax written over ``logits`` (shifted exps are <= 1, well
    inside fp32 range); downstream Monte Carlo draws work in this dtype."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


class CompiledResMADE:
    """The served form of a trained ResMADE: its kernel table, and nothing else.

    Exposes the ``conditional`` / ``column_conditional`` / ``begin_session``
    surface the progressive sampler consumes, so it is the engine's model.
    Built by :meth:`fold` from a trained model, or directly from a table
    :meth:`export_state` produced (a worker's shared-memory views); either
    way the table is immutable and the object reads its architecture off
    the table's shapes. :meth:`unfold_into` writes it back into a seeded
    skeleton model, which recovers the training form exactly.
    """

    def __init__(self, state: Dict[str, np.ndarray]):
        self._state = dict(state)
        self._cuts = self._state["cuts"]
        self.n_columns = len(self._cuts)
        self._heads = [self._state[f"head::{i}"] for i in range(self.n_columns)]
        self.domains = [head.shape[1] for head in self._heads]
        self.offsets = np.concatenate([[0], np.cumsum(self.domains)])
        self._embs = [self._state[f"emb::{i}"] for i in range(self.n_columns)]
        self._wins = [self._state[f"win::{i}"] for i in range(self.n_columns)]
        self._mask_base = self._state["mask_base"]
        self.d_emb = self._embs[0].shape[1]
        self.d_ff = len(self._mask_base)
        self.n_blocks = sum(name.endswith("::w1") for name in self._state)
        self._block_ws = [
            (self._state[f"block::{j}::w1"], self._state[f"block::{j}::w2"])
            for j in range(self.n_blocks)
        ]
        self._size_bytes = int(sum(a.nbytes for a in self._state.values()))
        self._local = threading.local()
        self._scratch_bytes = 0

    # ------------------------------------------------------------------
    # Fold / unfold
    # ------------------------------------------------------------------
    @classmethod
    def fold(cls, model) -> "CompiledResMADE":
        """Fold a trained ResMADE's weights into a kernel table."""
        if not supports_compilation(model):
            raise EstimationError(
                f"cannot compile {type(model).__name__}: not a ResMADE-like model"
            )
        perm = _degree_order(model.n_columns, model.d_ff)
        degrees = made_masks.hidden_degrees(model.n_columns, model.d_ff)[perm]
        state: Dict[str, np.ndarray] = {
            "cuts": np.searchsorted(degrees, np.arange(model.n_columns), side="left").astype(
                np.int64
            ),
            # Folded into ``mask_base`` below; kept on its own for
            # :meth:`unfold_into` only.
            "b_in": model.input_linear.b.value[perm],
        }

        # Column ``i``'s contribution to the hidden pre-activation for token
        # ``t`` is ``E_i[t] @ w_in_i``, with ``w_in_i`` its permuted, masked
        # ``(d_emb, d_ff)`` input slice; the MASK token is the last row of
        # ``E_i``. The contribution is exactly zero on hidden units of lower
        # degree, so the table keeps only ``w_in_i``'s ``cut:`` columns and
        # a fold multiplies embedding rows through them.
        w_in = model.input_linear.effective_weight()[perm]
        d_emb = model.d_emb
        cuts = state["cuts"]
        mask_rows = []
        for i, emb in enumerate(model.embeddings):
            # The table's own copy: a fold gathers token rows from it.
            state[f"emb::{i}"] = emb.W.value.copy()
            w = w_in[:, i * d_emb : (i + 1) * d_emb].T
            mask_rows.append(
                (emb.W.value[-1:].astype(np.float64) @ w.astype(np.float64)).astype(np.float32)
            )
            state[f"win::{i}"] = np.ascontiguousarray(w[:, cuts[i] :], dtype=np.float32)
        # The all-wildcard pre-activation: bias + every column's MASK row,
        # folded in fp64 and rounded once per column. Pre-adding *future*
        # columns' MASK rows is invisible to every conditional until the
        # column is folded (replaced) — which lets fold sessions start here
        # and touch only non-wildcard rows.
        state["mask_base"] = state["b_in"] + np.concatenate(mask_rows).sum(axis=0)

        # GEMM weights, stored ``(1 + in, out)`` over the permuted units with
        # the bias as row 0. The kernels keep the constant-1 input at index 0
        # of every activation, so the affine map of a width-``cut`` prefix is
        # the view ``W[:cut + 1]`` and no prefix width needs its own copy.
        ix = np.ix_(perm, perm)
        d = model.d_ff + 1
        for j, block in enumerate(model.blocks):
            for k, lin in (("1", block.lin1), ("2", block.lin2)):
                w = np.zeros((d, d), dtype=np.float32)
                w[0, 1:] = lin.b.value[perm]
                w[1:, 1:] = lin.effective_weight()[ix].T
                state[f"block::{j}::w{k}"] = w
            # Output 0 of ``w1`` regenerates the constant-1 input for ``w2``,
            # whose zero column 0 leaves the residual stream's ones alone.
            state[f"block::{j}::w1"][0, 0] = 1.0
        # Column ``i``'s logits read only the hidden units of degree < i, the
        # first ``cut[i]``: its head is the bias-first ``(cut[i] + 1, dom)``
        # block of the output weight, stored contiguously on its own.
        head = model.output_linear
        w_head = head.effective_weight()[:, perm]
        for i, cut in enumerate(cuts):
            lo, hi = model.offsets[i], model.offsets[i + 1]
            state[f"head::{i}"] = np.vstack([head.b.value[lo:hi], w_head[lo:hi, :cut].T])
        return cls(state)

    def unfold_into(self, model) -> None:
        """Write the table back into ``model``'s parameters, in place.

        ``model`` is the seeded skeleton of the architecture the table was
        folded from. Every entry the MADE masks leave live is in the table
        and is scattered back through the inverse degree permutation; the
        masked entries keep ``model``'s seeded values, which is what
        training left them at (their gradient is masked to zero, so Adam
        never moves them). On a trained model's skeleton this recovers
        every parameter bitwise.
        """
        perm = _degree_order(self.n_columns, self.d_ff)
        d_emb = self.d_emb
        for i, emb in enumerate(model.embeddings):
            emb.W.value[...] = self._embs[i]
        model.input_linear.b.value[perm] = self._state["b_in"]
        w_in = model.input_linear.W.value
        for i, cut in enumerate(self._cuts):
            w_in[perm[cut:], i * d_emb : (i + 1) * d_emb] = self._wins[i].T
        ix = np.ix_(perm, perm)
        for block, (w1, w2) in zip(model.blocks, self._block_ws):
            for lin, w in ((block.lin1, w1), (block.lin2, w2)):
                lin.b.value[perm] = w[0, 1:]
                lin.W.value[ix] = np.where(lin.mask[ix], w[1:, 1:].T, lin.W.value[ix])
        head = model.output_linear
        for i, cut in enumerate(self._cuts):
            lo, hi = model.offsets[i], model.offsets[i + 1]
            head.b.value[lo:hi] = self._heads[i][0]
            head.W.value[lo:hi, perm[:cut]] = self._heads[i][1:].T

    def compile(self) -> "CompiledResMADE":
        """No-op: a table is folded when it is built."""
        return self

    def export_state(self) -> Dict[str, np.ndarray]:
        """The kernel table, as a flat ``name -> array`` map.

        Per-column embeddings and live input slices, the input bias, the
        all-wildcard base row, and the degree-permuted bias-first block
        weights and per-column heads: everything the constructor needs to
        serve, and exactly what :attr:`size_bytes` counts, so a serving
        worker pool can publish one copy in shared memory and every process
        can build its kernel over read-only views of it. The kernels never
        write into the table (all hot-path writes land in thread-local
        scratch), so N processes share the same physical pages.
        """
        return dict(self._state)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Bytes of the kernel table — what :meth:`export_state` publishes,
        no more and no less, and fixed for the object's life. Thread-local
        scratch (chunk-sized kernel arrays and a fold buffer per walking
        thread) is reported via :meth:`stats` instead, keeping serving-layer
        memory accounting (registry eviction budgets) stable across
        identical models."""
        return self._size_bytes

    def stats(self) -> Dict[str, float]:
        """Compiled-state telemetry."""
        return {
            "size_bytes": self._size_bytes,
            # Constants: the caches they counted are gone, but their one
            # reader, the frozen benchmarks/perf/workloads.py::
            # scheduler_and_kernels, still reports both.
            "pattern_entries": 0,
            "dynamic_cache_bytes": 0,
            "scratch_bytes": int(self._scratch_bytes),
        }

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
        buffer = np.empty((len(tokens), self.d_ff), dtype=np.float32)
        session = FoldSession(self, buffer)
        if wildcard is None:
            given = np.ones((len(tokens), col), dtype=bool)
        else:
            given = ~wildcard[:, :col]
        # The sequential oracle loop wildcards whole columns: those are
        # skipped in one test and the rest fold by slice, which is what
        # makes folding the whole prefix again on every call affordable there.
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

        Column 0 of ``h`` is the constant-1 input and row 0 of every stored
        weight its bias, so each layer is one GEMM on the ``(cut + 1)²``
        corner view of the table (see :meth:`CompiledResMADE.fold`) and the whole
        stack runs as bare ``relu``/``matmul``/``add`` passes with no
        separate bias traversals over the batch. A block's second GEMM
        lands in ``r``, free again once ``a`` holds its first.
        """
        h[:, 0] = 1.0
        _, r, a = self._scratch(len(h), cut)
        k = cut + 1
        for w1, w2 in self._block_ws:
            np.maximum(h, 0.0, out=r)
            np.matmul(r, w1[:k, :k], out=a)
            np.maximum(a, 0.0, out=a)
            np.matmul(a, w2[:k, :k], out=r)
            h += r
        np.maximum(h, 0.0, out=r)
        return r

    def _scratch(self, n: int, cut: int) -> np.ndarray:
        """Three contiguous ``(n, cut + 1)`` fp32 views, ``n <= CHUNK_ROWS``,
        over one thread-local buffer allocated once at the chunk size.

        Column 0 carries the constant-1 bias input (see :meth:`_blocks`).
        """
        loc = self._local
        if not hasattr(loc, "scratch"):
            loc.scratch = np.empty((3, CHUNK_ROWS * (self.d_ff + 1)), dtype=np.float32)
            self._scratch_bytes += loc.scratch.nbytes
        return loc.scratch[:, : n * (cut + 1)].reshape(3, n, cut + 1)

    def _session_buffer(self, n: int) -> np.ndarray:
        """A reusable fp32 ``(n, d_ff)`` fold buffer (thread-local pool)."""
        loc = self._local
        need = n * self.d_ff
        if getattr(loc, "fold_capacity", 0) < need:
            loc.fold = np.empty(need, dtype=np.float32)
            self._scratch_bytes += (
                need - getattr(loc, "fold_capacity", 0)
            ) * loc.fold.itemsize
            loc.fold_capacity = need
        return loc.fold[:need].reshape(n, self.d_ff)

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
        return FoldSession(self, self._session_buffer(n_rows))


class FoldSession:
    """Incremental pre-activation state for one batched sampling walk.

    Holds a running ``(n_rows, d_ff)`` buffer initialized with the
    *all-wildcard* pre-activation (bias + every column's MASK row, see
    ``_mask_base``) — the session's own copy of the sampled prefix; the walk
    keeps none. :meth:`fold` replaces a column's MASK contribution with its
    token contribution on the rows that drew one — one small
    ``(rows, d_emb)`` product per column per *walk* instead of a full-width
    input matmul per forward pass, and wildcard rows cost nothing at all. A
    column's contribution is exactly zero on hidden units of lower degree,
    so the table stores, and each fold touches, only the ``cut[col]:``
    suffix. ``rows`` is a slice or an index array everywhere.
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
        every row (deterministic columns); either way the delta is the
        embedding rows minus the MASK row, times the column's input slice.
        """
        c = self.compiled
        emb = c._embs[col]
        self.buffer[rows, int(c._cuts[col]) :] += (emb[ids] - emb[-1]) @ c._wins[col]

    def _prefix(self, rows, cut: int) -> np.ndarray:
        """The rows' folded pre-activation, ``cut`` wide, in kernel scratch
        behind the constant-1 column 0."""
        src = self.buffer[rows, :cut]
        h = self.compiled._scratch(len(src), cut)[0]
        h[:, 1:] = src
        return h

    def probs(self, rows, col: int) -> np.ndarray:
        """``p(X_col | folded prefix)`` for the given global rows."""
        return self.probs_multi(rows, (col,))[0]

    def probs_multi(self, rows, cols) -> list:
        """Conditionals for several columns from one shared blocks pass.

        Valid when every column below ``cols[-1]`` that will ever be folded
        already is: the blocks run once at the widest (last) column's prefix.
        The residual stack never mixes a unit into units of lower degree, so
        the pass's first ``cut[c] + 1`` outputs are the ones column ``c``'s
        own pass would give, and each column multiplies that prefix of the
        shared pass by its own head. The pass runs chunk by chunk, each
        head's GEMM writing its chunk's rows of that column's logits.
        """
        c = self.compiled
        n_rows = len(self.buffer[rows, :0])
        cut = int(c._cuts[cols[-1]])
        logits = [np.empty((n_rows, c._heads[col].shape[1]), dtype=np.float32) for col in cols]
        if cut == 0:
            # No hidden unit feeds these columns: their logits are the bias.
            for col, dst in zip(cols, logits):
                dst[:] = c._heads[col][0]
        else:
            for out, part in _chunks(rows, n_rows):
                hidden = c._blocks(self._prefix(part, cut), cut)
                for col, dst in zip(cols, logits):
                    np.matmul(hidden[:, : c._cuts[col] + 1], c._heads[col], out=dst[out])
        return [_softmax_inplace(dst) for dst in logits]
