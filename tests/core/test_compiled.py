"""Compiled inference engine: kernel equivalence, one table, lifecycle.

The reference engine (a ``ProgressiveSampler`` built directly over the
trained model) is the correctness oracle throughout — both engines run the
same batched walk (pinned to the sequential loop in ``test_batched.py``),
so the served fp32 engine must match it to fp32 round-off on conditionals
and estimates; every kernel operand is a view of the one exported table,
and per-process state (fold sessions, scratch) must never leak across
queries or calls.
"""

import numpy as np
import pytest

from repro.core.estimator import NeuroCard
from repro.core.inference import build_engine, compiled_model
from repro.core.progressive import ProgressiveSampler
from repro.errors import EstimationError
from repro.nn import compiled as compiled_module
from repro.nn.compiled import CHUNK_ROWS, CompiledResMADE, FoldSession
from repro.nn.masks import hidden_degrees
from repro.nn.resmade import ResMADE
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.relational.schema import JoinEdge, JoinSchema
from repro.relational.table import Table
from tests.core.test_estimator import correlated_schema, small_config


@pytest.fixture(scope="module")
def fitted():
    schema = correlated_schema(n_root=120, seed=1)
    config = small_config(
        train_tuples=15_000, sampler_threads=1, progressive_samples=96
    )
    return schema, NeuroCard(schema, config).fit()


def workload():
    return [
        Query.make(["R"], [Predicate("R", "year", ">=", 1995)]),
        Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)]),
        Query.make(["R", "C2"], [Predicate("C2", "score", "<", 10)]),
        Query.make(["R", "C1"], [Predicate("R", "year", "IN", (1991, 1996))]),
        Query.make(["C1"], []),
        Query.make(["R", "C1", "C2"], [Predicate("R", "year", "<", 1994)]),
    ]


def served(estimator):
    """A fresh serving engine (a newly folded table, cold scratch) over the
    estimator's weights."""
    return build_engine(estimator.training_model(), estimator.layout, estimator.full_join_size)


def reference(estimator):
    """The oracle: the same walk over the trained model's own forward."""
    return ProgressiveSampler(
        estimator.training_model(), estimator.layout, estimator.full_join_size
    )


def untrained(schema, config):
    """An estimator serving its seeded, untrained weights."""
    estimator = NeuroCard(schema, config).prepare()
    return estimator.serve(CompiledResMADE.fold(estimator.training_model()))


def batch(engine, queries, n=96, base_seed=700):
    return engine.estimate_batch(
        queries, n_samples=n,
        rngs=[np.random.default_rng(base_seed + i) for i in range(len(queries))],
    )


class TestKernelEquivalence:
    def test_fp32_conditionals_match_reference(self, fitted):
        """The fold arithmetic serving runs (a one-shot ``FoldSession`` per
        call) reproduces the reference forward to fp32 noise, for every
        column under per-row mixed wildcards and under none."""
        _, estimator = fitted
        model = estimator.training_model()
        compiled = CompiledResMADE.fold(model)
        rng = np.random.default_rng(3)
        tokens = np.column_stack([rng.integers(0, d, 64) for d in model.domains])
        wildcard = rng.random((64, model.n_columns)) < 0.5
        for col in range(model.n_columns):
            for wc in (wildcard, None):
                ref = model.column_conditional(tokens, col, wc)
                got = compiled.column_conditional(tokens, col, wc)
                np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-6)

    def test_scratch_reuse_is_bitwise_stable(self, fitted):
        """Reused fp32 scratch buffers never bleed between calls."""
        _, estimator = fitted
        model = estimator.training_model()
        compiled = CompiledResMADE.fold(model)
        rng = np.random.default_rng(5)
        tokens = np.column_stack([rng.integers(0, d, 40) for d in model.domains])
        wildcard = rng.random((40, model.n_columns)) < 0.3
        col = model.n_columns - 1
        first = compiled.column_conditional(tokens, col, wildcard)
        # Interleave a differently-shaped call, then repeat the original.
        compiled.column_conditional(tokens[:7], 2, wildcard[:7])
        again = compiled.column_conditional(tokens, col, wildcard)
        assert np.array_equal(first, again)

    def test_stateless_conditional_leaves_a_live_session_alone(self, fitted):
        """``conditional`` folds into a private buffer: a call made while a
        walk's session is open on the same thread changes none of its bits."""
        _, estimator = fitted
        model = estimator.training_model()
        rng = np.random.default_rng(6)
        tokens = np.column_stack([rng.integers(0, d, 24) for d in model.domains])
        col = model.n_columns - 1

        def walk(interrupt):
            compiled = CompiledResMADE.fold(model)
            session = compiled.begin_session(len(tokens))
            for i in range(col):
                session.fold(i, slice(None), tokens[:, i])
            if interrupt:
                compiled.conditional(tokens[::-1], col)
            return session.probs(slice(None), col).copy()

        assert np.array_equal(walk(interrupt=True), walk(interrupt=False))

    def test_sequential_and_batched_walks_agree_on_compiled_kernels(self, fitted):
        """The sequential oracle loop (stateless conditionals) and the
        batched walk (one session) on the same pinned stream stay inside
        the documented fp32 envelope (docs/accuracy.md)."""
        _, estimator = fitted
        fast = served(estimator)
        for i, query in enumerate(workload()):
            seq = fast.estimate(query, n_samples=96, rng=np.random.default_rng(40 + i))
            (one,) = fast.estimate_batch(
                [query], n_samples=96, rngs=[np.random.default_rng(40 + i)]
            )
            assert abs(seq - one) <= 5e-6 * max(abs(one), 1e-12)

    def test_fp32_estimates_within_tolerance(self, fitted):
        _, estimator = fitted
        ref, fast = reference(estimator), served(estimator)
        queries = workload()
        a, b = batch(ref, queries), batch(fast, queries)
        rel = np.abs(b - a) / np.maximum(np.abs(a), 1e-12)
        assert np.median(rel) <= 1e-4
        assert np.quantile(rel, 0.9) <= 1e-3


    def test_indicator_run_wider_than_a_machine_word(self):
        """The fused indicator run keys its membership dedup on boolean
        rows, so joining the 64th-or-later table of a wide star works (the
        key used to be an int64 bit pattern and overflowed)."""
        n_children = 65
        root = Table.from_dict("R", {"id": [0, 1, 2], "x": [5, 6, 6]})
        children = {
            f"C{i:02d}": Table.from_dict(
                f"C{i:02d}", {"rid": [i % 3, (i + 1) % 3], "v": [i % 2, 1]}
            )
            for i in range(n_children)
        }
        schema = JoinSchema(
            tables={"R": root, **children},
            edges=[JoinEdge("R", name, (("id", "rid"),)) for name in children],
            root="R",
        )
        config = small_config(
            d_ff=256, progressive_samples=16, sampler_threads=1, exclude_columns=()
        )
        last = f"C{n_children - 1:02d}"
        queries = [
            Query.make(["R", last], [Predicate("R", "x", "=", 6)]),
            Query.make(["R", "C00"], []),
        ]
        estimator = untrained(schema, config)
        indicator_specs = [
            s.name for s in estimator.layout.specs if s.kind == "indicator"
        ]
        assert indicator_specs.index(estimator.layout.indicator_spec_name(last)) >= 64
        fast, ref = (
            engine.estimate_batch(
                queries, n_samples=config.progressive_samples,
                rngs=[np.random.default_rng(i) for i in range(2)],
            )
            for engine in (estimator.inference, reference(estimator))
        )
        assert np.isfinite(fast).all() and (fast >= 0).all()
        np.testing.assert_allclose(fast, ref, rtol=1e-4)


class TestDynamicCaches:
    def test_warm_dynamic_caches_match_a_cold_engine_bitwise(self, fitted):
        """A warm engine (scratch and fold buffers grown and reused by other
        queries' walks) must give the same bits as a cold engine."""
        _, estimator = fitted
        fast = served(estimator)
        queries = workload()
        warm_first = batch(fast, queries)
        warm_again = batch(fast, queries)  # every buffer reused now
        cold = served(estimator)
        cold_run = batch(cold, queries)
        np.testing.assert_array_equal(warm_first, warm_again)
        np.testing.assert_array_equal(warm_again, cold_run)

    def test_mixed_wildcard_batch_matches_reference_row_for_row(self, fitted):
        """Rows of one call may wildcard different columns: each row folds
        only its own constrained prefix."""
        _, estimator = fitted
        model = estimator.training_model()
        compiled = CompiledResMADE.fold(model)
        col = model.n_columns - 1
        a = np.zeros(model.n_columns, dtype=bool)
        b = np.zeros(model.n_columns, dtype=bool)
        a[0] = True
        b[1] = True
        rng = np.random.default_rng(7)
        tokens = np.column_stack([rng.integers(0, d, 8) for d in model.domains])
        wildcard = np.vstack([np.tile(a, (4, 1)), np.tile(b, (4, 1))])
        np.testing.assert_allclose(
            compiled.column_conditional(tokens, col, wildcard),
            model.column_conditional(tokens, col, wildcard),
            rtol=1e-4, atol=1e-6,
        )


class TestBoundedWorkingSet:
    def test_walk_scratch_is_three_chunks_whatever_the_batch(self, monkeypatch):
        """After a b32 walk whose kernel passes cover more than a chunk of
        rows, a thread's kernel scratch (``scratch_bytes`` less the fold
        buffer) is three ``CHUNK_ROWS x (d_ff + 1)`` fp32 arrays, and a b8
        walk leaves the same."""
        rng = np.random.default_rng(0)
        columns = {c: [int(v) for v in rng.integers(0, 200, 2000)] for c in "abc"}
        schema = JoinSchema(tables={"T": Table.from_dict("T", columns)}, edges=[], root="T")
        config = small_config(exclude_columns=(), sampler_threads=1, progressive_samples=96)
        # Untrained weights: near-uniform conditionals over 200 codes, so
        # prefixes stop repeating after two columns.
        estimator = untrained(schema, config)
        queries = [
            Query.make(["T"], [Predicate("T", "a", "<", 150 + i), Predicate("T", "b", ">=", i),
                               Predicate("T", "c", "<", 190)])
            for i in range(32)
        ]
        widest = [0]

        def spy(real):
            def counted(self, rows, cols):
                widest[0] = max(widest[0], len(self.buffer[rows, :0]))
                return real(self, rows, cols)

            return counted

        for name in ("probs", "probs_multi"):
            monkeypatch.setattr(FoldSession, name, spy(getattr(FoldSession, name)))
        kernel = {}
        for size in (32, 8):
            widest[0] = 0
            engine = served(estimator)
            compiled = compiled_model(engine)
            batch(engine, queries[:size])
            fold = compiled._local.fold
            assert fold.nbytes == size * 96 * compiled.d_ff * 4
            kernel[size] = compiled.stats()["scratch_bytes"] - fold.nbytes
            assert widest[0] > CHUNK_ROWS
        assert kernel[32] <= 3 * CHUNK_ROWS * (estimator.compiled.d_ff + 1) * 4
        assert kernel[8] == kernel[32]

    @pytest.mark.parametrize("indexed", [False, True], ids=["slice", "index array"])
    def test_session_over_several_chunks_matches_one_pass(self, fitted, monkeypatch, indexed):
        """``probs`` / ``probs_multi`` over more than two chunks, with
        ``rows`` a slice or an index array, match a session whose chunk
        covers every row; the one-shot ``conditional`` takes the same path
        and still matches the reference forward."""
        _, estimator = fitted
        model = estimator.training_model()
        n, n_rows = model.n_columns, 2 * CHUNK_ROWS + 37
        rng = np.random.default_rng(12)
        tokens = np.column_stack([rng.integers(0, d, n_rows) for d in model.domains])
        given = rng.random((n_rows, n)) < 0.7
        rows = rng.permutation(n_rows)[:-5] if indexed else slice(3, n_rows)
        cols = [n - 4, n - 3, n - 1]

        def answers():
            compiled = CompiledResMADE.fold(model)
            session = compiled.begin_session(n_rows)
            for i in range(cols[-1]):
                at = np.flatnonzero(given[:, i])
                session.fold(i, at, tokens[at, i])
            single = [session.probs(rows, col) for col in cols]
            return single + session.probs_multi(rows, cols)

        chunked = answers()
        with monkeypatch.context() as patch:
            patch.setattr(compiled_module, "CHUNK_ROWS", n_rows)
            one_pass = answers()
        for got, want in zip(chunked, one_pass):
            assert got.shape == (n_rows - 5 if indexed else n_rows - 3, want.shape[1])
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-7)
        wildcard = ~given
        np.testing.assert_allclose(
            CompiledResMADE.fold(model).conditional(tokens, n - 1, wildcard),
            model.column_conditional(tokens, n - 1, wildcard),
            rtol=1e-4, atol=1e-6,
        )


def matmul_operands(run, monkeypatch):
    """The weight operand of every ``np.matmul`` the kernel makes in ``run()``."""
    seen, real = [], np.matmul

    def recording(a, b, *args, **kwargs):
        seen.append(b)
        return real(a, b, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "matmul", recording)
        run()
    return seen


class TestOneTable:
    def test_export_attach_roundtrip_is_bitwise(self, fitted, monkeypatch):
        """The exported table is the whole kernel: it is what ``size_bytes``
        counts, warm walks add nothing beside it, every GEMM operand and every
        embedding a fold reads is a view of it, and a kernel built over
        read-only views of it serves bitwise-identical estimates."""
        _, estimator = fitted
        source = served(estimator)
        compiled = compiled_model(source)
        size = compiled.size_bytes
        queries = workload() + workload()[:2]  # one batch of 8
        for query in queries:
            batch(source, [query])
        want = batch(source, queries)
        batch(source, queries * 4)
        assert compiled.size_bytes == size
        assert compiled.stats()["dynamic_cache_bytes"] == 0

        state = compiled.export_state()
        assert size == sum(a.nbytes for a in state.values())
        stale = [n for n in state if n.startswith("pattern_") or n == "perm"]
        assert not stale
        views = {name: array.view() for name, array in state.items()}
        for view in views.values():
            view.flags.writeable = False
        attached = CompiledResMADE(views)
        clone = ProgressiveSampler(attached, estimator.layout, estimator.full_join_size)
        assert attached.size_bytes == size
        for i in range(attached.n_columns):
            assert attached._embs[i] is views[f"emb::{i}"]
            assert attached._wins[i] is views[f"win::{i}"]
        np.testing.assert_array_equal(batch(clone, queries), want)

        model = estimator.training_model()
        rng = np.random.default_rng(2)
        tokens = np.column_stack([rng.integers(0, d, 16) for d in model.domains])
        session = attached.begin_session(len(tokens))
        blocks = [
            views[f"block::{j}::w{k}"] for j in range(len(model.blocks)) for k in "12"
        ]
        for col in range(model.n_columns):
            operands = matmul_operands(
                lambda: session.probs(slice(None), col), monkeypatch
            )
            want_tables = [] if attached._cuts[col] == 0 else blocks + [views[f"head::{col}"]]
            assert len(operands) == len(want_tables), col
            for operand, table in zip(operands, want_tables):
                assert np.shares_memory(operand, table), col
            session.fold(col, slice(None), tokens[:, col])
        assert attached.stats()["dynamic_cache_bytes"] == 0

    def test_table_holds_only_what_the_masks_leave_live(self, fitted):
        """Each column keeps its input slice's ``cut:`` columns and its
        bias-first ``(cut + 1, dom)`` head: every entry the full-width fold
        would add is an exact zero, no folded LUT is stored beside the
        embeddings, and the table stores nothing else."""
        _, estimator = fitted
        model = estimator.training_model()
        compiled = CompiledResMADE.fold(model)
        state = compiled.export_state()
        n, n_blocks = model.n_columns, len(model.blocks)
        assert set(state) == (
            {"cuts", "mask_base", "b_in"}
            | {f"{kind}::{i}" for kind in ("emb", "win", "head") for i in range(n)}
            | {f"block::{j}::w{k}" for j in range(n_blocks) for k in "12"}
        )
        assert compiled.size_bytes == sum(a.nbytes for a in state.values())

        # The full-width fold, in float64.
        perm = np.argsort(hidden_degrees(model.n_columns, model.d_ff), kind="stable")
        np.testing.assert_array_equal(state["b_in"], model.input_linear.b.value[perm])
        w_in = model.input_linear.effective_weight()[perm]
        head = model.output_linear
        w_out = np.vstack(
            [head.b.value[None], head.effective_weight()[:, perm].T]
        ).astype(np.float64)
        d_emb = model.d_emb
        for i, dom in enumerate(model.domains):
            cut = int(state["cuts"][i])
            lo, hi = model.offsets[i], model.offsets[i + 1]
            w_in_i = w_in[:, i * d_emb : (i + 1) * d_emb].T
            lut = model.embeddings[i].W.value.astype(np.float64) @ w_in_i.astype(np.float64)
            assert state[f"win::{i}"].shape == (d_emb, model.d_ff - cut), i
            assert state[f"head::{i}"].shape == (cut + 1, dom), i
            assert np.all(lut[:, :cut] == 0), i
            assert np.all(w_out[cut + 1 :, lo:hi] == 0), i
            np.testing.assert_array_equal(state[f"emb::{i}"], model.embeddings[i].W.value)
            np.testing.assert_array_equal(state[f"win::{i}"], w_in_i[:, cut:])
            np.testing.assert_array_equal(state[f"head::{i}"], w_out[: cut + 1, lo:hi])

    def test_fold_multiplies_embedding_rows_through_the_input_slice(self, fitted):
        """A fold adds ``(E[ids] - E[MASK]) @ w_in`` on its rows and nothing
        elsewhere, for array and scalar ids and for ``rows`` as a slice or an
        index array, within fp32 round-off of the float64 product."""
        _, estimator = fitted
        model = estimator.training_model()
        compiled = CompiledResMADE.fold(model)
        perm = np.argsort(hidden_degrees(model.n_columns, model.d_ff), kind="stable")
        w_in = model.input_linear.effective_weight()[perm].astype(np.float64)
        base = compiled._mask_base.astype(np.float64)
        d_emb = model.d_emb
        rng = np.random.default_rng(5)
        n = 12
        picked = rng.choice(n, size=5, replace=False)
        row_forms = {"slice": (slice(2, 9), np.arange(2, 9)), "index": (picked, picked)}
        for col, dom in enumerate(model.domains):
            emb = model.embeddings[col].W.value.astype(np.float64)
            w_in_col = w_in[:, col * d_emb : (col + 1) * d_emb].T
            for form, (rows, index) in row_forms.items():
                for kind in ("array", "scalar"):
                    ids = rng.integers(0, dom, len(index))
                    if kind == "scalar":
                        ids = np.int64(ids[0])
                    session = compiled.begin_session(n)
                    session.fold(col, rows, ids)
                    want = np.broadcast_to(base, (n, model.d_ff)).copy()
                    want[index] += (emb[ids] - emb[-1]) @ w_in_col
                    np.testing.assert_allclose(
                        session.buffer, want, rtol=1e-5, atol=1e-5,
                        err_msg=f"column {col}, {form} rows, {kind} ids",
                    )
                    untouched = np.setdiff1d(np.arange(n), index)
                    np.testing.assert_array_equal(
                        session.buffer[untouched], np.broadcast_to(
                            compiled._mask_base, (len(untouched), model.d_ff)
                        ),
                    )

    def test_sliced_multi_head_matches_per_column_probs(self, fitted):
        """``probs_multi`` runs one blocks pass at the run's widest prefix and
        multiplies each column's own head by that pass's first ``cut + 1``
        outputs: every column's answer matches its own ``probs``, whether the
        last column continues the run or not."""
        _, estimator = fitted
        model = estimator.training_model()
        compiled = CompiledResMADE.fold(model)
        n = model.n_columns
        rng = np.random.default_rng(8)
        tokens = np.column_stack([rng.integers(0, d, 40) for d in model.domains])
        given = rng.random((40, n)) < 0.7
        shapes = {
            "no tail": [n - 4, n - 3],
            "adjacent tail": [n - 4, n - 3, n - 2],
            "non-adjacent tail": [n - 4, n - 3, n - 1],
        }
        for shape, cols in shapes.items():
            assert compiled._cuts[cols[0]] > 0
            session = compiled.begin_session(len(tokens))
            for i in range(cols[-1]):
                rows = np.flatnonzero(given[:, i])
                session.fold(i, rows, tokens[rows, i])
            multi = [p.copy() for p in session.probs_multi(slice(None), cols)]
            assert len(multi) == len(cols)
            for col, got in zip(cols, multi):
                np.testing.assert_allclose(
                    got, session.probs(slice(None), col), rtol=0, atol=1e-6,
                    err_msg=f"{shape}: column {col}",
                )


class TestLifecycle:
    def test_fit_serves_the_table_alone_and_counts_it(self, fitted):
        """A fitted estimator's size is its kernel table: folded when the fit
        ends, the same object the engine serves, unchanged by walks, and a
        fresh fold of the same weights answers bitwise alike."""
        schema, _ = fitted
        config = small_config(
            train_tuples=2_000, sampler_threads=1, progressive_samples=32
        )
        estimator = NeuroCard(schema, config).fit()
        compiled = compiled_model(estimator.inference)
        assert compiled is estimator.compiled
        size = sum(a.nbytes for a in compiled.export_state().values())
        assert estimator.size_bytes == compiled.size_bytes == size > 0
        before = estimator.estimate(workload()[0], rng=np.random.default_rng(4))
        assert estimator.size_bytes == size
        assert compiled.stats()["size_bytes"] == size
        again = served(estimator).estimate_batch(
            [workload()[0]], n_samples=32, rngs=[np.random.default_rng(4)]
        )[0]
        assert before == again  # refolding identical weights is exact

    def test_estimate_routes_through_batched_engine(self, fitted):
        _, estimator = fitted
        query = workload()[2]
        direct = estimator.estimate(query, rng=np.random.default_rng(11))
        pinned = estimator.inference.estimate_batch(
            [query],
            n_samples=estimator.config.progressive_samples,
            rngs=[np.random.default_rng(11)],
        )[0]
        assert direct == pinned

    def test_served_engine_is_compiled_reference_is_built_directly(self, fitted):
        _, estimator = fitted
        assert compiled_model(estimator.inference) is not None
        oracle = reference(estimator)
        assert isinstance(oracle.model, ResMADE)  # raw reference engine
        assert compiled_model(oracle) is None
        with pytest.raises(EstimationError):
            CompiledResMADE.fold(object())

    def test_compile_modes_and_validation(self, fitted):
        """One served mode: every place that used to pick an inference mode
        now refuses the argument loudly instead of ignoring it."""
        schema, estimator = fitted
        with pytest.raises(TypeError):
            build_engine(
                estimator.training_model(), estimator.layout, estimator.full_join_size, "fp32"
            )
        with pytest.raises(TypeError):
            NeuroCard(schema, small_config(train_tuples=1_000)).prepare(compile="off")
        with pytest.raises(TypeError):
            NeuroCard(schema, small_config(train_tuples=1_000)).fit(compile=False)
        with pytest.raises(TypeError):
            small_config(compiled_inference="off")
        # The served engine is the compiled one, whatever the config says; a
        # prepared skeleton serves nothing until a table arrives.
        skeleton = NeuroCard(schema, small_config(train_tuples=1_000)).prepare()
        assert not skeleton.is_fitted and skeleton.compiled is None
        assert compiled_model(estimator.inference) is estimator.compiled
