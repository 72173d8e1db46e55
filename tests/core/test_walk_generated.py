"""Generated differential test of the batched walk against the sequential loop.

``test_batched.py`` pins the walk on hand-written batches; this file draws
them: random batches of 1-9 queries over the two oracle schemas — any
connected table subset, ``=`` / range / ``IN`` predicates whose values run
past both ends of each column's dictionary (empty regions), conjunctions
that no joined row satisfies (every row's weight reaches 0 mid-walk),
interleaved table sets (a column's participants are then not consecutive
queries), flat and factorized layouts, 1 / 7 / 120 samples. Under the exact
tabular oracle every such batch must equal the sequential ``estimate`` loop
bit for bit with the reference session and with both kinds of the
protocol-checking ``_OracleSession``, and every estimate must be finite and
inside ``[0, |full join|]``.

The profile is derandomized and bounded, so tier-1 stays deterministic.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.progressive import ProgressiveSampler
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from tests.core.test_batched import SessionOracle
from tests.core.test_progressive_oracle import rich_schema
from tests.helpers import paper_figure4_schema

#: name -> (builder, connected table subsets, table -> column -> candidate
#: values; the values overshoot each dictionary so some predicates are empty).
SCHEMAS = {
    "rich": (
        lambda: rich_schema(seed=3),
        [("R",), ("C1",), ("C2",), ("R", "C1"), ("R", "C2"), ("R", "C1", "C2")],
        {
            "R": {"year": list(range(1988, 2000)), "id": list(range(-1, 14))},
            "C1": {"kind": list(range(-1, 6)), "rid": list(range(-1, 14))},
            "C2": {"score": list(range(-2, 53)), "rid": list(range(-1, 14))},
        },
    ),
    "fig4": (
        paper_figure4_schema,
        [("A",), ("B",), ("C",), ("A", "B"), ("B", "C"), ("A", "B", "C")],
        {
            "A": {"x": [0, 1, 2, 3]},
            "B": {"x": [0, 1, 2, 3], "y": ["a", "b", "c", "z"]},
            "C": {"y": ["b", "c", "d", "z"]},
        },
    ),
}
SESSIONS = ("reference", "raw_rows", "fused_runs")


class MemoOracle(SessionOracle):
    """The tabular oracle with its conditional memoized per distinct prefix.

    Each distinct (column, prefix) is still computed by the base class, one
    row at a time, so values are bitwise the plain oracle's; the cache only
    keeps the generated test inside tier-1's time budget. ``kind`` None
    hides ``begin_session`` so the sampler wraps it in ``_ReferenceSession``.
    """

    def __init__(self, schema, factorization_bits, kind):
        super().__init__(schema, factorization_bits, kind)
        self._memo = {}
        if kind == "reference":
            self.begin_session = None

    def conditional(self, tokens, col, wildcard=None):
        out = np.empty((len(tokens), self.layout.domains[col]), dtype=np.float64)
        for i in range(len(tokens)):
            key = (col, *np.where(wildcard[i, :col], -1, tokens[i, :col]).tolist())
            row = self._memo.get(key)
            if row is None:
                row = super().conditional(tokens[i : i + 1], col, wildcard[i : i + 1])[0]
                self._memo[key] = row
            out[i] = row
        return out


@lru_cache(maxsize=None)
def sampler(schema_name, bits, kind):
    oracle = MemoOracle(SCHEMAS[schema_name][0](), bits, kind)
    return ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)


@st.composite
def predicate(draw, columns, table):
    column = draw(st.sampled_from(sorted(columns[table])))
    values = columns[table][column]
    op = draw(st.sampled_from(["=", "<", "<=", ">", ">=", "IN"]))
    if op == "IN":
        value = tuple(draw(st.lists(st.sampled_from(values), min_size=1, max_size=12)))
    else:
        value = draw(st.sampled_from(values))
    return (table, column, op, value)


@st.composite
def query(draw, table_sets, columns):
    tables = draw(st.sampled_from(table_sets))
    predicates = draw(
        st.lists(st.sampled_from(tables).flatmap(lambda t: predicate(columns, t)), max_size=3)
    )
    return (tables, tuple(predicates))


@st.composite
def batch(draw):
    """``(schema name, bits, n_samples, [(tables, predicates), ...])``."""
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    _, table_sets, columns = SCHEMAS[name]
    size = draw(st.integers(1, 9))
    if draw(st.booleans()):
        # Interleave two disjoint table sets: the participants of either
        # one's columns are every other query, never a contiguous block.
        singles = [ts for ts in table_sets if len(ts) == 1]
        a, b = draw(st.permutations(singles))[:2]
        queries = [draw(query([a if i % 2 else b], columns)) for i in range(size)]
    else:
        queries = draw(st.lists(query(table_sets, columns), min_size=size, max_size=size))
    bits = draw(st.sampled_from([None, 2]))
    n_samples = draw(st.sampled_from([1, 7, 120]))
    return name, bits, n_samples, queries


def build(queries):
    return [
        Query.make(list(tables), [Predicate(*p) for p in predicates])
        for tables, predicates in queries
    ]


@given(batch())
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
def test_generated_batches_equal_the_sequential_loop(case):
    name, bits, n_samples, raw = case
    queries = build(raw)
    reference = sampler(name, bits, "reference")
    sequential = np.array(
        [
            reference.estimate(q, n_samples=n_samples, rng=np.random.default_rng(40 + i))
            for i, q in enumerate(queries)
        ]
    )
    assert np.isfinite(sequential).all()
    assert (sequential >= 0).all()
    assert (sequential <= reference.full_join_size * (1 + 1e-9)).all()
    for kind in SESSIONS:
        batched = sampler(name, bits, kind).estimate_batch(
            queries,
            n_samples=n_samples,
            rngs=[np.random.default_rng(40 + i) for i in range(len(queries))],
        )
        assert np.array_equal(batched, sequential), (kind, batched, sequential)
