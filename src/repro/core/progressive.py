"""Progressive-sampling inference with schema subsetting (paper §6).

Given the learned autoregressive distribution over the full outer join, a
query's cardinality is |J| · E[ 1{filters} · Π_{T∈Q} 1_T / Π_{R∉Q} F_R ]
(Eq. 9). The Monte Carlo integrator walks the model's column order, and for
each *constrained* column computes the conditional probability mass of the
valid region, multiplies it into the sample weight, and draws an in-region
value to condition subsequent columns. Unconstrained columns are wildcard-
skipped via the model's MASK tokens (never sampled).

Fanout downscaling is Rao-Blackwellized: each fanout column contributes the
exact conditional expectation Σ_f p(f|·)/f to the weight, and the value used
to condition later columns is drawn from the tilted distribution
q(f) ∝ p(f|·)/f, which keeps the estimator unbiased for Π 1/F.

Two paths share the per-column programs below:

- ``estimate`` walks one query at a time — the readable reference
  implementation and the correctness oracle for the batched walk;
- ``estimate_batch`` packs Q queries into ``Q · n_samples`` rows and shares
  a single forward pass per column across every query constraining it. The
  walk works on *distinct prefixes*, not rows: conditionals, their cumulative
  sums and tilts are computed once per distinct prefix, and a row only pays
  O(1) gathers into them. There is no liveness mask — a row whose weight
  reached 0 keeps walking (its draws are clipped into the domain and
  nobody reads them), because 0 stays 0 under every later multiply.

There is exactly one batched walk. What differs between engines is the
*conditional provider* it opens once per walk and which owns the sampled
prefix: ``begin_session(n_rows)`` returns an object answering
``probs(rows, col)`` / ``probs_multi(rows, cols)`` for the prefix the walk
handed it through ``fold(col, rows, ids)``, column by column in ascending
order. A model with kernels of its own supplies one (the compiled fp32
kernels' incremental :class:`~repro.nn.compiled.FoldSession`); any other
model is wrapped in :class:`_ReferenceSession`. The provider declares which
shortcuts apply to it (``fuses_indicator_runs``, ``dedup_cutoff``); the walk
never looks at the model's type.

Both paths resolve queries through :meth:`ProgressiveSampler.plan`, which
caches the table-set-dependent plan parts (indicator and fanout column
sets) and per-predicate region translations across calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.encoding import Layout
from repro.core.factorization import Factorizer, IntervalState, SetTrie
from repro.core.regions import Region
from repro.errors import EstimationError, QueryError
from repro.nn.compiled import CHUNK_ROWS
from repro.relational.query import Query


# ----------------------------------------------------------------------
# Draws. ``probs`` holds one conditional per *distinct prefix*; ``inv`` maps
# each sampled row to its prefix (None: row i reads ``probs[i]``). Whatever
# is O(domain) — cumulative sums, tilts — runs once per prefix, a row pays
# O(1) gathers plus the search for its own target, counted a row chunk at a
# time. ``u`` holds one uniform variate per row, drawn from the row's query
# generator by the caller.
# ----------------------------------------------------------------------


def _count_below(cum, inv, target):
    """Per row, how many entries of its cumulative row (``cum[i]``, or
    ``cum[inv[i]]``) lie below ``target[i]``: the drawn index.

    Counted :data:`CHUNK_ROWS` rows at a time, so the gathered block and its
    comparison never outgrow one chunk times the domain; each count is the
    row's own, so the chunking cannot change a draw.
    """
    drawn = np.empty(len(target), dtype=np.int64)
    for lo in range(0, len(target), CHUNK_ROWS):
        at = slice(lo, lo + CHUNK_ROWS)
        block = cum[at] if inv is None else cum[inv[at]]
        (block < target[at, None]).sum(axis=1, out=drawn[at])
    return drawn


def _draw_interval(probs, inv, lo, hi, u):
    """In-interval mass and a sample from the renormalized conditional.

    ``lo`` / ``hi`` are inclusive code bounds, per row or one scalar each.
    """
    cum = np.cumsum(probs, axis=1)
    rows = np.arange(len(probs)) if inv is None else inv
    upper = cum[rows, hi]
    lower = np.where(lo > 0, cum[rows, np.maximum(lo - 1, 0)], 0.0)
    mass = np.maximum(upper - lower, 0.0)
    # Compare in the probs' own dtype: a no-op for the reference model's
    # float64 conditionals, half the comparison traffic for fp32 kernels.
    target = (lower + u * mass).astype(probs.dtype, copy=False)
    drawn = _count_below(cum, inv, target)
    return mass, np.minimum(np.maximum(drawn, lo), hi)


def _draw_set(probs, inv, codes, u):
    """In-set mass and a sample among ``codes`` (shared across rows).

    The running sums are taken once per prefix, and the mass is their last
    entry rather than a separate reduction: one fixed left-to-right order,
    whatever the number of rows.
    """
    cums = np.cumsum(probs[:, codes], axis=1)
    mass = cums[:, -1] if inv is None else cums[inv, -1]
    target = (u * mass).astype(cums.dtype, copy=False)
    idx = _count_below(cums, inv, target)
    return mass, codes[np.minimum(idx, len(codes) - 1)]


def _draw_tilted(probs, inv, tilt, u):
    """Mass Σ p·tilt and a sample from q ∝ p·tilt (fanout downscaling)."""
    q = probs * tilt[None, :]
    mass = q.sum(axis=1)
    cums = np.cumsum(q, axis=1)
    if inv is not None:
        mass = mass[inv]
    target = (u * mass).astype(cums.dtype, copy=False)
    idx = _count_below(cums, inv, target)
    return mass, np.minimum(idx, probs.shape[1] - 1)


@dataclass(frozen=True)
class QueryPlan:
    """A query resolved against the layout: everything inference needs.

    ``regions`` maps constrained content-spec names to their valid regions,
    ``indicators`` and ``fanouts`` are the indicator/fanout spec names this
    query constrains. Plans are immutable and safe to cache/share.
    """

    regions: Tuple[Tuple[str, Region], ...]
    indicators: FrozenSet[str]
    fanouts: FrozenSet[str]

    @property
    def is_empty(self) -> bool:
        return any(region.is_empty for _, region in self.regions)

    @cached_property
    def _region_map(self) -> Dict[str, Region]:
        return dict(self.regions)

    def region(self, name: str) -> Region:
        """The valid region of a constrained content spec."""
        return self._region_map[name]

    @cached_property
    def constrained(self) -> FrozenSet[str]:
        """Names of the specs the column walk must process for this plan;
        every other spec stays a wildcard (MASK) and is never sampled.
        (Spec names are unique across content/indicator/fanout kinds.)"""
        return frozenset(self._region_map) | self.indicators | self.fanouts

    def constrains(self, spec) -> bool:
        """True when the column walk must process ``spec`` for this plan."""
        return spec.name in self.constrained


# ----------------------------------------------------------------------
# Per-column programs. One op instance handles one (query, spec) pair over
# that query's ``n`` rows and is stepped through the spec's model columns;
# ``draw`` takes the conditionals in the (probs, inv) form described above.
# ----------------------------------------------------------------------


class _IntervalOp:
    """Range filter: per-subcolumn progressively-relaxed bounds (§5)."""

    needs_rng = True

    def __init__(self, factorizer: Factorizer, region: Region, n: int):
        self.state: Optional[IntervalState] = (
            IntervalState(factorizer, region.lo, region.hi, n)
            if factorizer.is_factorized
            else None
        )
        self.lo, self.hi = region.lo, region.hi

    def bounds(self, k):
        """Inclusive bounds of subcolumn ``k``: per row, or the region's own
        two scalars when the column is not factorized."""
        return (self.lo, self.hi) if self.state is None else self.state.bounds(k)

    def draw(self, k, probs, inv, u):
        return _draw_interval(probs, inv, *self.bounds(k), u)

    def observe(self, k, drawn):
        if self.state is not None:
            self.state.observe(k, drawn)


class _SetOp:
    """IN filter: explicit code set, walked through the trie if factorized."""

    needs_rng = True

    def __init__(self, codes: np.ndarray, trie: Optional[SetTrie], n: int):
        self.codes, self.trie = codes, trie
        self.nodes = None if trie is None else np.zeros(n, dtype=np.int64)

    def draw(self, k, probs, inv, u):
        if self.trie is None:
            return _draw_set(probs, inv, self.codes, u)
        mass = np.zeros(len(u), dtype=np.float64)
        drawn = np.zeros(len(u), dtype=np.int64)
        for node in np.unique(self.nodes):
            members = np.flatnonzero(self.nodes == node)
            codes = self.trie.codes_at(int(node), k)
            if len(codes) == 0:
                continue
            mass[members], drawn[members] = _draw_set(
                probs, members if inv is None else inv[members], codes, u[members]
            )
        return mass, drawn

    def observe(self, k, drawn):
        if self.trie is not None:
            self.nodes = self.trie.advance(self.nodes, drawn, k)


class _IndicatorOp:
    """Membership constraint: weight by p(in-table), pin the token to 1."""

    needs_rng = False

    def draw(self, k, probs, inv, u):
        mass = probs[:, 1] if inv is None else probs[inv, 1]
        return mass, np.ones(len(mass), dtype=np.int64)

    def observe(self, k, drawn):
        pass


class _FanoutOp:
    """Rao-Blackwellized 1/F downscaling for one omitted-table fanout."""

    needs_rng = True

    def __init__(self, reciprocals: np.ndarray):
        self.reciprocals = reciprocals

    def draw(self, k, probs, inv, u):
        return _draw_tilted(probs, inv, self.reciprocals, u)

    def observe(self, k, drawn):
        pass


# ----------------------------------------------------------------------
# Batched-walk plumbing: the conditional provider, the walk's mutable
# state, and the sort-free group-id helpers the prefix dedup runs on.
# ----------------------------------------------------------------------


class _ReferenceSession:
    """Conditional provider over any ``conditional(tokens, col, wildcard)``.

    The batched walk hands the sampled prefix to a *session* through
    ``fold(col, rows, ids)``, asks it for ``probs(rows, col)`` and reads two
    declared attributes to pick its shortcuts; ``rows`` is a slice or an
    index array, ``ids`` one token per row or a scalar shared by all of
    them. Models with kernels of their own return a richer session from
    ``begin_session`` (see :class:`repro.nn.compiled.FoldSession`). This one
    keeps the prefix as a token / wildcard matrix pair and runs the model's
    forward on the rows asked for.
    """

    #: Needs ``probs_multi`` (a run of indicator columns pre-folded, then
    #: served with the column after it from one pass).
    fuses_indicator_runs = False
    #: Unique-row share above which the walk stops deduplicating prefixes;
    #: None keeps it on — a full forward always costs more than the ids.
    dedup_cutoff = None

    def __init__(self, conditional, n_cols: int, n_rows: int):
        self._conditional = conditional
        self._tokens = np.zeros((n_rows, n_cols), dtype=np.int64)
        self._wildcard = np.ones((n_rows, n_cols), dtype=bool)

    def fold(self, col: int, rows, ids) -> None:
        self._tokens[rows, col] = ids
        self._wildcard[rows, col] = False

    def probs(self, rows, col: int) -> np.ndarray:
        return self._conditional(self._tokens[rows], col, self._wildcard[rows])


@dataclass
class _BatchWalk:
    """Mutable state of one batched walk (query ``qi`` owns rows
    ``qi*n:(qi+1)*n``)."""

    rngs: Sequence[np.random.Generator]
    n: int
    weight: np.ndarray
    #: Prefix group ids: rows sharing a (token, wildcard) history share one.
    group: np.ndarray
    session: object
    #: Every group id is below this.
    next_id: int = 1
    #: ``group`` is a dense rank over all rows (``next_id`` distinct ids), so
    #: a step covering every row can use it as its dedup inverse as is.
    dense: bool = True
    dedup: bool = True
    #: A column saw a non-positive mass: some query may have lost all rows.
    lost: bool = False
    #: ``(col, row -> prefix, probs)`` left by an indicator run for the next
    #: processed column.
    tail: Optional[tuple] = None


def _compress(key: np.ndarray, span: int) -> Tuple[np.ndarray, int]:
    """``np.unique(key, return_inverse=True)[1]`` and the number of distinct
    keys, without the sort; ``key`` holds integers in ``[0, span)``.

    Marks the keys present in a ``span``-long table and numbers the marked
    slots in order, which yields exactly the inverse array ``np.unique``
    produces (ids ordered by key value) in O(n + span) — the group-id
    maintenance of the batched walk runs once per model column, so this is
    hot. Falls back to the sort when the span dwarfs the array (the table
    would scan more memory than sorting touches).
    """
    if span > max(4 * len(key), 1 << 15):
        uniq, inverse = np.unique(key, return_inverse=True)
        return inverse, len(uniq)
    seen = np.zeros(span, dtype=bool)
    seen[key] = True
    present = np.flatnonzero(seen)
    rank = np.empty(span, dtype=np.int64)
    rank[present] = np.arange(len(present))
    return rank[key], len(present)


def _first_of(inverse: np.ndarray, n_distinct: int) -> np.ndarray:
    """First-occurrence index of each dense rank in ``inverse`` (what
    ``np.unique(..., return_index=True)`` gives), without sorting."""
    first = np.empty(n_distinct, dtype=np.int64)
    first[inverse[::-1]] = np.arange(len(inverse) - 1, -1, -1)
    return first


def _rows_of(parts: Sequence[int], n: int):
    """All rows of the blocks ``parts`` (ascending, ``n`` rows each): a slice
    when the blocks are consecutive, one index array otherwise."""
    if parts[-1] - parts[0] + 1 == len(parts):
        return slice(parts[0] * n, (parts[-1] + 1) * n)
    return (np.asarray(parts)[:, None] * n + np.arange(n)).ravel()


def _pick(rows, at: np.ndarray) -> np.ndarray:
    """Global ids of the entries ``at`` of ``rows`` (a slice or index array)."""
    return at + rows.start if isinstance(rows, slice) else rows[at]


class ProgressiveSampler:
    """Monte Carlo cardinality estimates over a trained density model.

    ``model`` only needs ``conditional(tokens, col, wildcard) -> (B, dom)``;
    tests exercise this class against an exact tabular oracle as well as the
    trained ResMADE. Optional extras are picked up when present: a sliced
    ``column_conditional`` and a ``begin_session`` conditional provider.
    """

    #: Bound on cached per-predicate region translations before reset.
    REGION_CACHE_LIMIT = 4096

    def __init__(self, model, layout: Layout, full_join_size: float):
        self.model = model
        self.layout = layout
        self.full_join_size = float(full_join_size)
        # Resolve the batched walk's conditional provider once: a model with
        # kernels of its own opens its session; any other gets the reference
        # session over its per-column conditional (ResMADE exposes the sliced
        # ``column_conditional`` fast path, duck-typed oracles fall back to
        # the full ``conditional``).
        self._begin_session = getattr(model, "begin_session", None) or partial(
            _ReferenceSession,
            getattr(model, "column_conditional", None) or model.conditional,
            layout.n_columns,
        )
        # The layout's share of the batched walk's step program: where each
        # spec sits in the column order, and which specs form a run of
        # consecutive indicators (position -> the run's [start, end)).
        self._spec_pos = {spec.name: i for i, spec in enumerate(layout.specs)}
        self._indicator_runs: Dict[int, Tuple[int, int]] = {}
        start = 0
        for i, spec in enumerate(layout.specs + [None]):
            if spec is None or spec.kind != "indicator":
                if i - start > 1:
                    self._indicator_runs.update(dict.fromkeys(range(start, i), (start, i)))
                start = i + 1
        self._shape_cache: Dict[FrozenSet[str], Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        self._region_cache: Dict[tuple, Region] = {}
        self._trie_cache: Dict[tuple, SetTrie] = {}
        self.shape_cache_hits = 0
        self.shape_cache_misses = 0

    # A sampler wraps an already-built model, so it is registrable at every
    # serving depth (ModelRegistry checks ``is_fitted``/``size_bytes``).
    @property
    def is_fitted(self) -> bool:
        return bool(getattr(self.model, "is_fitted", True))

    @property
    def size_bytes(self) -> int:
        return int(getattr(self.model, "size_bytes", 0) or 0)

    # ------------------------------------------------------------------
    # Query planning
    # ------------------------------------------------------------------
    def regions_for_query(self, query: Query) -> Dict[str, Region]:
        """Per-content-spec valid regions (predicates on one column intersect)."""
        regions: Dict[str, Region] = {}
        for pred in query.predicates:
            name = self.layout.content_spec_name(pred.table, pred.column)
            if name not in self.layout.spec_ranges:
                raise QueryError(
                    f"column {name} was excluded from the model; cannot filter on it"
                )
            region = self._predicate_region(pred)
            regions[name] = regions[name].intersect(region) if name in regions else region
        return regions

    def fanout_plan(self, query: Query) -> set:
        """Fanout spec names that downscale this query's omitted tables."""
        plan = set()
        for omitted, edge in self.layout.schema.fanout_edges_for_omitted(query.tables):
            name = self.layout.fanout_spec_name(omitted, edge)
            if name is not None:
                plan.add(name)
        return plan

    def _predicate_region(self, pred) -> Region:
        key = self._predicate_key(pred)
        if key is not None and key in self._region_cache:
            return self._region_cache[key]
        region = Region.from_predicate(
            pred.code_region(self.layout.schema.table(pred.table))
        )
        if key is not None:
            if len(self._region_cache) >= self.REGION_CACHE_LIMIT:
                self._region_cache.clear()
            self._region_cache[key] = region
        return region

    @staticmethod
    def _predicate_key(pred) -> Optional[tuple]:
        value = pred.value
        if isinstance(value, (list, set, frozenset)):
            value = tuple(value)
        key = (pred.table, pred.column, pred.op, value)
        try:
            hash(key)
        except TypeError:
            return None
        return key

    def _content_op_for(self, name: str, region: Region, n: int):
        """Column program for one content spec; set tries are cached.

        Trie construction walks the IN codes once per level, so repeated
        query shapes (same spec, same code set) reuse one immutable trie —
        the per-call state (drawn node ids) lives in the op, not the trie.
        """
        factorizer = self.layout.factorizers[name]
        if region.kind == "interval":
            return _IntervalOp(factorizer, region, n)
        codes = region.to_codes()
        trie = None
        if factorizer.is_factorized:
            key = (name, codes.tobytes())
            trie = self._trie_cache.get(key)
            if trie is None:
                if len(self._trie_cache) >= self.REGION_CACHE_LIMIT:
                    self._trie_cache.clear()
                trie = SetTrie(factorizer, codes)
                self._trie_cache[key] = trie
        return _SetOp(codes, trie, n)

    def _op_for(self, spec, plan: QueryPlan, n: int):
        """Column program running a constrained ``spec`` over ``n`` rows."""
        if spec.kind == "content":
            return self._content_op_for(spec.name, plan.region(spec.name), n)
        if spec.kind == "indicator":
            return _IndicatorOp()
        return _FanoutOp(self.layout.fanout_encoders[spec.name].reciprocals)

    def plan(self, query: Query) -> QueryPlan:
        """Resolve ``query`` into a :class:`QueryPlan`, using the caches.

        The indicator/fanout sets depend only on the query's table subset
        and are cached per table set; per-predicate region translations are
        cached by (table, column, op, value).
        """
        tables_key = frozenset(query.tables)
        shape = self._shape_cache.get(tables_key)
        if shape is None:
            self.shape_cache_misses += 1
            indicators = frozenset(
                self.layout.indicator_spec_name(t) for t in query.tables
            )
            fanouts = frozenset(self.fanout_plan(query))
            shape = (indicators, fanouts)
            self._shape_cache[tables_key] = shape
        else:
            self.shape_cache_hits += 1
        regions = self.regions_for_query(query)
        return QueryPlan(
            regions=tuple(sorted(regions.items())),
            indicators=shape[0],
            fanouts=shape[1],
        )

    # ------------------------------------------------------------------
    # Sequential path (the batched engine's correctness oracle)
    # ------------------------------------------------------------------
    def estimate(
        self, query: Query, n_samples: int = 512, rng: Optional[np.random.Generator] = None
    ) -> float:
        """Estimated COUNT(*) of ``query`` (non-negative float)."""
        rng = rng if rng is not None else np.random.default_rng(0)
        query.validate(self.layout.schema)
        selectivity = self.estimate_selectivity(query, n_samples, rng)
        return selectivity * self.full_join_size

    def estimate_selectivity(
        self, query: Query, n_samples: int, rng: np.random.Generator
    ) -> float:
        """E[1{filters} Π 1_T / Π F] under the learned full-join distribution."""
        if n_samples < 1:
            raise EstimationError("need at least one progressive sample")
        plan = self.plan(query)
        if plan.is_empty:
            return 0.0

        n_cols = self.layout.n_columns
        tokens = np.zeros((n_samples, n_cols), dtype=np.int64)
        wildcard = np.ones((n_samples, n_cols), dtype=bool)
        weight = np.ones(n_samples, dtype=np.float64)
        alive = np.ones(n_samples, dtype=bool)

        for spec in self.layout.specs:
            if not plan.constrains(spec):
                continue
            op = self._op_for(spec, plan, n_samples)
            start, end = self.layout.spec_ranges[spec.name]
            for col in range(start, end):
                k = col - start
                probs = self.model.conditional(tokens, col, wildcard)
                u = rng.random(n_samples) if op.needs_rng else None
                mass, drawn = op.draw(k, probs, None, u)
                self._apply(tokens, wildcard, weight, alive, col, mass, drawn)
                op.observe(k, drawn)
            if not alive.any():
                return 0.0
        return float(weight.mean())

    # ------------------------------------------------------------------
    # Batched path
    # ------------------------------------------------------------------
    def estimate_batch(
        self,
        queries: Sequence[Query],
        n_samples: int = 512,
        rng: Optional[np.random.Generator] = None,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> np.ndarray:
        """Estimated COUNT(*) for many queries in one packed pass.

        All queries share one conditional-provider session over their
        ``Q · n_samples`` rows and a single model forward pass per
        constrained column; estimates match a loop over :meth:`estimate`
        (given the same per-query generators in ``rngs``) because every
        query keeps its own uniform-variate stream.

        ``rngs`` pins one generator per query (used by the equivalence
        tests); by default independent streams are spawned from ``rng``.
        """
        queries = list(queries)
        if not queries:
            return np.zeros(0, dtype=np.float64)
        if n_samples < 1:
            raise EstimationError("need at least one progressive sample")
        if rngs is None:
            root = rng if rng is not None else np.random.default_rng(0)
            rngs = root.spawn(len(queries))
        elif len(rngs) != len(queries):
            raise EstimationError("need exactly one rng per query")
        plans = []
        for query in queries:
            query.validate(self.layout.schema)
            plans.append(self.plan(query))
        selectivity = self._run_batch_weights(plans, n_samples, rngs).mean(axis=1)
        return selectivity * self.full_join_size

    def _run_batch_weights(
        self,
        plans: Sequence[QueryPlan],
        n: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Per-row selectivity weights, ``(n_queries, n)``; row means are the
        per-plan selectivity estimates. Queries are rows ``qi*n:(qi+1)*n``."""
        n_queries = len(plans)
        w = _BatchWalk(
            rngs=rngs,
            n=n,
            weight=np.ones(n_queries * n, dtype=np.float64),
            group=np.zeros(n_queries * n, dtype=np.int64),
            session=self._begin_session(n_queries * n),
        )
        # The step program: which queries take part at each walked spec
        # position (ascending query order), built once from the plans.
        takers: Dict[int, List[int]] = {}
        out = set()
        for qi, plan in enumerate(plans):
            if plan.is_empty:
                w.weight[qi * n : (qi + 1) * n] = 0.0
                out.add(qi)
                continue
            for name in plan.constrained:
                takers.setdefault(self._spec_pos[name], []).append(qi)

        def parts_at(pos):
            return [qi for qi in takers[pos] if qi not in out] if out else takers[pos]

        specs = self.layout.specs
        order = sorted(takers)
        i = 0
        while i < len(order) and len(out) < n_queries:
            pos = order[i]
            i += 1
            run = self._indicator_runs.get(pos) if w.session.fuses_indicator_runs else None
            if run is not None:
                while i < len(order) and order[i] < run[1]:
                    i += 1
                # The first processed column after the run also has a fully
                # deterministic prefix (indicator tokens follow membership,
                # skipped columns stay MASK) — its head rides the same pass.
                parts_per = [parts_at(p) if p in takers else [] for p in range(*run)]
                if not any(parts_per):
                    continue
                tail = next((p for p in order[i:] if parts_at(p)), None)
                self._indicator_run(
                    w,
                    [self.layout.spec_ranges[specs[p].name][0] for p in range(*run)],
                    parts_per,
                    None if tail is None else self.layout.spec_ranges[specs[tail].name][0],
                    None if tail is None else parts_at(tail),
                )
            else:
                parts = parts_at(pos)
                if not parts:
                    continue
                spec = specs[pos]
                ops = [self._op_for(spec, plans[qi], n) for qi in parts]
                by_class: Dict[type, List[int]] = {}
                for pi, op in enumerate(ops):
                    by_class.setdefault(type(op), []).append(pi)
                rows = _rows_of(parts, n)
                start, end = self.layout.spec_ranges[spec.name]
                for col in range(start, end):
                    self._batch_column(w, col, col - start, parts, ops, by_class, rows)
            if w.lost:
                # Weights only ever shrink: a query whose rows all reached 0
                # is finished (same exit as the sequential walk's).
                w.lost = False
                out.update(np.flatnonzero(~w.weight.reshape(n_queries, n).any(axis=1)).tolist())
        return w.weight.reshape(n_queries, n)

    def _column_probs(self, w: _BatchWalk, rows, n_rows: int, col: int):
        """``(probs, inverse)`` for ``rows`` at ``col``: one conditional per
        distinct prefix while deduplication pays (see ``dedup_cutoff``) and
        ``inverse`` mapping rows into them, or one per row and ``None``."""
        tail, w.tail = w.tail, None
        if tail is not None and tail[0] == col:
            # Produced by the preceding indicator run's shared blocks pass.
            return tail[2], tail[1][rows]
        if not w.dedup:
            return w.session.probs(rows, col), None
        if w.dense and n_rows == len(w.group):
            inverse, n_distinct = w.group, w.next_id
        else:
            inverse, n_distinct = _compress(w.group[rows], w.next_id)
        cutoff = w.session.dedup_cutoff
        # Duplicates across rows can only shrink as the walk conditions on
        # more columns, so once a column sees almost no sharing the group
        # bookkeeping is pure overhead for a session that declares a cutoff.
        if cutoff is not None and n_distinct > cutoff * n_rows:
            w.dedup = False
        if n_distinct == n_rows:
            return w.session.probs(rows, col), None
        return w.session.probs(_pick(rows, _first_of(inverse, n_distinct)), col), inverse

    def _batch_column(self, w: _BatchWalk, col, k, parts, ops, by_class, rows) -> None:
        """One column step for the queries ``parts`` (all their rows, ``rows``):
        shared forward, per-op-class vectorized draws, weigh, fold, regroup.

        Row-wise math is identical to the sequential path (same
        conditionals, same uniform streams, same update formulas); all
        queries filtering the column by intervals share one cumulative-sum
        draw over their distinct prefixes (same for fanout tilts and
        indicators; IN-set walks keep the per-query code set or trie state).
        ``by_class`` groups the positions of ``ops`` by op class.
        """
        n = w.n
        n_rows = n * len(parts)
        probs, inv = self._column_probs(w, rows, n_rows, col)

        # Per-query uniform draws, full length, in parts order — the exact
        # stream consumption of the sequential path.
        u = None
        for pi, op in enumerate(ops):
            if op.needs_rng:
                if u is None:
                    u = np.empty(n_rows, dtype=np.float64)
                w.rngs[parts[pi]].random(out=u[pi * n : (pi + 1) * n])

        if len(by_class) == 1:
            # Homogeneous column (every query runs the same op class, the
            # common case): no scatter.
            mass, drawn = self._draw_class(type(ops[0]), ops, k, probs, inv, u, n)
        else:
            if inv is None:
                inv = np.arange(n_rows)
            mass = np.empty(n_rows, dtype=np.float64)
            drawn = np.empty(n_rows, dtype=np.int64)
            for cls, members in by_class.items():
                at = _rows_of(members, n)
                member_ops = [ops[pi] for pi in members]
                mass[at], drawn[at] = self._draw_class(cls, member_ops, k, probs, inv[at], u[at], n)

        self._weigh(w, rows, mass)
        w.session.fold(col, rows, drawn)
        for pi, op in enumerate(ops):
            op.observe(k, drawn[pi * n : (pi + 1) * n])
        if w.dedup:
            # Rows keep sharing a prefix iff they shared one and drew the
            # same token: rank (old group, token) pairs among the rows that
            # took part; everyone else keeps an id below ``next_id``.
            if inv is None:
                rank, n_distinct = np.arange(n_rows), n_rows
            else:
                dom = self.layout.columns[col].domain
                rank, n_distinct = _compress(inv * dom + drawn, len(probs) * dom)
            self._set_groups(w, rows, n_rows, rank, n_distinct)

    @staticmethod
    def _weigh(w: _BatchWalk, rows, mass) -> None:
        """Multiply one column's masses into the weights of ``rows``."""
        mass = np.maximum(mass, 0.0)
        w.weight[rows] *= mass
        if mass.min() <= 0.0:
            w.lost = True

    @staticmethod
    def _draw_class(cls, ops, k, probs, inv, u, n):
        """``(mass, drawn)`` of one op class over its queries' rows
        (``n`` consecutive rows per op, in ``ops`` order)."""
        if cls is _IntervalOp:
            lo, hi = zip(*(op.bounds(k) for op in ops))
            if ops[0].state is None:
                lo, hi = np.repeat(np.array([lo, hi]), n, axis=1)
            else:
                lo, hi = np.concatenate(lo), np.concatenate(hi)
            return _draw_interval(probs, inv, lo, hi, u)
        if cls is not _SetOp:
            # Fanout and indicator ops carry nothing per query: one draws for all.
            return ops[0].draw(k, probs, inv, u)
        # IN-set ops: per-query code set or trie state.
        if inv is None:
            inv = np.arange(len(u))
        mass = np.empty(len(u), dtype=np.float64)
        drawn = np.empty(len(u), dtype=np.int64)
        for pi, op in enumerate(ops):
            seg = slice(pi * n, (pi + 1) * n)
            mass[seg], drawn[seg] = op.draw(k, probs, inv[seg], u[seg])
        return mass, drawn

    @staticmethod
    def _set_groups(w: _BatchWalk, rows, n_rows: int, rank, n_distinct: int) -> None:
        """Give the stepped ``rows`` fresh group ids from their dense
        ``rank``; compact the id space when it has grown past 2x the rows."""
        if n_rows == len(w.group):
            w.group, w.next_id, w.dense = rank, n_distinct, True
            return
        w.group[rows] = rank + w.next_id
        w.next_id += n_distinct
        w.dense = False
        if w.next_id > 2 * len(w.group):
            w.group, w.next_id = _compress(w.group, w.next_id)
            w.dense = True

    def _indicator_run(self, w: _BatchWalk, cols, parts_per, tail_col, tail_parts) -> None:
        """Consecutive indicator columns: one blocks pass serves them all.

        Indicator draws are deterministic — a participating row's token is
        pinned to 1 and a non-participating row stays MASK — so every column
        of the run is folded into the session *before* its conditional is
        evaluated, and a single blocks pass at the widest prefix yields all
        run conditionals via per-column output heads (``cols`` lists every
        column of the run, ``parts_per`` who takes part in each). Only
        sessions declaring ``fuses_indicator_runs`` get here.
        """
        session, n = w.session, w.n
        run_parts = sorted(set().union(*parts_per))
        union = _rows_of(run_parts, n)
        n_rows = n * len(run_parts)
        rows_per = [_rows_of(parts, n) if parts else None for parts in parts_per]
        for col, rows in zip(cols, rows_per):
            if rows is not None:
                session.fold(col, rows, 1)
        head_cols = cols
        if tail_col is not None and set(tail_parts) <= set(run_parts):
            head_cols = cols + [tail_col]

        inverse = None
        if w.dedup:
            # Rows may share a token prefix across queries, but their
            # indicator columns depend on which tables the row's query
            # joins — extend the dedup key with that membership pattern.
            takes = [set(parts) for parts in parts_per]
            member = [tuple(qi in parts for parts in takes) for qi in run_parts]
            ranks = {m: r for r, m in enumerate(sorted(set(member)))}
            if len(ranks) == 1 and w.dense and n_rows == len(w.group):
                inverse, n_distinct = w.group, w.next_id
            else:
                pattern = np.repeat([ranks[m] for m in member], n)
                inverse, n_distinct = _compress(
                    w.group[union] * len(ranks) + pattern, w.next_id * len(ranks)
                )
            # That key is also the rows' whole history once the run is folded.
            self._set_groups(w, union, n_rows, inverse, n_distinct)
            if n_distinct == n_rows:
                inverse = None
        if inverse is None:
            reps, inverse = union, np.arange(n_rows)
        else:
            reps = _pick(union, _first_of(inverse, n_distinct))
        # Row id -> its conditional's position in the pass, for every row.
        where = inverse
        if n_rows < len(w.group):
            where = np.empty(len(w.group), dtype=np.int64)
            where[union] = inverse
        probs_per = session.probs_multi(reps, head_cols)
        if len(head_cols) > len(cols):
            w.tail = (tail_col, where, probs_per[-1])

        for rows, probs in zip(rows_per, probs_per):
            if rows is None:
                continue
            self._weigh(w, rows, probs[:, 1][where[rows]])

    # ------------------------------------------------------------------
    @staticmethod
    def _apply(tokens, wildcard, weight, alive, col, mass, drawn):
        mass = np.clip(np.asarray(mass, dtype=np.float64), 0.0, None)
        weight *= np.where(alive, mass, 0.0)
        alive &= mass > 0
        tokens[:, col] = np.where(alive, drawn, 0)
        wildcard[:, col] = False
