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
- ``estimate_batch`` packs Q queries into one ``(Q · n_samples, n_cols)``
  token matrix and shares a single forward pass per column across every
  query constraining it: only the still-alive rows of participating
  queries are evaluated, one representative per distinct prefix, with the
  draws vectorized per op class and applied in one gather/scatter pass.

There is exactly one batched walk. What differs between engines is the
*conditional provider* it obtains once per walk: a model offering
``begin_session(tokens, wildcard)`` (the compiled fp32 kernels'
incremental :class:`~repro.nn.compiled.FoldSession`) supplies its own;
any other model is wrapped in :class:`_ReferenceSession`. The provider
declares which shortcuts apply to it (``fuses_indicator_runs``,
``dedup_cutoff``); the walk never looks at the model's type.

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
from repro.relational.query import Query


def _draw_interval(probs, lo, hi, u):
    """In-interval mass and a sample from the renormalized conditional.

    ``u`` holds one uniform variate per row of ``probs``; callers draw them
    from the query's generator so row subsetting preserves the stream.
    """
    n = len(probs)
    cum = np.cumsum(probs, axis=1)
    rows = np.arange(n)
    upper = cum[rows, hi]
    lower = np.where(lo > 0, cum[rows, np.maximum(lo - 1, 0)], 0.0)
    mass = np.maximum(upper - lower, 0.0)
    # Compare in the probs' own dtype: a no-op for the reference model's
    # float64 conditionals, half the comparison traffic for fp32 kernels.
    target = (lower + u * mass).astype(probs.dtype, copy=False)
    drawn = (cum < target[:, None]).sum(axis=1)
    return mass, np.clip(drawn, lo, hi)


def _draw_set(probs, codes, u):
    """In-set mass and a sample among ``codes`` (shared across rows)."""
    sub = probs[:, codes]
    mass = sub.sum(axis=1)
    cums = np.cumsum(sub, axis=1)
    target = (u * mass).astype(cums.dtype, copy=False)
    idx = (cums < target[:, None]).sum(axis=1)
    return mass, codes[np.minimum(idx, len(codes) - 1)]


def _draw_tilted(probs, tilt, u):
    """Mass Σ p·tilt and a sample from q ∝ p·tilt (fanout downscaling)."""
    q = probs * tilt[None, :]
    mass = q.sum(axis=1)
    cums = np.cumsum(q, axis=1)
    target = (u * mass).astype(cums.dtype, copy=False)
    idx = (cums < target[:, None]).sum(axis=1)
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
    def _constrained(self) -> FrozenSet[str]:
        return frozenset(self._region_map) | self.indicators | self.fanouts

    def constrains(self, spec) -> bool:
        """True when the column walk must process ``spec`` for this plan;
        every other spec stays a wildcard (MASK) and is never sampled.
        (Spec names are unique across content/indicator/fanout kinds.)"""
        return spec.name in self._constrained

    def cache_key(self) -> tuple:
        """Hashable canonical form of this plan.

        Two queries with the same table set and the same per-column valid
        regions produce equal keys regardless of predicate spelling
        (``x >= 3 AND x >= 5`` vs ``x >= 5``), so serving-layer result
        caches can coalesce them. Set regions are keyed by their sorted
        code bytes; intervals by their inclusive bounds.
        """
        regions = tuple(
            (name, region.kind, region.lo, region.hi,
             None if region.codes is None else region.codes.tobytes())
            for name, region in self.regions
        )
        return (regions, self.indicators, self.fanouts)


# ----------------------------------------------------------------------
# Per-column programs. One op instance handles one (query, spec) pair and
# is stepped through the spec's model columns; ``live`` index arrays let
# the batched walk run the same program on a row subset.
# ----------------------------------------------------------------------


class _IntervalOp:
    """Range filter: per-subcolumn progressively-relaxed bounds (§5)."""

    needs_rng = True

    def __init__(self, factorizer: Factorizer, region: Region, n: int):
        if factorizer.is_factorized:
            self.state: Optional[IntervalState] = IntervalState(
                factorizer, region.lo, region.hi, n
            )
            self.lo = self.hi = None
        else:
            self.state = None
            self.lo = np.full(n, region.lo, dtype=np.int64)
            self.hi = np.full(n, region.hi, dtype=np.int64)

    def bounds(self, k, live):
        lo, hi = (self.lo, self.hi) if self.state is None else self.state.bounds(k)
        return lo[live], hi[live]

    def draw(self, k, probs, live, u):
        return _draw_interval(probs, *self.bounds(k, live), u)

    def observe(self, k, live, drawn):
        if self.state is not None:
            self.state.observe(k, drawn, idx=live)


class _SetOp:
    """IN filter: explicit code set, walked through the trie if factorized."""

    needs_rng = True

    def __init__(
        self,
        factorizer: Factorizer,
        region: Region,
        n: int,
        trie: Optional[SetTrie] = None,
    ):
        if factorizer.is_factorized:
            self.trie: Optional[SetTrie] = (
                trie if trie is not None else SetTrie(factorizer, region.to_codes())
            )
            self.nodes = np.zeros(n, dtype=np.int64)
            self.codes = None
        else:
            self.trie = None
            self.codes = region.to_codes()

    def draw(self, k, probs, live, u):
        if self.trie is None:
            return _draw_set(probs, self.codes, u)
        mass = np.zeros(len(probs), dtype=np.float64)
        drawn = np.zeros(len(probs), dtype=np.int64)
        nodes = self.nodes[live]
        for node in np.unique(nodes):
            members = np.flatnonzero(nodes == node)
            codes = self.trie.codes_at(int(node), k)
            if len(codes) == 0:
                continue
            mass[members], drawn[members] = _draw_set(probs[members], codes, u[members])
        return mass, drawn

    def observe(self, k, live, drawn):
        if self.trie is not None:
            self.nodes[live] = self.trie.advance(self.nodes[live], drawn, k)


class _IndicatorOp:
    """Membership constraint: weight by p(in-table), pin the token to 1."""

    needs_rng = False

    def draw(self, k, probs, live, u):
        return probs[:, 1], np.ones(len(probs), dtype=np.int64)

    def observe(self, k, live, drawn):
        pass


class _FanoutOp:
    """Rao-Blackwellized 1/F downscaling for one omitted-table fanout."""

    needs_rng = True

    def __init__(self, reciprocals: np.ndarray):
        self.reciprocals = reciprocals

    def draw(self, k, probs, live, u):
        return _draw_tilted(probs, self.reciprocals, u)

    def observe(self, k, live, drawn):
        pass


def _content_op(
    factorizer: Factorizer, region: Region, n: int, trie: Optional[SetTrie] = None
):
    if region.kind == "interval":
        return _IntervalOp(factorizer, region, n)
    return _SetOp(factorizer, region, n, trie=trie)


# ----------------------------------------------------------------------
# Batched-walk plumbing: the conditional provider, the walk's mutable
# state, and the sort-free group-id helpers the prefix dedup runs on.
# ----------------------------------------------------------------------


class _ReferenceSession:
    """Conditional provider over any ``conditional(tokens, col, wildcard)``.

    The batched walk asks a *session* for ``probs(rows, col)`` and reads two
    declared attributes to pick its shortcuts; models with kernels of their
    own return a richer session from ``begin_session`` (see
    :class:`repro.nn.compiled.FoldSession`). This one gathers the rows and
    runs the model's forward.
    """

    #: Needs ``ensure_folded`` / ``fold_slices`` / ``probs_multi``.
    fuses_indicator_runs = False
    #: Unique-row share above which the walk stops deduplicating prefixes;
    #: None keeps it on — a full forward always costs more than the ids.
    dedup_cutoff = None

    def __init__(self, conditional, tokens, wildcard):
        self._conditional = conditional
        self._tokens = tokens
        self._wildcard = wildcard

    def probs(self, rows: np.ndarray, col: int) -> np.ndarray:
        return self._conditional(self._tokens[rows], col, self._wildcard[rows])


@dataclass
class _BatchWalk:
    """Mutable state of one batched walk (query ``qi`` owns ``slices[qi]``)."""

    plans: Sequence[QueryPlan]
    rngs: Sequence[np.random.Generator]
    n: int
    slices: List[slice]
    tokens: np.ndarray
    wildcard: np.ndarray
    weight: np.ndarray
    alive: np.ndarray
    #: Prefix group ids: rows sharing (token, wildcard) history share one.
    group: np.ndarray
    session: object
    dedup: bool = True
    #: ``(col, rows, inverse, probs)`` left by an indicator run for the
    #: next processed column.
    tail: Optional[tuple] = None


def _compress(key: np.ndarray) -> np.ndarray:
    """``np.unique(key, return_inverse=True)[1]`` without the sort.

    Ranks each key by value via a presence-count prefix sum, which yields
    exactly the inverse array ``np.unique`` produces (ids ordered by key
    value) in O(n + span) — the group-id maintenance of the batched walk
    is called once per model column, so this is hot. Falls back to the
    sort when the value span dwarfs the array (counting would scan more
    memory than sorting touches).
    """
    kmin = int(key.min())
    span = int(key.max()) - kmin + 1
    if span > max(4 * len(key), 1 << 15):
        return np.unique(key, return_inverse=True)[1]
    shifted = key - kmin
    rank = np.cumsum(np.bincount(shifted, minlength=span) > 0) - 1
    return rank[shifted]


def _first_and_inverse(ids: np.ndarray):
    """First-occurrence indices + inverse for already-compressed group ids.

    Equivalent to ``np.unique(ids, return_index=True, return_inverse=True)``
    (ids are dense ranks, so value order == sorted order) without sorting.
    """
    span = int(ids.max()) + 1
    rank = np.cumsum(np.bincount(ids, minlength=span) > 0) - 1
    inverse = rank[ids]
    first = np.empty(int(rank[-1]) + 1, dtype=np.int64)
    first[inverse[::-1]] = np.arange(len(ids) - 1, -1, -1)
    return first, inverse


def _live_segments(alive: np.ndarray, slices: Sequence[slice]) -> List[np.ndarray]:
    """Global ids of the live rows inside each slice, from one scan of
    ``alive`` (equivalent to a ``flatnonzero`` per slice)."""
    live = np.flatnonzero(alive)
    bounds = np.searchsorted(live, [b for sl in slices for b in (sl.start, sl.stop)])
    return [live[bounds[2 * i] : bounds[2 * i + 1]] for i in range(len(slices))]


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
        )
        self._shape_cache: Dict[FrozenSet[str], Tuple[FrozenSet[str], FrozenSet[str]]] = {}
        self._region_cache: Dict[tuple, Region] = {}
        self._trie_cache: Dict[tuple, SetTrie] = {}
        self.plan_cache_hits = 0
        self.plan_cache_misses = 0
        # Variance-adaptive bookkeeping: per-batch diagnostics of the most
        # recent adaptive run plus cumulative counters (see
        # :meth:`estimate_batch` and :meth:`adaptive_stats`).
        self.last_adaptive: Optional[Dict[str, np.ndarray]] = None
        self._adaptive_batches = 0
        self._adaptive_queries = 0
        self._adaptive_escalated = 0
        self._adaptive_samples_saved = 0

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
        trie = None
        if region.kind != "interval" and factorizer.is_factorized:
            codes = region.to_codes()
            key = (name, codes.tobytes())
            trie = self._trie_cache.get(key)
            if trie is None:
                if len(self._trie_cache) >= self.REGION_CACHE_LIMIT:
                    self._trie_cache.clear()
                trie = SetTrie(factorizer, codes)
                self._trie_cache[key] = trie
        return _content_op(factorizer, region, n, trie=trie)

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
            self.plan_cache_misses += 1
            indicators = frozenset(
                self.layout.indicator_spec_name(t) for t in query.tables
            )
            fanouts = frozenset(self.fanout_plan(query))
            shape = (indicators, fanouts)
            self._shape_cache[tables_key] = shape
        else:
            self.plan_cache_hits += 1
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
        all_rows = np.arange(n_samples)

        for spec in self.layout.specs:
            if not plan.constrains(spec):
                continue
            op = self._op_for(spec, plan, n_samples)
            start, end = self.layout.spec_ranges[spec.name]
            for col in range(start, end):
                k = col - start
                probs = self.model.conditional(tokens, col, wildcard)
                u = rng.random(n_samples) if op.needs_rng else None
                mass, drawn = op.draw(k, probs, all_rows, u)
                self._apply(tokens, wildcard, weight, alive, col, mass, drawn)
                op.observe(k, all_rows, drawn)
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
        max_rel_var: Optional[float] = None,
        min_samples: Optional[int] = None,
    ) -> np.ndarray:
        """Estimated COUNT(*) for many queries in one packed pass.

        All queries share one ``(Q · n_samples, n_cols)`` token matrix and a
        single model forward pass per constrained column; estimates match a
        loop over :meth:`estimate` (given the same per-query generators in
        ``rngs``) because every query keeps its own uniform-variate stream.

        ``rngs`` pins one generator per query (used by the equivalence
        tests); by default independent streams are spawned from ``rng``.

        ``max_rel_var`` switches on **variance-adaptive sampling**: every
        query first runs a probe walk of ``min_samples`` rows (default
        ``max(16, n_samples // 8)``) on a spawned side-stream, and only the
        queries whose estimator's relative standard error —
        ``sqrt(Var(w)/k) / mean(w)`` over the probe weights ``w`` — exceeds
        the bound are escalated to a full ``n_samples`` walk. Converged
        queries stop consuming batch slots after the probe, and escalated
        queries run on their *untouched* per-query generators, so their
        results equal a fixed ``n_samples`` run exactly. Per-batch
        diagnostics land in :attr:`last_adaptive`; cumulative counters in
        :meth:`adaptive_stats`.
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
        if max_rel_var is not None:
            selectivity = self._adaptive_batch(
                plans, n_samples, rngs, float(max_rel_var), min_samples
            )
        else:
            # Fixed runs clear the diagnostics: last_adaptive always
            # describes the most recent batch, never a stale adaptive one.
            self.last_adaptive = None
            selectivity = self._run_batch_weights(plans, n_samples, rngs).mean(axis=1)
        return selectivity * self.full_join_size

    def _adaptive_batch(
        self,
        plans: Sequence["QueryPlan"],
        n_samples: int,
        rngs: Sequence[np.random.Generator],
        max_rel_var: float,
        min_samples: Optional[int],
    ) -> np.ndarray:
        """Probe-then-escalate executor (see :meth:`estimate_batch`)."""
        if max_rel_var < 0:
            raise EstimationError("max_rel_var must be >= 0")
        n_probe = min_samples if min_samples is not None else max(16, n_samples // 8)
        if n_probe < 2:
            raise EstimationError("adaptive sampling needs min_samples >= 2")
        n_probe = min(int(n_probe), n_samples)
        # The probe consumes a spawned side-stream so each query's own
        # generator stays pristine: an escalated query replays the exact
        # walk a fixed n_samples run would, making escalated results
        # bitwise-reproducible against the non-adaptive path.
        probe_rngs = [r.spawn(1)[0] for r in rngs]
        w = self._run_batch_weights(plans, n_probe, probe_rngs)
        mean = w.mean(axis=1)
        # Sample variance of the per-row weights -> standard error of the
        # probe-mean estimator. All-zero weights (empty or fully pruned
        # queries) have zero variance and converge immediately.
        se = np.sqrt(w.var(axis=1, ddof=1) / n_probe)
        rel_se = np.divide(
            se, mean, out=np.zeros_like(mean), where=mean > 0.0
        )
        escalate = (rel_se > max_rel_var) & (n_probe < n_samples)
        estimates = mean
        if escalate.any():
            idx = np.flatnonzero(escalate)
            full = self._run_batch_weights(
                [plans[i] for i in idx], n_samples, [rngs[i] for i in idx]
            ).mean(axis=1)
            estimates = mean.copy()
            estimates[idx] = full
        n_effective = np.where(escalate, n_probe + n_samples, n_probe)
        self.last_adaptive = {
            "probe_samples": int(n_probe),
            "max_samples": int(n_samples),
            "rel_se": rel_se,
            "escalated": escalate,
            "n_effective": n_effective,
        }
        self._adaptive_batches += 1
        self._adaptive_queries += len(plans)
        self._adaptive_escalated += int(escalate.sum())
        self._adaptive_samples_saved += int(n_samples * len(plans) - n_effective.sum())
        return estimates

    def adaptive_stats(self) -> Dict[str, int]:
        """Cumulative variance-adaptive counters (all zero when unused).

        ``samples_saved`` compares against every query running a fixed
        ``n_samples`` walk — escalated queries *cost* an extra probe, so
        the counter can go negative on workloads that never converge.
        """
        return {
            "adaptive_batches": self._adaptive_batches,
            "adaptive_queries": self._adaptive_queries,
            "adaptive_escalated": self._adaptive_escalated,
            "adaptive_samples_saved": self._adaptive_samples_saved,
        }

    def _run_batch_weights(
        self,
        plans: Sequence[QueryPlan],
        n: int,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Per-row selectivity weights, ``(n_queries, n)``; row means are the
        per-plan selectivity estimates. Queries are rows ``qi*n:(qi+1)*n``."""
        n_queries = len(plans)
        n_cols = self.layout.n_columns
        tokens = np.zeros((n_queries * n, n_cols), dtype=np.int64)
        wildcard = np.ones((n_queries * n, n_cols), dtype=bool)
        w = _BatchWalk(
            plans=plans,
            rngs=rngs,
            n=n,
            slices=[slice(qi * n, (qi + 1) * n) for qi in range(n_queries)],
            tokens=tokens,
            wildcard=wildcard,
            weight=np.ones(n_queries * n, dtype=np.float64),
            alive=np.ones(n_queries * n, dtype=bool),
            group=np.zeros(n_queries * n, dtype=np.int64),
            session=self._begin_session(tokens, wildcard),
        )
        active: List[int] = []
        for qi, plan in enumerate(plans):
            if plan.is_empty:
                w.weight[w.slices[qi]] = 0.0
                w.alive[w.slices[qi]] = False
            else:
                active.append(qi)

        specs = self.layout.specs
        i = 0
        while i < len(specs) and active:
            spec = specs[i]
            j = i + 1
            if w.session.fuses_indicator_runs and spec.kind == "indicator":
                while j < len(specs) and specs[j].kind == "indicator":
                    j += 1
            i, run = j, specs[i:j]
            if len(run) > 1:
                # The first processed column after the run also has a fully
                # deterministic prefix (indicator tokens follow membership,
                # skipped columns stay MASK) — its head rides the same pass.
                tail_col = next(
                    (
                        self.layout.spec_ranges[later.name][0]
                        for later in specs[j:]
                        if any(plans[qi].constrains(later) for qi in active)
                    ),
                    None,
                )
                self._indicator_run(w, run, active, tail_col)
            else:
                parts = [qi for qi in active if plans[qi].constrains(spec)]
                if not parts:
                    continue
                ops = [self._op_for(spec, plans[qi], n) for qi in parts]
                start, end = self.layout.spec_ranges[spec.name]
                for col in range(start, end):
                    self._batch_column(w, col, col - start, parts, ops)
                    self._fold_group(w, col)
            any_alive = w.alive.reshape(n_queries, n).any(axis=1)
            active = [qi for qi in active if any_alive[qi]]
        return w.weight.reshape(n_queries, n)

    def _fold_group(self, w: _BatchWalk, col: int) -> None:
        """Refine the prefix-group ids with one more finalized column.

        Rows sharing a (token, wildcard) history share a group id, so the
        shared forward pass only evaluates unique prefixes. The column's
        token values are rank-compressed first (usually only a handful of
        distinct values were drawn; wildcard rows of non-participating
        queries share one sentinel), which keeps the combined key span small
        enough for the counting relabel.
        """
        if not w.dedup:
            return
        dom = self.layout.columns[col].domain
        tok = _compress(np.where(w.wildcard[:, col], dom, w.tokens[:, col]))
        w.group = _compress(w.group * (int(tok.max()) + 1) + tok)

    def _column_probs(self, w: _BatchWalk, rows: np.ndarray, col: int):
        """Conditionals of ``col`` for the live ``rows``, one forward per
        distinct prefix while deduplication pays (see ``dedup_cutoff``)."""
        tail, w.tail = w.tail, None
        if tail is not None and tail[0] == col:
            # Produced by the preceding indicator run's shared blocks pass;
            # map our live rows into it.
            _, t_rows, t_inverse, t_probs = tail
            pos = np.searchsorted(t_rows, rows)
            return t_probs[pos if t_inverse is None else t_inverse[pos]]
        if not w.dedup:
            return w.session.probs(rows, col)
        first, inverse = _first_and_inverse(w.group[rows])
        cutoff = w.session.dedup_cutoff
        # Duplicates across rows can only shrink as the walk conditions on
        # more columns, so once a column sees almost no sharing the group
        # bookkeeping is pure overhead for a session that declares a cutoff.
        if cutoff is not None and len(first) > cutoff * len(rows):
            w.dedup = False
        if len(first) < len(rows):
            return w.session.probs(rows[first], col)[inverse]
        return w.session.probs(rows, col)

    def _batch_column(self, w: _BatchWalk, col, k, parts, ops) -> None:
        """One column step: shared forward + per-op-class vectorized draws.

        Row-wise math is identical to the sequential path (same
        conditionals, same uniform streams, same update formulas); all
        queries filtering the column by intervals share one cumulative-sum
        draw over their concatenated rows (same for fanout tilts and
        indicators; IN-set walks keep the per-query trie state).
        """
        slices = [w.slices[qi] for qi in parts]
        segments = _live_segments(w.alive, slices)
        rows = np.concatenate(segments)
        probs = self._column_probs(w, rows, col) if len(rows) else None

        # Per-query uniform draws, full length, in parts order — the exact
        # stream consumption of the sequential path, regardless of how many
        # rows are still alive.
        us = [
            w.rngs[qi].random(w.n) if op.needs_rng else None
            for qi, op in zip(parts, ops)
        ]
        taking = [pi for pi, seg in enumerate(segments) if len(seg)]
        if not taking:
            return
        live = [seg - sl.start for seg, sl in zip(segments, slices)]
        offsets = np.zeros(len(parts) + 1, dtype=np.int64)
        np.cumsum([len(seg) for seg in segments], out=offsets[1:])
        mass = np.zeros(len(rows), dtype=np.float64)
        drawn = np.zeros(len(rows), dtype=np.int64)

        def rows_of(members):
            # Homogeneous column (every query runs the same op class, the
            # common case): address all rows with a no-copy slice.
            if len(members) == len(taking):
                return slice(None)
            return np.concatenate(
                [np.arange(offsets[pi], offsets[pi + 1]) for pi in members]
            )

        def uniforms_of(members):
            return np.concatenate([us[pi][live[pi]] for pi in members])

        by_class: Dict[type, List[int]] = {}
        for pi in taking:
            by_class.setdefault(type(ops[pi]), []).append(pi)
        for cls, members in by_class.items():
            if cls is _IntervalOp:
                pos = rows_of(members)
                lo, hi = zip(*(ops[pi].bounds(k, live[pi]) for pi in members))
                mass[pos], drawn[pos] = _draw_interval(
                    probs[pos], np.concatenate(lo), np.concatenate(hi),
                    uniforms_of(members),
                )
            elif cls is _FanoutOp:
                pos = rows_of(members)
                mass[pos], drawn[pos] = _draw_tilted(
                    probs[pos], ops[members[0]].reciprocals, uniforms_of(members)
                )
            elif cls is _IndicatorOp:
                pos = rows_of(members)
                mass[pos], drawn[pos] = probs[pos, 1], 1
            else:  # IN-set ops: per-query trie state
                for pi in members:
                    seg = slice(offsets[pi], offsets[pi + 1])
                    mass[seg], drawn[seg] = ops[pi].draw(
                        k, probs[seg], live[pi], us[pi][live[pi]]
                    )
        self._apply_batch(w, col, slices, live, mass, drawn)
        for pi in taking:
            ops[pi].observe(k, live[pi], drawn[offsets[pi] : offsets[pi + 1]])

    def _indicator_run(self, w: _BatchWalk, run, active, tail_col) -> None:
        """Consecutive indicator columns: one blocks pass serves them all.

        Indicator draws are deterministic — a participating row's token is
        pinned to 1 (or the row is dead and its token/weight are zeroed
        regardless of the conditional) and a non-participating row stays
        MASK — so every column of the run can be folded into the session
        buffer *before* its conditional is evaluated, and a single blocks
        pass at the widest prefix yields all run conditionals via
        per-column output heads. Rows that die mid-run read garbage
        conditionals afterwards, but every consumer multiplies them by
        ``where(alive, ·, 0)``, so the results match the column-at-a-time
        walk. Only sessions declaring ``fuses_indicator_runs`` get here.
        """
        session, n = w.session, w.n
        cols = [self.layout.spec_ranges[s.name][0] for s in run]
        parts_per = [
            [qi for qi in active if w.plans[qi].constrains(s)] for s in run
        ]
        session.ensure_folded(cols[0])
        # Pre-fold the run columns with their (deterministic) post-draw
        # ids: 1 inside participating slices, MASK elsewhere. With a tail
        # column riding the pass, the last run column (and the skipped
        # all-MASK columns up to the tail) pre-fold too.
        prefold, head_cols = cols[:-1], cols
        if tail_col is not None:
            prefold, head_cols = cols, cols + [tail_col]
        for col, parts in zip(prefold, parts_per):
            session.fold_slices(col, [w.slices[qi] for qi in parts], 1)
        if tail_col is not None:
            session.folded = max(session.folded, tail_col)

        # ``active`` queries have live rows, so ``union`` is never empty.
        union = np.flatnonzero(w.alive)
        reps, inverse = union, None
        if w.dedup:
            # Rows may share a token prefix across queries, but their
            # indicator columns depend on which tables the row's query
            # joins — extend the dedup key with that membership pattern,
            # ranked by its bit value (Python ints: any number of tables).
            bits = [0] * len(w.plans)
            for bit, parts in enumerate(parts_per):
                for qi in parts:
                    bits[qi] |= 1 << bit
            rank = {value: r for r, value in enumerate(sorted(set(bits)))}
            pattern = np.array([rank[value] for value in bits])
            key = w.group[union] * (int(pattern.max()) + 1) + pattern[union // n]
            first, first_inverse = _first_and_inverse(_compress(key))
            if len(first) < len(union):
                reps, inverse = union[first], first_inverse
        probs_per = session.probs_multi(reps, head_cols)
        if tail_col is not None:
            w.tail = (tail_col, union, inverse, probs_per[-1])

        for col, parts, probs_u in zip(cols, parts_per, probs_per):
            if not parts:
                continue
            slices = [w.slices[qi] for qi in parts]
            segments = _live_segments(w.alive, slices)
            rows = np.concatenate(segments)
            if len(rows):
                pos = np.searchsorted(union, rows)
                p = probs_u[pos if inverse is None else inverse[pos]]
                live = [seg - sl.start for seg, sl in zip(segments, slices)]
                self._apply_batch(w, col, slices, live, p[:, 1], 1)
            self._fold_group(w, col)
            if not w.alive.any():
                break

    @staticmethod
    def _apply_batch(w: _BatchWalk, col, slices, live, mass, drawn) -> None:
        """Apply one column's update to every query with live rows at once.

        ``live`` holds the live row ids local to each of ``slices`` and
        ``mass`` / ``drawn`` the values of those rows, concatenated in the
        same order. A query with live rows updates its whole slice (its dead
        rows take mass 0); fully dead queries are left untouched. Same
        formulas as :meth:`_apply`, one gather/scatter pass instead of one
        Python iteration per query.
        """
        taking = [(sl, ids) for sl, ids in zip(slices, live) if len(ids)]
        rows = np.concatenate([np.arange(sl.start, sl.stop) for sl, _ in taking])
        at = np.concatenate([j * w.n + ids for j, (_, ids) in enumerate(taking)])
        mass_full = np.zeros(len(rows), dtype=np.float64)
        drawn_full = np.zeros(len(rows), dtype=np.int64)
        mass_full[at] = mass
        drawn_full[at] = drawn
        mass_full = np.clip(mass_full, 0.0, None)
        alive = w.alive[rows]
        w.weight[rows] *= np.where(alive, mass_full, 0.0)
        alive &= mass_full > 0
        w.alive[rows] = alive
        w.tokens[rows, col] = np.where(alive, drawn_full, 0)
        w.wildcard[rows, col] = False

    # ------------------------------------------------------------------
    @staticmethod
    def _apply(tokens, wildcard, weight, alive, col, mass, drawn):
        mass = np.clip(np.asarray(mass, dtype=np.float64), 0.0, None)
        weight *= np.where(alive, mass, 0.0)
        alive &= mass > 0
        tokens[:, col] = np.where(alive, drawn, 0)
        wildcard[:, col] = False
