"""Sum-product networks and the DeepDB-style ensemble (Hilprecht et al. [12]).

:class:`SPN` is a from-scratch sum-product network over dictionary codes:
structure learning recursively splits *columns* into independent groups
(product nodes; pairwise Spearman dependence below a threshold) and *rows*
into clusters (sum nodes; k-means via scipy), bottoming out in histogram
leaves. Probability queries evaluate conjunctive per-column regions.
scipy (the ``test`` extra) is imported only when an SPN is fitted, so the
rest of the library needs NumPy alone.

:class:`DeepDBEstimator` mirrors DeepDB's recommended JOB-light setup: one
single-table model on the fact table plus one 2-table model per (fact,
dimension) pair, each trained on samples of the pair's full outer join with
an indicator column; across pairs, *conditional independence given the fact
table's filters* is assumed — precisely the modeling assumption NeuroCard
removes, and the source of DeepDB's tail errors in Tables 2-3.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.regions import Region
from repro.errors import EstimationError, QueryError
from repro.joins.counts import JoinCounts
from repro.joins.sampler import ColumnSpec, FullJoinSampler
from repro.relational.query import Query
from repro.relational.schema import JoinSchema


class _Leaf:
    def __init__(self, codes: np.ndarray, domain: int):
        counts = np.bincount(codes, minlength=domain).astype(np.float64)
        self.probs = counts / max(counts.sum(), 1.0)

    def prob(self, region: Optional[Region]) -> float:
        if region is None:
            return 1.0
        if region.kind == "interval":
            if region.is_empty:
                return 0.0
            hi = min(region.hi, len(self.probs) - 1)
            return float(self.probs[region.lo : hi + 1].sum())
        codes = region.codes[region.codes < len(self.probs)]
        return float(self.probs[codes].sum())

    @property
    def size_bytes(self) -> int:
        return self.probs.nbytes


class _Product:
    def __init__(self, children: List[Tuple[object, List[int]]]):
        self.children = children  # (node, column ids it covers)

    def prob(self, regions: Dict[int, Region]) -> float:
        out = 1.0
        for node, cols in self.children:
            sub = {c: r for c, r in regions.items() if c in cols}
            out *= node.prob(sub) if not isinstance(node, _Leaf) else node.prob(
                sub.get(cols[0])
            )
        return out

    @property
    def size_bytes(self) -> int:
        return sum(n.size_bytes for n, _ in self.children)


class _Sum:
    def __init__(self, weights: np.ndarray, children: List[object]):
        self.weights = weights
        self.children = children

    def prob(self, regions: Dict[int, Region]) -> float:
        return float(
            sum(w * c.prob(regions) for w, c in zip(self.weights, self.children))
        )

    @property
    def size_bytes(self) -> int:
        return self.weights.nbytes + sum(c.size_bytes for c in self.children)


def _dependent_components(data: np.ndarray, threshold: float) -> List[List[int]]:
    """Column groups connected by |Spearman rho| >= threshold."""
    from scipy.stats import spearmanr

    k = data.shape[1]
    adjacency = np.zeros((k, k), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            if data[:, i].std() == 0 or data[:, j].std() == 0:
                continue
            rho = spearmanr(data[:, i], data[:, j]).statistic
            if np.isfinite(rho) and abs(rho) >= threshold:
                adjacency[i, j] = adjacency[j, i] = True
    seen, comps = set(), []
    for i in range(k):
        if i in seen:
            continue
        comp, stack = [], [i]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            comp.append(v)
            stack.extend(np.flatnonzero(adjacency[v]).tolist())
        comps.append(sorted(comp))
    return comps


class SPN:
    """A sum-product network over dictionary-coded columns."""

    def __init__(
        self,
        data: np.ndarray,
        domains: Sequence[int],
        column_names: Sequence[str],
        min_rows: int = 400,
        corr_threshold: float = 0.3,
        max_depth: int = 8,
        seed: int = 0,
    ):
        if data.ndim != 2 or data.shape[1] != len(domains):
            raise EstimationError("SPN data/domain mismatch")
        self.column_names = list(column_names)
        self.domains = list(domains)
        self._col_index = {n: i for i, n in enumerate(self.column_names)}
        self._rng = np.random.default_rng(seed)
        self._min_rows = min_rows
        self._threshold = corr_threshold
        self.root = self._build(data, list(range(len(domains))), max_depth)

    # ------------------------------------------------------------------
    def _leaf_product(self, data: np.ndarray, cols: List[int]) -> object:
        children = [
            (_Leaf(data[:, i], self.domains[c]), [c]) for i, c in enumerate(cols)
        ]
        return _Product(children)

    def _build(self, data: np.ndarray, cols: List[int], depth: int) -> object:
        from scipy.cluster.vq import kmeans2

        if len(cols) == 1:
            return _Product([(_Leaf(data[:, 0], self.domains[cols[0]]), cols)])
        if len(data) < self._min_rows or depth <= 0:
            return self._leaf_product(data, cols)
        comps = _dependent_components(data, self._threshold)
        if len(comps) > 1:
            children = []
            for comp in comps:
                node = self._build(data[:, comp], [cols[i] for i in comp], depth - 1)
                children.append((node, [cols[i] for i in comp]))
            return _Product(children)
        # Row split: k-means into two clusters on standardized codes.
        std = data.std(axis=0)
        std[std == 0] = 1.0
        normalized = (data - data.mean(axis=0)) / std
        _, labels = kmeans2(normalized, 2, minit="++", seed=self._rng.integers(2**31))
        sizes = np.bincount(labels, minlength=2)
        if sizes.min() == 0:
            return self._leaf_product(data, cols)
        weights = sizes / sizes.sum()
        children = [
            self._build(data[labels == c], cols, depth - 1) for c in (0, 1)
        ]
        return _Sum(weights, children)

    # ------------------------------------------------------------------
    def prob(self, regions_by_name: Dict[str, Region]) -> float:
        """P(∧ column ∈ region) under the learned distribution."""
        regions = {}
        for name, region in regions_by_name.items():
            if name not in self._col_index:
                raise QueryError(f"SPN has no column {name!r}")
            regions[self._col_index[name]] = region
        return max(self.root.prob(regions), 0.0)

    @property
    def size_bytes(self) -> int:
        return self.root.size_bytes


class DeepDBEstimator:
    """DeepDB-style SPN ensemble for star schemas.

    ``large=True`` mirrors DeepDB-large: finer structure learning and more
    training samples (bigger, slower, slightly better at the median).

    Serving-protocol conformant (``is_fitted`` / ``size_bytes`` /
    ``estimate_batch``): registrable in a
    :class:`~repro.serving.registry.ModelRegistry` and usable as a
    mid-cascade tier (``docs/estimators.md``). Deterministic at query
    time — the SPNs are frozen after construction — so batch and
    sequential estimates are identical.
    """

    #: SPNs are fitted in the constructor; an instance is always servable.
    is_fitted = True

    def __init__(
        self,
        schema: JoinSchema,
        counts: Optional[JoinCounts] = None,
        n_samples: int = 40_000,
        exclude_columns: Sequence[str] = (),
        large: bool = False,
        seed: int = 0,
    ):
        self.name = "DeepDB-large" if large else "DeepDB"
        self.schema = schema
        self.counts = counts if counts is not None else JoinCounts(schema)
        root = schema.root
        for edge in schema.edges:
            if edge.parent != root:
                raise EstimationError(
                    "DeepDBEstimator supports star schemas (all edges at the root); "
                    f"edge {edge.name} is nested"
                )
        excluded = set(exclude_columns)
        rng = np.random.default_rng(seed)
        min_rows = 150 if large else 400
        threshold = 0.25 if large else 0.35
        n_samples = n_samples * 2 if large else n_samples

        def content_specs(tname: str) -> List[ColumnSpec]:
            return [
                ColumnSpec("content", tname, f"{tname}.{c}", column=c)
                for c in schema.table(tname).column_names
                if f"{tname}.{c}" not in excluded
            ]

        # Single-table SPN on the fact table (its rows, not join samples).
        root_specs = content_specs(root)
        root_table = schema.table(root)
        root_data = np.stack(
            [root_table.codes(s.column) for s in root_specs], axis=1
        )
        self.root_spn = SPN(
            root_data,
            [root_table.column(s.column).domain_size for s in root_specs],
            [s.name for s in root_specs],
            min_rows=min_rows,
            corr_threshold=threshold,
            seed=seed,
        )

        # One 2-table SPN per (root, child) pair over the pair's full join.
        self.pair_spns: Dict[str, SPN] = {}
        self.pair_sizes: Dict[str, float] = {}
        for edge in schema.edges:
            child = edge.child
            pair_schema = JoinSchema(
                tables={root: schema.table(root), child: schema.table(child)},
                edges=[edge],
                root=root,
            )
            pair_counts = JoinCounts(pair_schema)
            specs = (
                content_specs(root)
                + content_specs(child)
                + [ColumnSpec("indicator", child, f"__in_{child}")]
            )
            sampler = FullJoinSampler(pair_schema, pair_counts, specs=specs)
            batch = sampler.sample_batch(n_samples, rng)
            data = np.stack([batch[s.name] for s in specs], axis=1)
            domains = []
            for s in specs:
                if s.kind == "indicator":
                    domains.append(2)
                else:
                    domains.append(
                        pair_schema.table(s.table).column(s.column).domain_size
                    )
            self.pair_spns[child] = SPN(
                data,
                domains,
                [s.name for s in specs],
                min_rows=min_rows,
                corr_threshold=threshold,
                seed=seed + 1,
            )
            self.pair_sizes[child] = pair_counts.full_join_size

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        return self.root_spn.size_bytes + sum(
            s.size_bytes for s in self.pair_spns.values()
        )

    def _regions(self, query: Query, tables: Sequence[str]) -> Dict[str, Region]:
        regions: Dict[str, Region] = {}
        for pred in query.predicates:
            if pred.table not in tables:
                continue
            name = f"{pred.table}.{pred.column}"
            region = Region.from_predicate(
                pred.code_region(self.schema.table(pred.table))
            )
            regions[name] = regions[name].intersect(region) if name in regions else region
        return regions

    def estimate(self, query: Query, **_ignored) -> float:
        query.validate(self.schema)
        root = self.schema.root
        in_query = set(query.tables)
        children = [t for t in query.tables if t != root]
        if root not in in_query:
            if len(children) != 1:
                raise QueryError(
                    "DeepDBEstimator handles fact-anchored queries or single "
                    "dimension tables only"
                )
            child = children[0]
            regions = self._regions(query, [child])
            regions[f"__in_{child}"] = Region.interval(1, 1)
            return self.pair_sizes[child] * self.pair_spns[child].prob(regions)

        root_regions = self._regions(query, [root])
        p_root = self.root_spn.prob(root_regions)
        card_root = self.schema.table(root).n_rows * p_root
        if not children:
            return card_root
        if card_root <= 0:
            return 0.0
        out = card_root
        for child in children:
            regions = self._regions(query, [root, child])
            regions[f"__in_{child}"] = Region.interval(1, 1)
            joint = self.pair_sizes[child] * self.pair_spns[child].prob(regions)
            out *= joint / card_root
        return max(out, 0.0)

    def estimate_batch(self, queries: Sequence[Query], **_ignored) -> np.ndarray:
        """Sequential-equivalent batch estimates (the model is deterministic)."""
        return np.array([self.estimate(q) for q in queries], dtype=np.float64)
