"""Tree-shaped join schemas with multi-key equi-join edges.

A :class:`JoinSchema` is the paper's "join schema": vertices are tables,
edges connect joinable tables (§2). We store edges oriented away from a root
table; the orientation only fixes the direction of the join-count dynamic
program (§4.1) and is semantically irrelevant. Schemas must be acyclic and
connected (the paper's assumption; §4.2 discusses relaxations we do not need
for any evaluated workload).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError, SchemaError
from repro.relational.table import Table


@dataclass(frozen=True)
class JoinEdge:
    """An equi-join edge ``parent.pk_i = child.ck_i`` for each key pair.

    ``keys`` is a tuple of ``(parent_column, child_column)`` pairs; composite
    (multi-column) keys join on the conjunction of all pairs.
    """

    parent: str
    child: str
    keys: Tuple[Tuple[str, str], ...]

    @property
    def name(self) -> str:
        """Stable human-readable identifier, e.g. ``'title<-cast_info'``."""
        return f"{self.parent}<-{self.child}"

    @property
    def parent_columns(self) -> Tuple[str, ...]:
        return tuple(pk for pk, _ in self.keys)

    @property
    def child_columns(self) -> Tuple[str, ...]:
        return tuple(ck for _, ck in self.keys)

    def columns_of(self, table: str) -> Tuple[str, ...]:
        """This edge's key columns belonging to ``table``."""
        if table == self.parent:
            return self.parent_columns
        if table == self.child:
            return self.child_columns
        raise SchemaError(f"edge {self.name} is not incident to table {table!r}")

    def other(self, table: str) -> str:
        """The endpoint opposite to ``table``."""
        if table == self.parent:
            return self.child
        if table == self.child:
            return self.parent
        raise SchemaError(f"edge {self.name} is not incident to table {table!r}")


@dataclass
class JoinSchema:
    """A rooted tree of tables joined by :class:`JoinEdge` s."""

    tables: Dict[str, Table]
    edges: List[JoinEdge]
    root: str
    _children: Dict[str, List[JoinEdge]] = field(init=False, repr=False)
    _parent_edge: Dict[str, Optional[JoinEdge]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._validate()
        self._children = {name: [] for name in self.tables}
        self._parent_edge = {name: None for name in self.tables}
        for edge in self.edges:
            self._children[edge.parent].append(edge)
            self._parent_edge[edge.child] = edge

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.root not in self.tables:
            raise SchemaError(f"root table {self.root!r} not in schema")
        pairs = set()
        neighbors: Dict[str, List[str]] = {name: [] for name in self.tables}
        children: Dict[str, List[str]] = {name: [] for name in self.tables}
        for edge in self.edges:
            for endpoint in (edge.parent, edge.child):
                if endpoint not in self.tables:
                    raise SchemaError(f"edge {edge.name}: unknown table {endpoint!r}")
            for pk, ck in edge.keys:
                try:
                    self.tables[edge.parent].column(pk)
                    self.tables[edge.child].column(ck)
                except ReproError as exc:
                    raise SchemaError(f"edge {edge.name}: {exc}") from None
            pair = frozenset((edge.parent, edge.child))
            if pair in pairs:
                raise SchemaError(f"duplicate edge between {edge.parent} and {edge.child}")
            pairs.add(pair)
            neighbors[edge.parent].append(edge.child)
            neighbors[edge.child].append(edge.parent)
            children[edge.parent].append(edge.child)

        def reached_from_root(adjacency: Dict[str, List[str]]) -> set:
            seen, frontier = {self.root}, [self.root]
            while frontier:
                for nxt in adjacency[frontier.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            return seen

        if len(self.tables) > 1:
            if len(reached_from_root(neighbors)) != len(self.tables):
                raise SchemaError("join schema must be connected")
            if len(self.edges) != len(self.tables) - 1:
                raise SchemaError("join schema must be acyclic (a tree)")
        seen = reached_from_root(children)
        if seen != set(self.tables):
            raise SchemaError(
                "edge orientation does not form a tree rooted at "
                f"{self.root!r}; unreachable: {sorted(set(self.tables) - seen)}"
            )

    # ------------------------------------------------------------------
    # Topology accessors
    # ------------------------------------------------------------------
    @property
    def table_names(self) -> List[str]:
        return list(self.tables)

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(f"schema has no table {name!r}") from None

    def child_edges(self, table: str) -> List[JoinEdge]:
        """Edges from ``table`` to its children."""
        return self._children[table]

    def parent_edge(self, table: str) -> Optional[JoinEdge]:
        """Edge from ``table``'s parent, or ``None`` for the root."""
        return self._parent_edge[table]

    def incident_edges(self, table: str) -> List[JoinEdge]:
        """All edges touching ``table``."""
        edges = list(self._children[table])
        parent = self._parent_edge[table]
        if parent is not None:
            edges.append(parent)
        return edges

    def bfs_order(
        self, root: Optional[str] = None, within: Optional[Iterable[str]] = None
    ) -> List[str]:
        """Tables in breadth-first order from ``root``, optionally restricted
        to a connected subset ``within``."""
        root = root or self.root
        allowed = set(within) if within is not None else set(self.tables)
        if root not in allowed:
            raise SchemaError(f"bfs root {root!r} not in the allowed subset")
        order, frontier = [root], [root]
        seen = {root}
        while frontier:
            table = frontier.pop(0)
            order.append(table) if table not in order else None
            for edge in self.incident_edges(table):
                nxt = edge.other(table)
                if nxt in allowed and nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
                    frontier.append(nxt)
        return order

    def is_connected_subset(self, subset: Sequence[str]) -> bool:
        """Whether ``subset`` induces a connected subtree of the schema."""
        subset = list(subset)
        if not subset:
            return False
        for name in subset:
            if name not in self.tables:
                raise SchemaError(f"unknown table {name!r}")
        reached = self.bfs_order(root=subset[0], within=subset)
        return set(reached) == set(subset)

    def query_root(self, subset: Sequence[str]) -> str:
        """The member of ``subset`` closest to the schema root."""
        depth = self._depths()
        return min(subset, key=lambda t: depth[t])

    def _depths(self) -> Dict[str, int]:
        depths = {self.root: 0}
        frontier = [self.root]
        while frontier:
            table = frontier.pop()
            for edge in self.child_edges(table):
                depths[edge.child] = depths[table] + 1
                frontier.append(edge.child)
        return depths

    def path(self, source: str, target: str) -> List[str]:
        """Unique path of tables from ``source`` to ``target``.

        Climbs from both ends toward the root and joins the two climbs at
        their lowest common ancestor.
        """
        for name in (source, target):
            self.table(name)
        up = [source]
        while self._parent_edge[up[-1]] is not None:
            up.append(self._parent_edge[up[-1]].parent)
        steps_up = {name: i for i, name in enumerate(up)}
        down = [target]
        while down[-1] not in steps_up:
            down.append(self._parent_edge[down[-1]].parent)
        return up[: steps_up[down[-1]] + 1] + down[-2::-1]

    def edge_between(self, a: str, b: str) -> JoinEdge:
        """The edge connecting adjacent tables ``a`` and ``b``."""
        for edge in self.edges:
            if {edge.parent, edge.child} == {a, b}:
                return edge
        raise SchemaError(f"no edge between {a!r} and {b!r}")

    def fanout_edges_for_omitted(self, query_tables: Sequence[str]) -> List[Tuple[str, JoinEdge]]:
        """Downscaling plan for schema subsetting (§6).

        For every table omitted by the query, returns ``(omitted_table,
        edge)`` where ``edge`` is the unique edge incident to the omitted
        table on its path toward the query subtree. The fanout virtual column
        of that (table, edge) pair divides the estimate (Eq. 9).
        """
        query = set(query_tables)
        if not self.is_connected_subset(query_tables):
            raise SchemaError("query tables must induce a connected subtree")
        plan = []
        anchor = next(iter(query))
        for omitted in self.tables:
            if omitted in query:
                continue
            path = self.path(omitted, anchor)
            neighbor = path[1]
            plan.append((omitted, self.edge_between(omitted, neighbor)))
        return plan

    def join_key_columns(self, table: str) -> List[str]:
        """All columns of ``table`` used as join keys on any incident edge."""
        cols: List[str] = []
        for edge in self.incident_edges(table):
            for col in edge.columns_of(table):
                if col not in cols:
                    cols.append(col)
        return cols

    def replace_table(self, table: Table) -> "JoinSchema":
        """New schema with one table swapped (used by the update pipeline)."""
        tables = dict(self.tables)
        if table.name not in tables:
            raise SchemaError(f"cannot replace unknown table {table.name!r}")
        tables[table.name] = table
        return JoinSchema(tables=tables, edges=list(self.edges), root=self.root)


def star_schema(
    fact: Table, dimensions: Mapping[Table, Tuple[str, str]] | Sequence[Tuple[Table, str, str]]
) -> JoinSchema:
    """Convenience constructor for a star schema rooted at ``fact``.

    ``dimensions`` maps each dimension table to ``(fact_column,
    dimension_column)`` or is a sequence of ``(table, fact_col, dim_col)``.
    """
    if isinstance(dimensions, Mapping):
        items = [(tbl, fc, dc) for tbl, (fc, dc) in dimensions.items()]
    else:
        items = list(dimensions)
    tables = {fact.name: fact}
    edges = []
    for tbl, fact_col, dim_col in items:
        tables[tbl.name] = tbl
        edges.append(JoinEdge(parent=fact.name, child=tbl.name, keys=((fact_col, dim_col),)))
    return JoinSchema(tables=tables, edges=edges, root=fact.name)
