"""Tests for JoinSchema, JoinEdge, Predicate, and Query validation."""

import pytest

from repro.errors import QueryError, SchemaError
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.relational.schema import JoinEdge, JoinSchema, star_schema
from repro.relational.table import Table
from tests.helpers import paper_figure4_schema


def chain_schema():
    return paper_figure4_schema()


def tree_schema():
    """R -> {A -> {A1 -> A11, A2}, B}: siblings and a three-level branch."""
    parent_of = {"A": "R", "B": "R", "A1": "A", "A2": "A", "A11": "A1"}
    tables = {n: Table.from_dict(n, {"k": [1]}) for n in ["R", *parent_of]}
    edges = [JoinEdge(p, c, (("k", "k"),)) for c, p in parent_of.items()]
    return JoinSchema(tables=tables, edges=edges, root="R")


class TestSchemaValidation:
    def test_valid_chain(self):
        schema = chain_schema()
        assert schema.root == "A"
        assert [e.child for e in schema.child_edges("A")] == ["B"]
        assert schema.parent_edge("B").parent == "A"

    def test_unknown_root(self):
        a = Table.from_dict("A", {"x": [1]})
        with pytest.raises(SchemaError):
            JoinSchema(tables={"A": a}, edges=[], root="Z")

    def test_disconnected_rejected(self):
        a = Table.from_dict("A", {"x": [1]})
        b = Table.from_dict("B", {"x": [1]})
        with pytest.raises(SchemaError, match="^join schema must be connected$"):
            JoinSchema(tables={"A": a, "B": b}, edges=[], root="A")
        c = Table.from_dict("C", {"x": [1]})
        with pytest.raises(SchemaError, match="^join schema must be connected$"):
            JoinSchema(
                tables={"A": a, "B": b, "C": c},
                edges=[JoinEdge("A", "B", (("x", "x"),))],
                root="A",
            )

    def test_duplicate_edge_rejected(self):
        a = Table.from_dict("A", {"x": [1], "y": [1]})
        b = Table.from_dict("B", {"x": [1], "y": [1]})
        edges = [JoinEdge("A", "B", (("x", "x"),)), JoinEdge("A", "B", (("y", "y"),))]
        with pytest.raises(SchemaError, match="^duplicate edge between A and B$"):
            JoinSchema(tables={"A": a, "B": b}, edges=edges, root="A")

    def test_cycle_rejected(self):
        a = Table.from_dict("A", {"x": [1], "y": [1]})
        b = Table.from_dict("B", {"x": [1], "y": [1]})
        edges = [
            JoinEdge("A", "B", (("x", "x"),)),
            JoinEdge("B", "A", (("y", "y"),)),
        ]
        with pytest.raises(SchemaError):
            JoinSchema(tables={"A": a, "B": b}, edges=edges, root="A")

    def test_unknown_key_column_rejected(self):
        a = Table.from_dict("A", {"x": [1]})
        b = Table.from_dict("B", {"x": [1]})
        with pytest.raises(SchemaError):
            JoinSchema(
                tables={"A": a, "B": b},
                edges=[JoinEdge("A", "B", (("zz", "x"),))],
                root="A",
            )

    def test_bad_orientation_rejected(self):
        a = Table.from_dict("A", {"x": [1]})
        b = Table.from_dict("B", {"x": [1]})
        with pytest.raises(SchemaError):
            JoinSchema(
                tables={"A": a, "B": b},
                edges=[JoinEdge("B", "A", (("x", "x"),))],
                root="A",
            )


class TestTopology:
    def test_bfs_order_full(self):
        schema = chain_schema()
        assert schema.bfs_order() == ["A", "B", "C"]

    def test_bfs_within_subset(self):
        schema = chain_schema()
        assert schema.bfs_order(root="B", within=["B", "C"]) == ["B", "C"]

    def test_connected_subsets(self):
        schema = chain_schema()
        assert schema.is_connected_subset(["A", "B"])
        assert schema.is_connected_subset(["B", "C"])
        assert not schema.is_connected_subset(["A", "C"])

    def test_query_root_is_closest_to_root(self):
        schema = chain_schema()
        assert schema.query_root(["B", "C"]) == "B"
        assert schema.query_root(["C"]) == "C"

    @pytest.mark.parametrize(
        "make_schema, source, target, expected",
        [
            (chain_schema, "A", "C", ["A", "B", "C"]),
            (chain_schema, "C", "A", ["C", "B", "A"]),
            (tree_schema, "A1", "A2", ["A1", "A", "A2"]),
            (tree_schema, "A", "B", ["A", "R", "B"]),
            (tree_schema, "A11", "B", ["A11", "A1", "A", "R", "B"]),
            (tree_schema, "B", "A11", ["B", "R", "A", "A1", "A11"]),
            (tree_schema, "R", "A11", ["R", "A", "A1", "A11"]),
            (tree_schema, "A11", "A2", ["A11", "A1", "A", "A2"]),
            (tree_schema, "A1", "A1", ["A1"]),
        ],
    )
    def test_path(self, make_schema, source, target, expected):
        schema = make_schema()
        assert schema.path(source, target) == expected

    def test_fanout_edges_for_omitted(self):
        schema = chain_schema()
        plan = schema.fanout_edges_for_omitted(["A"])
        plan = dict(plan)
        # B downscales via its x key (edge A-B); C via its y key (edge B-C).
        assert plan["B"].name == "A<-B"
        assert plan["C"].name == "B<-C"

    def test_join_key_columns(self):
        schema = chain_schema()
        assert schema.join_key_columns("B") == ["y", "x"] or schema.join_key_columns(
            "B"
        ) == ["x", "y"]

    def test_star_schema_constructor(self):
        fact = Table.from_dict("f", {"id": [1, 2]})
        d1 = Table.from_dict("d1", {"fid": [1, 1]})
        schema = star_schema(fact, [(d1, "id", "fid")])
        assert schema.root == "f"
        assert schema.edge_between("f", "d1").keys == (("id", "fid"),)

    def test_replace_table(self):
        schema = chain_schema()
        bigger_a = Table.from_dict("A", {"x": [1, 2, 3]})
        replaced = schema.replace_table(bigger_a)
        assert replaced.table("A").n_rows == 3
        assert schema.table("A").n_rows == 2


class TestQueryValidation:
    def test_valid_query(self):
        schema = chain_schema()
        q = Query.make(["A", "B"], [Predicate("A", "x", "=", 2)])
        q.validate(schema)

    def test_empty_tables_rejected(self):
        with pytest.raises(QueryError):
            Query.make([])

    def test_predicate_outside_join_graph(self):
        with pytest.raises(QueryError):
            Query.make(["A"], [Predicate("B", "x", "=", 1)])

    def test_disconnected_query_rejected(self):
        schema = chain_schema()
        with pytest.raises(QueryError):
            Query.make(["A", "C"]).validate(schema)

    def test_unknown_table_rejected(self):
        schema = chain_schema()
        with pytest.raises(QueryError):
            Query.make(["Z"]).validate(schema)

    def test_bad_operator_rejected(self):
        with pytest.raises(QueryError):
            Predicate("A", "x", "LIKE", "foo")

    def test_in_requires_collection(self):
        with pytest.raises(QueryError):
            Predicate("A", "x", "IN", 3)

    def test_predicates_by_table(self):
        q = Query.make(
            ["A", "B"],
            [Predicate("A", "x", "=", 1), Predicate("A", "x", ">", 0)],
        )
        grouped = q.predicates_by_table()
        assert len(grouped["A"]) == 2
        assert "B" not in grouped
