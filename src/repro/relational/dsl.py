"""JSON filter DSL: wire-format queries compiled onto Predicate/Query.

The HTTP estimation API (:mod:`repro.serving.http`) accepts queries as
plain JSON so callers never import this library. A query document is::

    {
      "tables": ["title", "cast_info"],
      "filters": [
        {"column": "title.production_year", "op": ">=", "value": 1990},
        {"table": "cast_info", "column": "role_id", "op": "in",
         "value": [1, 2]}
      ],
      "name": "optional-label"
    }

``tables`` is the connected join subset; each filter names its column
either dotted (``"table.column"``) or with an explicit ``"table"`` key.
Operators are the estimator's (``=``, ``<``, ``<=``, ``>``, ``>=``,
``IN``) plus lowercase/word aliases (``eq``, ``lt``, ``le``/``lte``,
``gt``, ``ge``/``gte``, ``in``); values are JSON scalars, or a list for
``IN``. Compilation is *structural* — it produces the exact
:class:`~repro.relational.predicate.Predicate` objects a Python caller
would hand-build, and every malformed shape raises
:class:`~repro.errors.QueryError` with a pointed message. Schema-level
validation (unknown tables/columns, connectivity) stays where it always
was: :meth:`Query.validate` / submit time.

:func:`query_to_dict` is the inverse, used by the HTTP client adapter to
put in-process :class:`Query` objects on the wire; ``query_from_dict(
query_to_dict(q))`` round-trips to an equal query (numpy scalar filter
values are coerced to their Python equivalents, which compare equal).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

import numpy as np

from repro.errors import QueryError
from repro.relational.predicate import SUPPORTED_OPS, Predicate
from repro.relational.query import Query

#: Wire-format operator spellings accepted by :func:`predicate_from_dict`.
OP_ALIASES: Dict[str, str] = {
    "=": "=", "==": "=", "eq": "=",
    "<": "<", "lt": "<",
    "<=": "<=", "le": "<=", "lte": "<=",
    ">": ">", "gt": ">",
    ">=": ">=", "ge": ">=", "gte": ">=",
    "in": "IN", "IN": "IN",
}

_FILTER_KEYS = frozenset({"table", "column", "op", "value"})
_QUERY_KEYS = frozenset({"tables", "filters", "name"})


def _plain_value(value: Any) -> Any:
    """Coerce numpy scalars (and sequences of them) to JSON-native Python."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_plain_value(v) for v in value]
    return value


def _all_str(items) -> bool:
    for item in items:
        if not isinstance(item, str):
            return False
    return True


def predicate_from_dict(obj: Mapping[str, Any]) -> Predicate:
    """Compile one wire-format filter document into a :class:`Predicate`."""
    # ``dict`` first: a decoded JSON object passes without the ABC check.
    if not isinstance(obj, (dict, Mapping)):
        raise QueryError(f"filter must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - _FILTER_KEYS)
    if unknown:
        raise QueryError(
            f"unknown filter key(s) {unknown}; known: {sorted(_FILTER_KEYS)}"
        )
    column = obj.get("column")
    if not isinstance(column, str) or not column:
        raise QueryError("filter requires a string 'column'")
    table = obj.get("table")
    if "." in column:
        dotted_table, _, column = column.partition(".")
        if table is not None and table != dotted_table:
            raise QueryError(
                f"filter table {table!r} contradicts dotted column "
                f"{dotted_table + '.' + column!r}"
            )
        table = dotted_table
    if not isinstance(table, str) or not table:
        raise QueryError(
            "filter requires a 'table' (explicit key or dotted 'table.column')"
        )
    op = obj.get("op")
    if not isinstance(op, str) or op not in OP_ALIASES:
        raise QueryError(
            f"unsupported filter op {op!r}; known: {sorted(set(OP_ALIASES))}"
        )
    op = OP_ALIASES[op]
    if "value" not in obj:
        raise QueryError("filter requires a 'value'")
    value = obj["value"]
    if op == "IN":
        if not isinstance(value, (list, tuple, set, frozenset)):
            raise QueryError("'in' filters require a list value")
        value = tuple(value)
    elif isinstance(value, (list, tuple, set, frozenset, dict)) or value is None:
        raise QueryError(
            f"comparison filter value must be a scalar, got {type(value).__name__}"
        )
    return Predicate(table, column, op, value)


def query_from_dict(obj: Mapping[str, Any]) -> Query:
    """Compile a wire-format query document into a :class:`Query`.

    Structural errors (wrong shapes, unknown keys/ops) raise
    :class:`QueryError`; so do the :class:`Query`/:class:`Predicate`
    constructors' own invariants (empty table list, duplicate tables,
    filters naming tables outside the join set).
    """
    if not isinstance(obj, (dict, Mapping)):
        raise QueryError(f"query must be an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - _QUERY_KEYS)
    if unknown:
        raise QueryError(
            f"unknown query key(s) {unknown}; known: {sorted(_QUERY_KEYS)}"
        )
    tables = obj.get("tables")
    if not isinstance(tables, (list, tuple)) or not tables or not _all_str(tables):
        raise QueryError("query requires 'tables': a non-empty list of table names")
    filters = obj.get("filters", [])
    if not isinstance(filters, (list, tuple)):
        raise QueryError("query 'filters' must be a list of filter objects")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise QueryError("query 'name' must be a string")
    predicates = [predicate_from_dict(f) for f in filters]
    return Query.make(tables, predicates, name)


def predicate_to_dict(predicate: Predicate) -> Dict[str, Any]:
    """Wire-format document for one predicate (JSON-serializable)."""
    value = _plain_value(predicate.value)
    return {
        "table": predicate.table,
        "column": predicate.column,
        "op": predicate.op,
        "value": value,
    }


def query_to_dict(query: Query) -> Dict[str, Any]:
    """Wire-format document for a query; inverse of :func:`query_from_dict`."""
    doc: Dict[str, Any] = {
        "tables": list(query.tables),
        "filters": [predicate_to_dict(p) for p in query.predicates],
    }
    if query.name is not None:
        doc["name"] = query.name
    return doc


__all__: List[str] = [
    "OP_ALIASES",
    "predicate_from_dict",
    "predicate_to_dict",
    "query_from_dict",
    "query_to_dict",
]
