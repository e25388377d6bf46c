"""Deterministic executor for analyzed queries.

Inputs are the only data source: no catalog, clock, randomness or network
access exists in this module, which is the testable form of compute
isolation for node logic. Join output preserves (left, right) input
order; group-by output is ordered by first occurrence of the key.
"""
from __future__ import annotations

from ..store import Schema, TableData
from .planner import QueryPlan, analyze_query
from .queries import QueryAst


def execute_plan(plan: QueryPlan, bindings: dict) -> TableData:
    """Run an analyzed query's compiled expressions over bindings, which
    maps input name -> TableData."""
    from_name = plan.sources[0][0]
    rows = [(r,) for r in bindings[from_name].rows]

    if plan.join_cols is not None:
        join_name = plan.sources[1][0]
        from_col, join_col = plan.join_cols
        # hash lookup on the join side, emission in (left, right) input order
        index: dict = {}
        for jrow in bindings[join_name].rows:
            index.setdefault(jrow[join_col.index], []).append(jrow)
        joined = []
        for (lrow,) in rows:
            for jrow in index.get(lrow[from_col.index], ()):
                joined.append((lrow, jrow))
        rows = joined

    where = plan.where
    if where is not None:
        rows = [r for r in rows if where(r, None)]

    out_rows = []
    if plan.aggregating:
        groups: dict = {}
        if plan.group_keys:
            for row in rows:
                key = tuple(row[source][index] for source, index in plan.group_keys)
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = list(rows)
        for group_rows in groups.values():
            first = group_rows[0] if group_rows else None
            out_rows.append(tuple(fn(first, group_rows) for fn in plan.select))
    else:
        for row in rows:
            out_rows.append(tuple(fn(row, None) for fn in plan.select))

    return TableData(plan.output_schema, tuple(out_rows))


def execute_query(ast: QueryAst, bindings: dict) -> TableData:
    """Run a query over in-memory tables; bindings maps input name -> TableData."""
    schemas: dict[str, Schema] = {name: t.schema for name, t in bindings.items()}
    plan = analyze_query(ast, schemas)
    return execute_plan(plan, bindings)
