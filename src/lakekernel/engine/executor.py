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
    rows = bindings[plan.sources[0][0]].rows

    if plan.join_cols is not None:
        from_index, join_index = plan.join_cols
        # hash lookup on the join side, emission in (left, right) input order
        index: dict = {}
        for jrow in bindings[plan.sources[1][0]].rows:
            index.setdefault(jrow[join_index], []).append(jrow)
        rows = [lrow + jrow for lrow in rows for jrow in index.get(lrow[from_index], ())]

    where = plan.where
    if where is not None:
        rows = [r for r in rows if where(r, None)]

    if plan.aggregating:
        # a whole-table aggregate is one group, empty when no row is left
        groups: dict = {} if plan.group_keys else {(): []}
        for row in rows:
            groups.setdefault(tuple(row[i] for i in plan.group_keys), []).append(row)
        out_rows = [tuple(fn(group_rows[0] if group_rows else None, group_rows)
                          for fn in plan.select) for group_rows in groups.values()]
    else:
        out_rows = [tuple(fn(row, None) for fn in plan.select) for row in rows]

    return TableData(plan.output_schema, tuple(out_rows))


def execute_query(ast: QueryAst, bindings: dict) -> TableData:
    """Run a query over in-memory tables; bindings maps input name -> TableData."""
    schemas: dict[str, Schema] = {name: t.schema for name, t in bindings.items()}
    plan = analyze_query(ast, schemas)
    return execute_plan(plan, bindings)
