"""Deterministic executor for analyzed queries.

Inputs are the only data source: no catalog, clock, randomness or network
access exists in this module, which is the testable form of compute
isolation for node logic. Join output preserves (left, right) input
order; group-by output is ordered by first occurrence of the key.
"""
from __future__ import annotations

from operator import itemgetter

from ..store import Schema, TableData
from .planner import QueryPlan, analyze_query
from .queries import QueryAst


def execute_plan(plan: QueryPlan, bindings: dict) -> TableData:
    """Run an analyzed query's compiled expressions over bindings, which
    maps input name -> TableData, in one pass: rows stream through the join
    and WHERE, and an aggregating query folds each group as its rows pass,
    so it holds one state per group, not the rows it read."""
    rows = bindings[plan.sources[0][0]].rows

    if plan.join_cols is not None:
        from_index, join_index = plan.join_cols
        # hash lookup on the join side, emission in (left, right) input order
        index: dict = {}
        for jrow in bindings[plan.sources[1][0]].rows:
            index.setdefault(jrow[join_index], []).append(jrow)
        rows = (lrow + jrow for lrow in rows for jrow in index.get(lrow[from_index], ()))

    if plan.where is not None:
        rows = filter(plan.where, rows)

    if plan.group_keys or plan.folds:
        # each group keeps [first row, row count, one accumulator per fold]
        key = itemgetter(*plan.group_keys) if plan.group_keys else lambda row: ()
        steps = [(slot, i, step) for slot, (i, step) in enumerate(plan.folds, 2) if step]
        groups: dict = {}
        for row in rows:
            state = groups.get(k := key(row))
            if state is None:
                groups[k] = [row, 1, *[row[i] for i, _ in plan.folds]]
            else:
                state[1] += 1
                for slot, i, step in steps:
                    state[slot] = step(state[slot], row[i])
        if not groups and not plan.group_keys:  # a whole-table aggregate is one group
            width = sum(len(schema.columns) for _, schema in plan.sources)
            groups[()] = [(None,) * width, 0, *[None] * len(plan.folds)]
        rows = (first + tuple(rest) for first, *rest in groups.values())

    return TableData(plan.output_schema, tuple([tuple([fn(row) for fn in plan.select])
                                                for row in rows]))


def execute_query(ast: QueryAst, bindings: dict) -> TableData:
    """Run a query over in-memory tables; bindings maps input name -> TableData."""
    schemas: dict[str, Schema] = {name: t.schema for name, t in bindings.items()}
    plan = analyze_query(ast, schemas)
    return execute_plan(plan, bindings)
