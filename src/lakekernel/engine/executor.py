"""Deterministic reference executor for analyzed queries.

Inputs are the only data source: no catalog, clock, randomness or network
access exists in this module, which is the testable form of compute
isolation for node logic. Join output preserves (left, right) input
order; group-by output is ordered by first occurrence of the key.
"""
from __future__ import annotations

from ..errors import EvalError
from ..store import Schema, TableData
from .planner import QueryPlan, analyze_query
from .queries import Aggregate, BinaryOp, ColumnRef, Literal, NotOp, QueryAst

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def _check_int(value: int) -> int:
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise EvalError(f"int64 overflow: {value}")
    return value


def _check_float(value: float) -> float:
    if value != value or value in (float("inf"), float("-inf")):
        raise EvalError("non-finite float64 result")
    return value


def _arith(op: str, left, right, as_float: bool):
    if op == "+":
        out = left + right
    elif op == "-":
        out = left - right
    elif op == "*":
        out = left * right
    else:  # /
        if right == 0:
            raise EvalError("division by zero")
        if as_float:
            out = left / right
        else:  # integer division truncates toward zero
            out = abs(left) // abs(right)
            if (left < 0) != (right < 0):
                out = -out
    if as_float:
        return _check_float(float(out))
    return _check_int(out)


class _Evaluator:
    def __init__(self, plan: QueryPlan):
        self.plan = plan

    def value(self, node, row, group=None):
        """row is a tuple of per-source tuples, aligned with plan.sources.
        In an aggregating query, group holds the rows of the current group,
        row is its first row (None for an empty group), and every bare
        column is a group key, constant across the group."""
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, ColumnRef):
            rc = self.plan.resolutions[node]
            return row[rc.source][rc.index]
        if isinstance(node, Aggregate):
            return self.aggregate(node, group)
        if isinstance(node, NotOp):
            return not self.value(node.operand, row, group)
        if isinstance(node, BinaryOp):
            if node.op == "and":
                return self.value(node.left, row, group) and self.value(node.right, row, group)
            if node.op == "or":
                return self.value(node.left, row, group) or self.value(node.right, row, group)
            left = self.value(node.left, row, group)
            right = self.value(node.right, row, group)
            if node.op == "=":
                return left == right
            if node.op == "!=":
                return left != right
            if node.op == "<":
                return left < right
            if node.op == "<=":
                return left <= right
            if node.op == ">":
                return left > right
            if node.op == ">=":
                return left >= right
            as_float = isinstance(left, float) or isinstance(right, float)
            return _arith(node.op, left, right, as_float)
        raise EvalError(f"cannot evaluate {node!r}")

    def aggregate(self, node: Aggregate, rows: list):
        if node.func == "count":
            return len(rows)
        values = []
        rc = self.plan.resolutions[node.column]
        for row in rows:
            values.append(row[rc.source][rc.index])
        if node.func == "sum":
            if not values:
                return 0.0 if rc.type == "float64" else 0
            total = values[0]
            for v in values[1:]:
                total = total + v
            if rc.type == "float64":
                return _check_float(float(total))
            return _check_int(total)
        if not values:
            raise EvalError(f"{node.func}() over zero rows")
        if node.func == "avg":
            return _check_float(float(sum(values)) / len(values))
        if node.func == "min":
            return min(values)
        return max(values)


def execute_plan(plan: QueryPlan, bindings: dict) -> TableData:
    ev = _Evaluator(plan)
    from_name = plan.sources[0][0]
    rows = [(r,) for r in bindings[from_name].rows]

    if plan.ast.join is not None:
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

    if plan.ast.where is not None:
        rows = [r for r in rows if ev.value(plan.ast.where, r)]

    out_rows = []
    if plan.aggregating:
        groups: dict = {}
        if plan.ast.group_by:
            key_refs = [plan.resolutions[c] for c in plan.ast.group_by]
            for row in rows:
                key = tuple(row[rc.source][rc.index] for rc in key_refs)
                groups.setdefault(key, []).append(row)
        else:
            groups[()] = list(rows)
        for group_rows in groups.values():
            first = group_rows[0] if group_rows else None
            out_rows.append(tuple(
                ev.value(item.expr, first, group_rows) for item in plan.ast.select))
    else:
        for row in rows:
            out_rows.append(tuple(
                ev.value(item.expr, row) for item in plan.ast.select))

    return TableData(plan.output_schema, tuple(out_rows))


def execute_query(ast: QueryAst, bindings: dict) -> TableData:
    """Run a query over in-memory tables; bindings maps input name -> TableData."""
    schemas: dict[str, Schema] = {name: t.schema for name, t in bindings.items()}
    plan = analyze_query(ast, schemas)
    return execute_plan(plan, bindings)
