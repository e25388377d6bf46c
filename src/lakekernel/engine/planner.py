"""Static analysis and compilation: column resolution, type checking,
output schemas, and expressions compiled once per plan into closures."""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable

from ..errors import EvalError, QueryTypeError, UnknownInput
from ..store import INT64_MAX, INT64_MIN, Schema
from .pipeline import PipelineSpec
from .queries import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    JoinClause,
    Literal,
    NotOp,
    QueryAst,
)

_NUMERIC = ("int64", "float64")
_COMPARISONS = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@dataclass
class QueryPlan:
    """A type-checked query. Each compiled expression is a closure
    fn(row, group): row is one flat tuple, the FROM input's columns then
    the JOIN input's, and a column is one index into it. In an aggregating
    query, group holds the rows of the current group, row is its first row
    (None for an empty group), and every bare column is a group key,
    constant across the group."""
    sources: tuple[tuple[str, Schema], ...]
    output_schema: Schema
    aggregating: bool
    join_cols: tuple[int, int] | None  # key index in the FROM row, in the JOIN row
    where: Callable | None
    select: tuple[Callable, ...]
    group_keys: tuple[int, ...]  # row index per GROUP BY column


def _check_int(value: int) -> int:
    if not INT64_MIN <= value <= INT64_MAX:
        raise EvalError(f"int64 overflow: {value}")
    return value


def _check_float(value: float) -> float:
    if value != value or value in (float("inf"), float("-inf")):
        raise EvalError("non-finite float64 result")
    return value


def _divide(as_float: bool):
    def divide(left, right):
        if right == 0:
            raise EvalError("division by zero")
        if as_float:
            return left / right
        out = abs(left) // abs(right)  # integer division truncates toward zero
        return -out if (left < 0) != (right < 0) else out
    return divide


class _Analyzer:
    def __init__(self, ast: QueryAst, schemas: dict):
        for name in ast.tables():
            if name not in schemas:
                raise UnknownInput(f"no input {name!r}")
        if ast.join is not None and ast.join.table == ast.source:
            raise QueryTypeError(f"self-join of {ast.source!r} is not supported")
        self.sources = tuple((name, schemas[name]) for name in ast.tables())
        self.columns = [(name, col, typ) for name, schema in self.sources
                        for col, typ in schema.columns]
        self.from_width = len(self.sources[0][1].columns)

    def resolve(self, ref: ColumnRef) -> tuple[int, str]:
        """The index of ref in a row, and its type."""
        if ref.table is not None and ref.table not in [n for n, _ in self.sources]:
            raise QueryTypeError(f"unknown input qualifier {ref.table!r}")
        hits = [(index, typ) for index, (name, col, typ) in enumerate(self.columns)
                if col == ref.name and ref.table in (None, name)]
        if not hits:
            raise QueryTypeError(f"unknown column {_ref_text(ref)!r}")
        if len(hits) > 1:
            raise QueryTypeError(f"ambiguous column {ref.name!r}, qualify it")
        return hits[0]

    def compile(self, node) -> tuple[str, Callable]:
        """The static type of node and a closure fn(row, group) computing
        its value (see QueryPlan)."""
        if isinstance(node, Literal):
            value = node.value
            return node.type, lambda row, group: value
        if isinstance(node, ColumnRef):
            index, typ = self.resolve(node)
            return typ, lambda row, group: row[index]
        if isinstance(node, Aggregate):
            return self.compile_aggregate(node)
        if isinstance(node, NotOp):
            typ, operand = self.compile(node.operand)
            if typ != "bool":
                raise QueryTypeError("NOT needs a bool operand")
            return "bool", lambda row, group: not operand(row, group)
        if isinstance(node, BinaryOp):
            lt, left = self.compile(node.left)
            rt, right = self.compile(node.right)
            if node.op in ("and", "or"):
                if lt != "bool" or rt != "bool":
                    raise QueryTypeError(f"{node.op.upper()} needs bool operands, "
                                         f"got {lt} and {rt}")
                if node.op == "and":
                    return "bool", lambda row, group: left(row, group) and right(row, group)
                return "bool", lambda row, group: left(row, group) or right(row, group)
            if node.op in _COMPARISONS:
                both_numeric = lt in _NUMERIC and rt in _NUMERIC
                if not both_numeric and lt != rt:
                    raise QueryTypeError(f"cannot compare {lt} with {rt}")
                compare = _COMPARISONS[node.op]
                return "bool", lambda row, group: compare(left(row, group), right(row, group))
            # + - * /
            if lt not in _NUMERIC or rt not in _NUMERIC:
                raise QueryTypeError(f"arithmetic needs numeric operands, "
                                     f"got {lt} and {rt}")
            as_float = "float64" in (lt, rt)
            arith = _divide(as_float) if node.op == "/" else _ARITHMETIC[node.op]
            if as_float:
                return "float64", lambda row, group: _check_float(
                    float(arith(left(row, group), right(row, group))))
            return "int64", lambda row, group: _check_int(
                arith(left(row, group), right(row, group)))
        raise QueryTypeError(f"unexpected expression node {node!r}")

    def compile_aggregate(self, node: Aggregate) -> tuple[str, Callable]:
        """An aggregate folds its column over the group."""
        index, arg_type = (None, None) if node.column is None else self.resolve(node.column)
        if node.func == "count":  # count(*) has no column
            return "int64", lambda row, group: len(group)
        if node.func in ("sum", "avg") and arg_type not in _NUMERIC:
            raise QueryTypeError(f"{node.func}() needs a numeric column, "
                                 f"got {arg_type}")
        func = node.func

        def fold(row, group):
            values = [r[index] for r in group]
            if func == "sum":
                if arg_type == "float64":
                    return _check_float(reduce(operator.add, values, 0.0))
                return _check_int(sum(values))
            if not values:
                raise EvalError(f"{func}() over zero rows")
            if func == "avg":
                return _check_float(float(sum(values)) / len(values))
            return min(values) if func == "min" else max(values)

        return ("float64" if func == "avg" else arg_type), fold


def _leaves(node):
    """The literals, column refs and aggregates of an expression, left to
    right; an aggregate's own column is not yielded."""
    if isinstance(node, BinaryOp):
        yield from _leaves(node.left)
        yield from _leaves(node.right)
    elif isinstance(node, NotOp):
        yield from _leaves(node.operand)
    else:
        yield node


def _has_aggregate(node) -> bool:
    return any(isinstance(leaf, Aggregate) for leaf in _leaves(node))


def _ref_text(ref: ColumnRef) -> str:
    return f"{ref.table}.{ref.name}" if ref.table else ref.name


def analyze_query(ast: QueryAst, schemas: dict) -> QueryPlan:
    """Type-check a query against input schemas and compile its
    expressions; raises UnknownInput or QueryTypeError. schemas maps input
    name -> Schema."""
    an = _Analyzer(ast, schemas)

    join_cols = None
    if ast.join is not None:
        join_cols = _resolve_join(an, ast.join)

    where = None
    if ast.where is not None:
        if _has_aggregate(ast.where):
            raise QueryTypeError("aggregates are not allowed in WHERE")
        typ, where = an.compile(ast.where)
        if typ != "bool":
            raise QueryTypeError("WHERE predicate must be bool")

    group_keys = tuple(an.resolve(col)[0] for col in ast.group_by)

    aggregating = bool(ast.group_by) or any(
        _has_aggregate(item.expr) for item in ast.select)

    names = []
    types = []
    select = []
    for item in ast.select:
        typ, fn = an.compile(item.expr)
        if aggregating:
            for ref in _leaves(item.expr):
                if not isinstance(ref, ColumnRef):
                    continue
                if an.resolve(ref)[0] not in group_keys:
                    raise QueryTypeError(
                        f"column {_ref_text(ref)!r} must be grouped or aggregated")
        if item.alias is not None:
            name = item.alias
        elif isinstance(item.expr, ColumnRef):
            name = item.expr.name
        else:
            raise QueryTypeError("computed select item needs an AS alias")
        if name in names:
            raise QueryTypeError(f"duplicate output column {name!r}")
        names.append(name)
        types.append(typ)
        select.append(fn)

    output = Schema(tuple(zip(names, types)))
    return QueryPlan(sources=an.sources, output_schema=output,
                     aggregating=aggregating, join_cols=join_cols, where=where,
                     select=tuple(select), group_keys=group_keys)


def _resolve_join(an: _Analyzer, join: JoinClause) -> tuple[int, int]:
    (left, lt), (right, rt) = an.resolve(join.left), an.resolve(join.right)
    if (left < an.from_width) == (right < an.from_width):
        raise QueryTypeError("join condition must relate the two inputs")
    if lt != rt and not (lt in _NUMERIC and rt in _NUMERIC):
        raise QueryTypeError(f"join keys of incompatible types {lt} and {rt}")
    from_index, join_index = sorted((left, right))
    return from_index, join_index - an.from_width


def plan(spec: PipelineSpec, source_schemas: dict) -> dict[str, QueryPlan]:
    """Type-check and compile every node's query, keyed by node name in
    declaration order, which the parser's earlier-only rule makes a
    topological order."""
    for source in spec.source_tables():
        if source not in source_schemas:
            raise UnknownInput(f"source table {source!r} not available")

    schemas: dict[str, Schema] = dict(source_schemas)
    plans: dict[str, QueryPlan] = {}
    for node in spec.nodes:
        try:
            later = [i for i in node.inputs if i not in schemas]
            if later:
                raise UnknownInput(f"input {later[0]!r} is not planned before it")
            node_plan = analyze_query(node.query, {i: schemas[i] for i in node.inputs})
        except (UnknownInput, QueryTypeError) as exc:
            raise type(exc)(f"node {node.name!r}: {exc}") from exc
        schemas[node.name] = node_plan.output_schema
        plans[node.name] = node_plan
    return plans
