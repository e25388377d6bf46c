"""Static analysis and compilation: column resolution, type checking,
output schemas, and expressions compiled once per plan into closures."""
from __future__ import annotations

import operator
from dataclasses import dataclass
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
    """A type-checked query. Each compiled expression is a closure fn(row)
    over one flat tuple, the FROM input's columns then the JOIN input's; a
    column is one index into it. An aggregate is a fold (index, step): its
    accumulator starts at the group's first value at `index` and takes
    step(acc, value) for each later one (COUNT has no step). With GROUP BY or
    an aggregate, select runs once per group, over the group's first row,
    then its row count, then one accumulator per fold; each bare column there
    is a group key, constant across the group."""
    sources: tuple[tuple[str, Schema], ...]
    output_schema: Schema
    join_cols: tuple[int, int] | None  # key index in the FROM row, in the JOIN row
    where: Callable | None
    select: tuple[Callable, ...]
    group_keys: tuple[int, ...]  # row index per GROUP BY column
    folds: tuple[tuple[int, Callable | None], ...]


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
        self.folds: list | None = None  # None while WHERE compiles
        self.bare: list[tuple[ColumnRef, int]] = []  # each column compiled, and its index

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
        """The static type of node and a closure fn(row) computing its value
        (see QueryPlan)."""
        if isinstance(node, Literal):
            value = node.value
            return node.type, lambda row: value
        if isinstance(node, ColumnRef):
            index, typ = self.resolve(node)
            self.bare.append((node, index))
            return typ, operator.itemgetter(index)
        if isinstance(node, Aggregate):
            return self.compile_aggregate(node)
        if isinstance(node, NotOp):
            typ, operand = self.compile(node.operand)
            if typ != "bool":
                raise QueryTypeError("NOT needs a bool operand")
            return "bool", lambda row: not operand(row)
        if isinstance(node, BinaryOp):
            lt, left = self.compile(node.left)
            rt, right = self.compile(node.right)
            if node.op in ("and", "or"):
                if lt != "bool" or rt != "bool":
                    raise QueryTypeError(f"{node.op.upper()} needs bool operands, "
                                         f"got {lt} and {rt}")
                if node.op == "and":
                    return "bool", lambda row: left(row) and right(row)
                return "bool", lambda row: left(row) or right(row)
            if node.op in _COMPARISONS:
                both_numeric = lt in _NUMERIC and rt in _NUMERIC
                if not both_numeric and lt != rt:
                    raise QueryTypeError(f"cannot compare {lt} with {rt}")
                compare = _COMPARISONS[node.op]
                return "bool", lambda row: compare(left(row), right(row))
            # + - * /
            if lt not in _NUMERIC or rt not in _NUMERIC:
                raise QueryTypeError(f"arithmetic needs numeric operands, "
                                     f"got {lt} and {rt}")
            as_float = "float64" in (lt, rt)
            arith = _divide(as_float) if node.op == "/" else _ARITHMETIC[node.op]
            if as_float:
                return "float64", lambda row: _check_float(float(arith(left(row), right(row))))
            return "int64", lambda row: _check_int(arith(left(row), right(row)))
        raise QueryTypeError(f"unexpected expression node {node!r}")

    def compile_aggregate(self, node: Aggregate) -> tuple[str, Callable]:
        """A fold in self.folds, finished only when read: AND and OR short-circuit."""
        if self.folds is None:
            raise QueryTypeError("aggregates are not allowed in WHERE")
        index, arg_type = (None, None) if node.column is None else self.resolve(node.column)
        func = node.func
        if func in ("sum", "avg") and arg_type not in _NUMERIC:
            raise QueryTypeError(f"{func}() needs a numeric column, got {arg_type}")
        final, rows = _final(func, arg_type), len(self.columns)  # the count follows the row
        acc = rows + 1 + len(self.folds)
        # count(*) reads column 0 for an accumulator it never steps or reads
        self.folds.append((index or 0, _STEPS.get(func)))
        typ = {"count": "int64", "avg": "float64"}.get(func, arg_type)
        return typ, lambda row: final(row[acc], row[rows])


# SUM and AVG fold left in row order, so no interpreter's sum() decides a value;
# COUNT has no step
_STEPS = {"sum": operator.add, "avg": operator.add, "min": min, "max": max}


def _final(func: str, arg_type: str | None) -> Callable:
    """An aggregate's value from its accumulator over `rows` rows. A sum adds
    its accumulator to zero, as a fold from zero would: a sum of -0.0s is 0.0."""
    if func == "count":
        return lambda acc, rows: rows
    if func == "sum":
        zero, check = (0.0, _check_float) if arg_type == "float64" else (0, _check_int)
        return lambda acc, rows: check(zero + acc) if rows else zero

    def final(acc, rows):
        if not rows:
            raise EvalError(f"{func}() over zero rows")
        return _check_float((0.0 + acc) / rows) if func == "avg" else acc
    return final


def _ref_text(ref: ColumnRef) -> str:
    return f"{ref.table}.{ref.name}" if ref.table else ref.name


def analyze_query(ast: QueryAst, schemas: dict) -> QueryPlan:
    """Type-check a query against input schemas and compile its
    expressions; raises UnknownInput or QueryTypeError. schemas maps input
    name -> Schema."""
    an = _Analyzer(ast, schemas)

    join_cols = None if ast.join is None else _resolve_join(an, ast.join)

    where = None
    if ast.where is not None:
        typ, where = an.compile(ast.where)
        if typ != "bool":
            raise QueryTypeError("WHERE predicate must be bool")
    an.folds, an.bare = [], []

    group_keys = tuple(an.resolve(col)[0] for col in ast.group_by)

    columns: dict[str, str] = {}  # output name -> type
    select = []
    for item in ast.select:
        typ, fn = an.compile(item.expr)
        if item.alias is not None:
            name = item.alias
        elif isinstance(item.expr, ColumnRef):
            name = item.expr.name
        else:
            raise QueryTypeError("computed select item needs an AS alias")
        if name in columns:
            raise QueryTypeError(f"duplicate output column {name!r}")
        columns[name] = typ
        select.append(fn)
    ungrouped = [ref for ref, index in an.bare if index not in group_keys]
    if ungrouped and (group_keys or an.folds):
        raise QueryTypeError(
            f"column {_ref_text(ungrouped[0])!r} must be grouped or aggregated")

    output = Schema(tuple(columns.items()))
    return QueryPlan(sources=an.sources, output_schema=output, join_cols=join_cols,
                     where=where, select=tuple(select), group_keys=group_keys,
                     folds=tuple(an.folds))


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
