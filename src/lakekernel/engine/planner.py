"""Static analysis: column resolution, type checking, output schemas and
stable topological ordering of pipeline nodes."""
from __future__ import annotations

from dataclasses import dataclass

from ..errors import QueryTypeError, UnknownInput
from ..store import Schema
from .pipeline import NodeSpec, PipelineSpec
from .queries import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    JoinClause,
    Literal,
    NotOp,
    QueryAst,
    SelectItem,
)

_NUMERIC = ("int64", "float64")
_COMPARISONS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class ResolvedColumn:
    source: int  # 0 = FROM input, 1 = JOIN input
    index: int
    type: str


@dataclass
class QueryPlan:
    ast: QueryAst
    sources: tuple[tuple[str, Schema], ...]
    output_schema: Schema
    aggregating: bool
    resolutions: dict  # ColumnRef -> ResolvedColumn
    join_cols: tuple[ResolvedColumn, ResolvedColumn] | None  # (from side, join side)
    output_names: tuple[str, ...]


class _Analyzer:
    def __init__(self, ast: QueryAst, schemas: dict):
        self.ast = ast
        for name in ast.tables():
            if name not in schemas:
                raise UnknownInput(f"no input {name!r}")
        if ast.join is not None and ast.join.table == ast.source:
            raise QueryTypeError(f"self-join of {ast.source!r} is not supported")
        self.sources = tuple((name, schemas[name]) for name in ast.tables())
        self.resolutions: dict[ColumnRef, ResolvedColumn] = {}

    def resolve(self, ref: ColumnRef) -> ResolvedColumn:
        cached = self.resolutions.get(ref)
        if cached is not None:
            return cached
        hits = []
        for idx, (name, schema) in enumerate(self.sources):
            if ref.table is not None and ref.table != name:
                continue
            for col_idx, (col, typ) in enumerate(schema.columns):
                if col == ref.name:
                    hits.append(ResolvedColumn(idx, col_idx, typ))
        if ref.table is not None and ref.table not in [n for n, _ in self.sources]:
            raise QueryTypeError(f"unknown input qualifier {ref.table!r}")
        if not hits:
            raise QueryTypeError(f"unknown column {_ref_text(ref)!r}")
        if len(hits) > 1:
            raise QueryTypeError(f"ambiguous column {ref.name!r}, qualify it")
        self.resolutions[ref] = hits[0]
        return hits[0]

    def type_of(self, node, allow_agg: bool) -> str:
        if isinstance(node, Literal):
            return node.type
        if isinstance(node, ColumnRef):
            return self.resolve(node).type
        if isinstance(node, Aggregate):
            if not allow_agg:
                raise QueryTypeError(
                    f"aggregate {node.func}() only allowed in select items")
            if node.column is None:
                return "int64"
            arg_type = self.resolve(node.column).type
            if node.func == "count":
                return "int64"
            if node.func in ("sum", "avg") and arg_type not in _NUMERIC:
                raise QueryTypeError(f"{node.func}() needs a numeric column, "
                                     f"got {arg_type}")
            if node.func == "sum":
                return arg_type
            if node.func == "avg":
                return "float64"
            return arg_type  # min / max
        if isinstance(node, NotOp):
            if self.type_of(node.operand, allow_agg) != "bool":
                raise QueryTypeError("NOT needs a bool operand")
            return "bool"
        if isinstance(node, BinaryOp):
            lt = self.type_of(node.left, allow_agg)
            rt = self.type_of(node.right, allow_agg)
            if node.op in ("and", "or"):
                if lt != "bool" or rt != "bool":
                    raise QueryTypeError(f"{node.op.upper()} needs bool operands, "
                                         f"got {lt} and {rt}")
                return "bool"
            if node.op in _COMPARISONS:
                both_numeric = lt in _NUMERIC and rt in _NUMERIC
                if not both_numeric and lt != rt:
                    raise QueryTypeError(f"cannot compare {lt} with {rt}")
                return "bool"
            # + - * /
            if lt not in _NUMERIC or rt not in _NUMERIC:
                raise QueryTypeError(f"arithmetic needs numeric operands, "
                                     f"got {lt} and {rt}")
            return "float64" if "float64" in (lt, rt) else "int64"
        raise QueryTypeError(f"unexpected expression node {node!r}")

    def contains_aggregate(self, node) -> bool:
        if isinstance(node, Aggregate):
            return True
        if isinstance(node, BinaryOp):
            return self.contains_aggregate(node.left) or self.contains_aggregate(node.right)
        if isinstance(node, NotOp):
            return self.contains_aggregate(node.operand)
        return False

    def bare_refs(self, node):
        """Column refs not wrapped in an aggregate."""
        if isinstance(node, ColumnRef):
            yield node
        elif isinstance(node, BinaryOp):
            yield from self.bare_refs(node.left)
            yield from self.bare_refs(node.right)
        elif isinstance(node, NotOp):
            yield from self.bare_refs(node.operand)


def _ref_text(ref: ColumnRef) -> str:
    return f"{ref.table}.{ref.name}" if ref.table else ref.name


def analyze_query(ast: QueryAst, schemas: dict) -> QueryPlan:
    """Type-check a query against input schemas; raises UnknownInput or
    QueryTypeError. schemas maps input name -> Schema."""
    an = _Analyzer(ast, schemas)

    join_cols = None
    if ast.join is not None:
        join_cols = _resolve_join(an, ast.join)

    if ast.where is not None:
        if an.contains_aggregate(ast.where):
            raise QueryTypeError("aggregates are not allowed in WHERE")
        if an.type_of(ast.where, allow_agg=False) != "bool":
            raise QueryTypeError("WHERE predicate must be bool")

    group_keys = []
    for col in ast.group_by:
        rc = an.resolve(col)
        group_keys.append((rc.source, rc.index))

    aggregating = bool(ast.group_by) or any(
        an.contains_aggregate(item.expr) for item in ast.select)

    names = []
    types = []
    for item in ast.select:
        typ = an.type_of(item.expr, allow_agg=True)
        if aggregating:
            for ref in an.bare_refs(item.expr):
                rc = an.resolve(ref)
                if (rc.source, rc.index) not in group_keys:
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

    output = Schema(tuple(zip(names, types)))
    return QueryPlan(ast=ast, sources=an.sources, output_schema=output,
                     aggregating=aggregating, resolutions=an.resolutions,
                     join_cols=join_cols, output_names=tuple(names))


def _resolve_join(an: _Analyzer, join: JoinClause):
    left = an.resolve(join.left)
    right = an.resolve(join.right)
    if left.source == right.source:
        raise QueryTypeError("join condition must relate the two inputs")
    if left.type != right.type and not (left.type in _NUMERIC and right.type in _NUMERIC):
        raise QueryTypeError(f"join keys of incompatible types "
                             f"{left.type} and {right.type}")
    from_side = left if left.source == 0 else right
    join_side = right if right.source == 1 else left
    return (from_side, join_side)


def plan(spec: PipelineSpec, source_schemas: dict) -> tuple[list[NodeSpec], dict]:
    """Order nodes topologically (declaration order among ready nodes) and
    compute every node's output schema by type checking its query."""
    for source in spec.source_tables():
        if source not in source_schemas:
            raise UnknownInput(f"source table {source!r} not available")

    node_names = set(spec.node_names())
    pending = list(spec.nodes)
    done: set[str] = set()
    ordered: list[NodeSpec] = []
    schemas: dict[str, Schema] = dict(source_schemas)
    while pending:
        ready = next((n for n in pending
                      if all(i in done or i not in node_names for i in n.inputs)), None)
        if ready is None:  # unreachable given the parser's earlier-only rule
            raise UnknownInput(f"cannot order nodes {[n.name for n in pending]}")
        pending.remove(ready)
        try:
            node_plan = analyze_query(ready.query,
                                      {i: schemas[i] for i in ready.inputs})
        except (UnknownInput, QueryTypeError) as exc:
            raise type(exc)(f"node {ready.name!r}: {exc}") from exc
        schemas[ready.name] = node_plan.output_schema
        done.add(ready.name)
        ordered.append(ready)
    return ordered, {n.name: schemas[n.name] for n in spec.nodes}
