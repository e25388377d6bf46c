"""Independent brute-force query semantics used as a test oracle.

Deliberately different machinery from the engine: rows are dicts keyed by
(input, column), names resolve at evaluation time, joins are literal
nested loops, grouping is a first-occurrence scan. Shares nothing with
the executor but the language definition.
"""
import random

from lakekernel.engine import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    JoinClause,
    Literal,
    NotOp,
    QueryAst,
    SelectItem,
)


class OracleEvalError(Exception):
    pass


def _find(row: dict, ref: ColumnRef):
    hits = [v for (src, col), v in row.items()
            if col == ref.name and (ref.table is None or ref.table == src)]
    if len(hits) != 1:
        raise OracleEvalError(f"{ref} resolves to {len(hits)} columns")
    return hits[0]


def _eval(node, row: dict):
    if isinstance(node, Literal):
        return node.value
    if isinstance(node, ColumnRef):
        return _find(row, node)
    if isinstance(node, NotOp):
        return not _eval(node.operand, row)
    if isinstance(node, BinaryOp):
        if node.op == "and":
            return _eval(node.left, row) and _eval(node.right, row)
        if node.op == "or":
            return _eval(node.left, row) or _eval(node.right, row)
        a = _eval(node.left, row)
        b = _eval(node.right, row)
        if node.op == "=":
            return a == b
        if node.op == "!=":
            return a != b
        if node.op == "<":
            return a < b
        if node.op == "<=":
            return a <= b
        if node.op == ">":
            return a > b
        if node.op == ">=":
            return a >= b
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0:
            raise OracleEvalError("division by zero")
        if isinstance(a, float) or isinstance(b, float):
            return a / b
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    raise OracleEvalError(f"bad node {node!r}")


def _eval_agg(agg: Aggregate, rows: list):
    if agg.func == "count":
        return len(rows)
    values = [_find(r, agg.column) for r in rows]
    if agg.func == "sum":
        if not values:
            return 0.0 if any(isinstance(v, float) for v in values) else 0
        total = 0 if not isinstance(values[0], float) else 0.0
        for v in values:
            total += v
        return total
    if not values:
        raise OracleEvalError(f"{agg.func} over zero rows")
    if agg.func == "avg":  # a left fold, as SUM is: not sum(), compensated since 3.12
        return float(_eval_agg(Aggregate("sum", agg.column), rows)) / len(values)
    return min(values) if agg.func == "min" else max(values)


def _eval_item(expr, rows: list):
    """Select item in an aggregating query, over one group."""
    if isinstance(expr, Aggregate):
        return _eval_agg(expr, rows)
    if isinstance(expr, (Literal,)):
        return expr.value
    if isinstance(expr, ColumnRef):
        return _find(rows[0], expr)
    if isinstance(expr, NotOp):
        return not _eval_item(expr.operand, rows)
    if isinstance(expr, BinaryOp):
        if expr.op == "and":
            return _eval_item(expr.left, rows) and _eval_item(expr.right, rows)
        if expr.op == "or":
            return _eval_item(expr.left, rows) or _eval_item(expr.right, rows)
        a = _eval_item(expr.left, rows)
        b = _eval_item(expr.right, rows)
        shim = BinaryOp(expr.op, Literal(a, "x"), Literal(b, "x"))
        return _eval(shim, {})
    raise OracleEvalError(f"bad item {expr!r}")


def _column_type(ref: ColumnRef, bindings: dict):
    for name, table in bindings.items():
        if ref.table is not None and ref.table != name:
            continue
        for col, typ in table.schema.columns:
            if col == ref.name:
                return typ
    raise OracleEvalError(f"no type for {ref}")


def _expr_type(node, bindings) -> str:
    if isinstance(node, Literal):
        return node.type
    if isinstance(node, ColumnRef):
        return _column_type(node, bindings)
    if isinstance(node, NotOp):
        return "bool"
    if isinstance(node, Aggregate):
        if node.func == "count":
            return "int64"
        if node.func == "avg":
            return "float64"
        return _column_type(node.column, bindings)
    if node.op in ("and", "or", "=", "!=", "<", "<=", ">", ">="):
        return "bool"
    lt = _expr_type(node.left, bindings)
    rt = _expr_type(node.right, bindings)
    return "float64" if "float64" in (lt, rt) else "int64"


def oracle_execute(ast: QueryAst, bindings: dict):
    """Returns (column names, column types, rows as tuples)."""
    rows = [{(ast.source, col): v
             for (col, _), v in zip(bindings[ast.source].schema.columns, r)}
            for r in bindings[ast.source].rows]
    if ast.join is not None:
        joined = []
        right = [{(ast.join.table, col): v
                  for (col, _), v in zip(bindings[ast.join.table].schema.columns, r)}
                 for r in bindings[ast.join.table].rows]
        for lrow in rows:
            for rrow in right:
                combined = dict(lrow)
                combined.update(rrow)
                if _find(combined, ast.join.left) == _find(combined, ast.join.right):
                    joined.append(combined)
        rows = joined
    if ast.where is not None:
        rows = [r for r in rows if _eval(ast.where, r)]

    aggregating = bool(ast.group_by) or any(
        _has_agg(i.expr) for i in ast.select)
    names = [i.alias or i.expr.name for i in ast.select]
    types = [_expr_type(i.expr, bindings) for i in ast.select]

    out = []
    if aggregating:
        if ast.group_by:
            groups = []
            index = {}
            for r in rows:
                key = tuple(_find(r, c) for c in ast.group_by)
                if key not in index:
                    index[key] = len(groups)
                    groups.append([])
                groups[index[key]].append(r)
        else:
            groups = [list(rows)]
        for group in groups:
            out.append(tuple(_eval_item(i.expr, group) for i in ast.select))
    else:
        for r in rows:
            out.append(tuple(_eval(i.expr, r) for i in ast.select))
    coerced = [tuple(float(v) if t == "float64" else v
                     for v, t in zip(row, types)) for row in out]
    return names, types, coerced


def _has_agg(node) -> bool:
    if isinstance(node, Aggregate):
        return True
    if isinstance(node, BinaryOp):
        return _has_agg(node.left) or _has_agg(node.right)
    if isinstance(node, NotOp):
        return _has_agg(node.operand)
    return False


# --- random well-typed query generator ------------------------------------------

from lakekernel.store import TableData  # noqa: E402

_TYPES = ("int64", "float64", "string", "bool")
_STRINGS = ["a", "b", "c,d", ""]


def _value(rng: random.Random, typ: str):
    if typ == "int64":
        return rng.randint(-3, 3)
    if typ == "float64":
        return rng.choice([0.0, 1.5, -2.25, 3.0])
    if typ == "string":
        return rng.choice(_STRINGS)
    return rng.choice([True, False])


def _make_table(rng: random.Random, prefix: str, key: tuple | None = None) -> TableData:
    cols = [(f"{prefix}{i}", rng.choice(_TYPES)) for i in range(rng.randint(1, 3))]
    if key is not None:  # a join key, at a drawn column position
        cols.insert(rng.randint(0, len(cols)), key)
    n_rows = rng.randint(0, 8)
    rows = [tuple(_value(rng, t) for _, t in cols) for _ in range(n_rows)]
    return TableData(__import__("lakekernel.store", fromlist=["Schema"])
                     .Schema(tuple(cols)), tuple(rows))


def _gen_expr(rng, cols, want, depth):
    """cols: list of (qualified_ref, type)."""
    typed = [(r, t) for r, t in cols if t == want]
    if depth <= 0 or rng.random() < 0.35:
        if typed and rng.random() < 0.7:
            return rng.choice(typed)[0]
        return Literal(_value(rng, want), want)
    if want == "bool":
        pick = rng.random()
        if pick < 0.3:
            return NotOp(_gen_expr(rng, cols, "bool", depth - 1))
        if pick < 0.55:
            op = rng.choice(["and", "or"])
            return BinaryOp(op, _gen_expr(rng, cols, "bool", depth - 1),
                            _gen_expr(rng, cols, "bool", depth - 1))
        comparable = rng.choice(["int64", "float64", "string", "bool"])
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return BinaryOp(op, _gen_expr(rng, cols, comparable, depth - 1),
                        _gen_expr(rng, cols, comparable, depth - 1))
    if want in ("int64", "float64"):
        op = rng.choice(["+", "-", "*", "/"])
        return BinaryOp(op, _gen_expr(rng, cols, want, depth - 1),
                        _gen_expr(rng, cols, want, depth - 1))
    return Literal(_value(rng, want), want)  # string: no operators


def gen_query(rng: random.Random):
    """Random well-typed query and matching bindings."""
    with_join = rng.random() < 0.4
    if with_join:
        key_type = rng.choice(["int64", "string"])
        t = _make_table(rng, "a", ("k", key_type))
        u = _make_table(rng, "b", ("j", key_type))
        bindings = {"t": t, "u": u}
        keys = [ColumnRef("t", "k"), ColumnRef("u", "j")]
        rng.shuffle(keys)  # the ON clause may name either side first
        join = JoinClause("u", *keys)
    else:
        t = _make_table(rng, "a")
        bindings = {"t": t}
        join = None

    cols = []
    for name, table in bindings.items():
        for col, typ in table.schema.columns:
            cols.append((ColumnRef(name, col), typ))

    where = _gen_expr(rng, cols, "bool", 2) if rng.random() < 0.6 else None

    items = []
    group_by = ()
    if rng.random() < 0.35:  # aggregating query
        numeric = [(r, t) for r, t in cols if t in ("int64", "float64")]
        if rng.random() < 0.6 and cols:
            keys = rng.sample(cols, rng.randint(1, min(2, len(cols))))
            group_by = tuple(r for r, _ in keys)
            for i, (ref, _) in enumerate(keys):
                items.append(SelectItem(ref, f"g{i}"))
        for i in range(rng.randint(1, 2)):
            func = rng.choice(["count", "sum", "avg", "min", "max"])
            if func == "count":
                arg = None if rng.random() < 0.5 else rng.choice(cols)[0]
            elif func in ("sum", "avg"):
                if not numeric:
                    func, arg = "count", None
                else:
                    arg = rng.choice(numeric)[0]
            else:
                arg = rng.choice(cols)[0]
            items.append(SelectItem(Aggregate(func, arg), f"agg{i}"))
    else:
        for i in range(rng.randint(1, 3)):
            if cols and rng.random() < 0.5:
                items.append(SelectItem(rng.choice(cols)[0], f"c{i}"))
            else:
                want = rng.choice(["int64", "float64", "bool"])
                items.append(SelectItem(_gen_expr(rng, cols, want, 2), f"c{i}"))
    return QueryAst(tuple(items), "t", join, where, group_by), bindings
