import random

import pytest

from engine_oracle import OracleEvalError, gen_query, oracle_execute
from lakekernel.engine import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    JoinClause,
    Literal,
    NotOp,
    QueryAst,
    SelectItem,
    analyze_query,
    execute_query,
    format_query,
    parse_query,
)
from lakekernel.errors import EvalError, ParseError, QueryTypeError, UnknownInput
from lakekernel.store import Schema, TableData, encode_table


def table(cols, rows):
    return TableData.build(cols, rows)


# --- parsing --------------------------------------------------------------

def test_parse_simple_select():
    ast = parse_query("SELECT a, b FROM t")
    assert len(ast.select) == 2
    assert ast.select[0].expr == ColumnRef(None, "a")
    assert ast.source == "t"
    assert ast.join is None and ast.where is None and ast.group_by == ()


def test_parse_join():
    ast = parse_query("SELECT a FROM t JOIN u ON t.k = u.k")
    assert ast.join == JoinClause("u", ColumnRef("t", "k"), ColumnRef("u", "k"))


def test_parse_where_group_by():
    ast = parse_query(
        "select z, count(*) as n from t where x > 1 and not (y = 'q') group by z")
    assert isinstance(ast.where, BinaryOp) and ast.where.op == "and"
    assert ast.group_by == (ColumnRef(None, "z"),)
    assert ast.select[1].expr == Aggregate("count", None)


def test_parse_literals():
    ast = parse_query("SELECT 1 + 2.5 AS x, 'it''s' AS s, true AS b, -7 AS n FROM t")
    assert ast.select[0].expr == BinaryOp("+", Literal(1, "int64"),
                                          Literal(2.5, "float64"))
    assert ast.select[1].expr == Literal("it's", "string")
    assert ast.select[2].expr == Literal(True, "bool")
    assert ast.select[3].expr == Literal(-7, "int64")


def test_parse_precedence():
    ast = parse_query("SELECT a + b * c < 10 OR NOT d AS x FROM t")
    expr = ast.select[0].expr
    assert expr.op == "or"
    assert expr.left.op == "<"
    assert expr.left.left.op == "+"
    assert expr.left.left.right.op == "*"
    assert isinstance(expr.right, NotOp)


@pytest.mark.parametrize("bad", [
    "", "SELECT", "SELECT FROM t", "SELECT a t", "SELECT a FROM",
    "SELECT a FROM t JOIN u", "SELECT a FROM t WHERE", "SELECT a FROM t GROUP",
    "SELECT a FROM t extra", "SELECT 'unterminated FROM t",
    "SELECT a FROM t WHERE x ~ 1", "SELECT a FROM 9t",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_query(bad)


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT a FROM t WHERE ~")
    assert exc.value.line == 1
    assert exc.value.column == 23


# --- print -> parse round trip ---------------------------------------------------

def test_format_golden():
    ast = parse_query("select a, count(*) as n from t where x > 1 group by a")
    assert format_query(ast) == \
        "SELECT a, COUNT(*) AS n FROM t WHERE (x > 1) GROUP BY a"


def test_roundtrip_randomized_asts():
    rng = random.Random(4242)
    for _ in range(400):
        ast, _ = gen_query(rng)
        printed = format_query(ast)
        assert parse_query(printed) == ast, printed


# --- planning / typing -------------------------------------------------------------

def _schemas(**tables):
    return {name: Schema.of(*cols) for name, cols in tables.items()}


def test_plan_output_schema():
    plan = analyze_query(parse_query("SELECT a, a + 1 AS b FROM t"),
                         _schemas(t=["a:int64"]))
    assert plan.output_schema == Schema.of("a:int64", "b:int64")


def test_plan_mixed_arith_widens_to_float():
    plan = analyze_query(parse_query("SELECT a + b AS x FROM t"),
                         _schemas(t=["a:int64", "b:float64"]))
    assert plan.output_schema == Schema.of("x:float64")


def test_sum_of_string_is_type_error():
    with pytest.raises(QueryTypeError):
        analyze_query(parse_query("SELECT sum(name) AS s FROM t"),
                      _schemas(t=["name:string"]))


def test_avg_returns_float():
    plan = analyze_query(parse_query("SELECT avg(a) AS m FROM t"),
                         _schemas(t=["a:int64"]))
    assert plan.output_schema == Schema.of("m:float64")


@pytest.mark.parametrize("sql,schemas", [
    ("SELECT nope FROM t", {"t": ["a:int64"]}),
    ("SELECT a FROM t WHERE a", {"t": ["a:int64"]}),  # WHERE not bool
    ("SELECT a AND true AS x FROM t", {"t": ["a:int64"]}),
    ("SELECT a < 'x' AS x FROM t", {"t": ["a:int64"]}),
    ("SELECT a FROM t GROUP BY a, nope", {"t": ["a:int64"]}),
    ("SELECT a, count(*) AS n FROM t GROUP BY b",
     {"t": ["a:int64", "b:int64"]}),  # a not grouped
    ("SELECT a + 1 FROM t", {"t": ["a:int64"]}),  # computed item needs alias
    ("SELECT a AS x, b AS x FROM t", {"t": ["a:int64", "b:int64"]}),
    ("SELECT count(*) AS n FROM t WHERE count(*) > 0", {"t": ["a:int64"]}),
])
def test_type_errors(sql, schemas):
    with pytest.raises(QueryTypeError):
        analyze_query(parse_query(sql), {n: Schema.of(*c)
                                         for n, c in schemas.items()})


def test_unknown_input():
    with pytest.raises(UnknownInput):
        analyze_query(parse_query("SELECT a FROM nope"), _schemas(t=["a:int64"]))


def test_ambiguous_column_needs_qualifier():
    schemas = _schemas(t=["k:int64", "v:int64"], u=["k:int64", "v:int64"])
    with pytest.raises(QueryTypeError):
        analyze_query(parse_query("SELECT v FROM t JOIN u ON t.k = u.k"), schemas)
    plan = analyze_query(parse_query("SELECT t.v AS a, u.v AS b "
                                     "FROM t JOIN u ON t.k = u.k"), schemas)
    assert plan.output_schema == Schema.of("a:int64", "b:int64")


# --- execution ---------------------------------------------------------------------

def test_where_false_keeps_schema():
    t = table(["a:int64"], [(1,), (2,)])
    out = execute_query(parse_query("SELECT a FROM t WHERE false"), {"t": t})
    assert out.schema == Schema.of("a:int64")
    assert out.rows == ()


def test_count_star():
    t = table(["a:int64"], [(i,) for i in range(5)])
    out = execute_query(parse_query("SELECT count(*) AS n FROM t"), {"t": t})
    assert out.rows == ((5,),)


def test_small_join_matches_nested_loop_oracle():
    t = table(["k:int64", "x:string"], [(1, "a"), (2, "b"), (1, "c")])
    u = table(["k:int64", "y:int64"], [(1, 10), (1, 11), (3, 30)])
    ast = parse_query("SELECT t.x AS x, u.y AS y FROM t JOIN u ON t.k = u.k")
    out = execute_query(ast, {"t": t, "u": u})
    expected = []
    for k1, x in t.rows:  # literal nested loop, (left, right) order
        for k2, y in u.rows:
            if k1 == k2:
                expected.append((x, y))
    assert list(out.rows) == expected
    assert out.rows == (("a", 10), ("a", 11), ("c", 10), ("c", 11))


def test_group_by_first_occurrence_order():
    t = table(["g:string", "v:int64"],
              [("b", 1), ("a", 2), ("b", 3), ("c", 4), ("a", 5)])
    out = execute_query(parse_query(
        "SELECT g, sum(v) AS s, count(*) AS n FROM t GROUP BY g"), {"t": t})
    assert out.rows == (("b", 4, 2), ("a", 7, 2), ("c", 4, 1))


def test_division_semantics():
    t = table(["a:int64", "b:int64"], [(7, 2), (-7, 2), (7, -2)])
    out = execute_query(parse_query("SELECT a / b AS q FROM t"), {"t": t})
    assert out.rows == ((3,), (-3,), (-3,))  # truncation toward zero
    with pytest.raises(EvalError):
        execute_query(parse_query("SELECT a / 0 AS q FROM t"), {"t": t})
    out = execute_query(parse_query("SELECT a / 2.0 AS q FROM t"), {"t": t})
    assert out.rows == ((3.5,), (-3.5,), (3.5,))


def test_whole_table_aggregates_on_empty_input():
    t = table(["a:int64"], [])
    assert execute_query(parse_query("SELECT count(*) AS n FROM t"),
                         {"t": t}).rows == ((0,),)
    assert execute_query(parse_query("SELECT sum(a) AS s FROM t"),
                         {"t": t}).rows == ((0,),)
    with pytest.raises(EvalError):
        execute_query(parse_query("SELECT avg(a) AS m FROM t"), {"t": t})
    with pytest.raises(EvalError):
        execute_query(parse_query("SELECT min(a) AS m FROM t"), {"t": t})


@pytest.mark.parametrize("rows", [[], [(1, 4), (2, -3), (1, 7)]],
                         ids=["empty", "rows"])
@pytest.mark.parametrize("sql", [
    "SELECT count(*) > 0 AS ok FROM t",
    "SELECT g, sum(v) * 2 AS s FROM t GROUP BY g",
    "SELECT max(v) - min(v) AS spread FROM t",
    "SELECT g + count(*) AS x FROM t GROUP BY g",
    "SELECT NOT (count(*) = 0) AS ok FROM t",
])
def test_nested_aggregates_match_oracle(sql, rows):
    ast = parse_query(sql)
    bindings = {"t": table(["g:int64", "v:int64"], rows)}
    try:
        names, _, expected = oracle_execute(ast, bindings)
    except OracleEvalError:
        with pytest.raises(EvalError):
            execute_query(ast, bindings)
        return
    out = execute_query(ast, bindings)
    assert out.schema.names() == names
    assert list(out.rows) == expected


def test_group_by_on_empty_input_yields_no_groups():
    t = table(["g:int64", "v:int64"], [])
    out = execute_query(parse_query(
        "SELECT g, count(*) AS n FROM t GROUP BY g"), {"t": t})
    assert out.rows == ()


def test_and_or_short_circuit():
    t = table(["a:int64", "b:int64"], [(1, 0), (4, 2)])
    out = execute_query(parse_query(
        "SELECT a FROM t WHERE b != 0 AND a / b > 1"), {"t": t})
    assert out.rows == ((4,),)
    out = execute_query(parse_query(
        "SELECT a FROM t WHERE b = 0 OR a / b > 1"), {"t": t})
    assert out.rows == ((1,), (4,))


def test_int_overflow_is_eval_error():
    t = table(["a:int64"], [(1 << 62,)])
    with pytest.raises(EvalError):
        execute_query(parse_query("SELECT a * 4 AS x FROM t"), {"t": t})


def test_determinism_byte_identical():
    rng = random.Random(11)
    for _ in range(40):
        ast, bindings = gen_query(rng)
        try:
            first = execute_query(ast, bindings)
        except EvalError:
            with pytest.raises(EvalError):
                execute_query(ast, bindings)
            continue
        second = execute_query(ast, bindings)
        assert encode_table(first) == encode_table(second)


def test_schema_soundness_randomized():
    rng = random.Random(12)
    for _ in range(150):
        ast, bindings = gen_query(rng)
        plan = analyze_query(ast, {n: t.schema for n, t in bindings.items()})
        try:
            out = execute_query(ast, bindings)
        except EvalError:
            continue
        assert out.schema == plan.output_schema


def test_executor_matches_brute_force_oracle():
    rng = random.Random(20250808)
    checked = 0
    for _ in range(400):
        ast, bindings = gen_query(rng)
        try:
            expected = oracle_execute(ast, bindings)
        except OracleEvalError:
            with pytest.raises(EvalError):
                execute_query(ast, bindings)
            continue
        names, _, rows = expected
        out = execute_query(ast, bindings)
        assert out.schema.names() == names
        assert list(out.rows) == rows
        checked += 1
    assert checked > 250  # the vast majority of generated queries execute
