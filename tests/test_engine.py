import random
import subprocess
import sys

import pytest

from conftest import child_env
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
    ast = parse_query("SELECT 1 + 2.5 AS x, 'it''s' AS s, true AS b, -7 AS n, "
                      "-9223372036854775808 AS lo, 9223372036854775807 AS hi FROM t")
    assert ast.select[0].expr == BinaryOp("+", Literal(1, "int64"),
                                          Literal(2.5, "float64"))
    assert ast.select[1].expr == Literal("it's", "string")
    assert ast.select[2].expr == Literal(True, "bool")
    assert ast.select[3].expr == Literal(-7, "int64")
    assert ast.select[4].expr == Literal(-(1 << 63), "int64")  # the int64 bounds
    assert ast.select[5].expr == Literal((1 << 63) - 1, "int64")


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
    "SELECT 1e999 AS x FROM t",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_query(bad)


def test_nested_aggregate_is_a_parse_error():
    """An aggregate's argument is a column or *, so the analyzer never sees
    an aggregate inside another."""
    with pytest.raises(ParseError):
        parse_query("SELECT sum(count(v)) AS s FROM t")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_query("SELECT a FROM t WHERE ~")
    assert exc.value.line == 1
    assert exc.value.column == 23


@pytest.mark.parametrize("text, message, line, column", [
    ("SELECT 'e''", "unterminated string literal", 1, 8),
    ("SELECT a\n  FROM t @", "unexpected character '@'", 2, 10),
    ("SELECT a FROM t\n\r\t!", "unexpected character '!'", 2, 3),
    ("SELECT 99999999999999999999 AS x FROM t",
     "int literal 99999999999999999999 is out of int64 range", 1, 8),
    ("SELECT a FROM t\nWHERE a < 99999999999999999999",
     "int literal 99999999999999999999 is out of int64 range", 2, 11),
    ("SELECT a FROM t WHERE a > -9223372036854775809",
     "int literal -9223372036854775809 is out of int64 range", 1, 27),
    ("SELECT 9223372036854775808 AS x FROM t",
     "int literal 9223372036854775808 is out of int64 range", 1, 8),
])
def test_tokenizer_error_positions(text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == \
        (f"{message} at line {line}, column {column}", line, column)


@pytest.mark.parametrize("text, line, column", [
    ("SELECT 'a\nb' AS s FROM t extra", 2, 16),
    ("SELECT 'a\nbc' AS s FROM t\n @", 3, 2),
    ("SELECT 'a\n\nb''\nc' AS s FROM t ~", 4, 16),
])
def test_error_positions_count_lines_inside_string_literals(text, line, column):
    """A string literal may span lines, and later positions count them."""
    with pytest.raises(ParseError) as exc:
        parse_query(text)
    assert (exc.value.line, exc.value.column) == (line, column)


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
    ("SELECT a FROM t JOIN t ON t.a = t.a", {"t": ["a:int64"]}),  # self-join
    ("SELECT v.a AS x FROM t", {"t": ["a:int64"]}),  # unknown qualifier
    ("SELECT a FROM t WHERE NOT a", {"t": ["a:int64"]}),
    ("SELECT s + 1 AS x FROM t", {"t": ["s:string"]}),
    ("SELECT a FROM t JOIN u ON t.a = t.b",
     {"t": ["a:int64", "b:int64"], "u": ["c:int64"]}),  # relates one input
    ("SELECT a FROM t JOIN u ON t.a = u.s", {"t": ["a:int64"], "u": ["s:string"]}),
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
    out = execute_query(parse_query("SELECT sum(v) AS s FROM t"),
                        {"t": table(["v:float64"], [])})
    assert out.rows == ((0.0,),) and isinstance(out.rows[0][0], float)
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
    "SELECT v / 2.0 AS x FROM t",
    "SELECT v / 2 AS x FROM t",
    "SELECT g, sum(v) + 0.5 AS s FROM t GROUP BY g",
    "SELECT avg(v) * 2 AS m FROM t",
    "SELECT false AND min(v) > 0 AS ok, count(*) AS n FROM t",
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


def test_sum_and_avg_fold_left_in_row_order():
    """Python 3.12 made sum() compensated; a left fold gives the same bytes
    on every interpreter."""
    t = table(["v:float64"], [(0.1,)] * 10)
    out = execute_query(parse_query("SELECT avg(v) AS m, sum(v) AS s FROM t"), {"t": t})
    assert out.rows == ((0.09999999999999999, 0.9999999999999999),)


_JOIN_PEAK_RSS = r"""
import resource, sys
from lakekernel.engine import execute_query, parse_query
from lakekernel.store import TableData

n, sql = int(sys.argv[1]), sys.argv[2]
a = TableData.build(["k:int64", "x:int64"], [(0, -i - 1) for i in range(n)])
b = TableData.build(["k:int64", "y:float64"], [(0, i * 0.5) for i in range(n)])
execute_query(parse_query(sql), {"a": a, "b": b})
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)  # KiB on Linux
"""


@pytest.mark.parametrize("sql", [
    "SELECT COUNT(*) AS c FROM a JOIN b ON a.k = b.k WHERE a.x < 0",
    "SELECT a.k AS k, COUNT(*) AS c, SUM(x) AS s, AVG(y) AS m, MAX(y) AS top "
    "FROM a JOIN b ON a.k = b.k GROUP BY a.k",
], ids=["count", "grouped"])
def test_an_aggregate_over_a_join_holds_its_groups_not_the_joined_rows(sql):
    """Every row shares one key, so the join has n * n rows: 4M at n = 2000,
    16 times as many as at n = 500. The peak RSS of a child process that
    runs the query must not grow with them."""
    def peak_mb(n: int) -> float:
        proc = subprocess.run([sys.executable, "-c", _JOIN_PEAK_RSS, str(n), sql],
                              capture_output=True, text=True, env=child_env(), check=True)
        return int(proc.stdout) / 1024

    small, large = peak_mb(500), peak_mb(2000)
    assert large - small < 5, f"peak RSS {small:.1f} MB at n = 500, {large:.1f} MB at 2000"


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
