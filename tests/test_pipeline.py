import random

import pytest

import pipeline_oracle
from lakekernel.engine import (
    EnvSpec,
    NodeSpec,
    PipelineSpec,
    format_pipeline,
    parse_pipeline,
    parse_query,
    plan,
)
from lakekernel.errors import CycleOrForwardRef, ParseError, QueryTypeError, UnknownInput
from lakekernel.store import Schema

TAXI = """\
pipeline taxi
node parent:
  inputs: taxi_trips, taxi_zones
  env: runtime=python3.10 packages=[pandas==2.0]
  materialize: REPLACE
  query: SELECT taxi_trips.zone_id AS zone_id, count(*) AS trips
    FROM taxi_trips JOIN taxi_zones ON taxi_trips.zone_id = taxi_zones.zone_id
    GROUP BY taxi_trips.zone_id
node child:
  inputs: parent
  env: runtime=python3.11 packages=[polars==0.88]
  materialize: REPLACE
  query: SELECT zone_id, trips * 2 AS double_trips FROM parent
"""


def test_parse_two_node_taxi_pipeline():
    spec = parse_pipeline(TAXI)
    assert spec.name == "taxi"
    assert spec.node_names() == ["parent", "child"]
    assert spec.nodes[0].inputs == ("taxi_trips", "taxi_zones")
    assert spec.nodes[1].inputs == ("parent",)
    assert spec.source_tables() == ["taxi_trips", "taxi_zones"]
    assert spec.nodes[0].env.runtime == "python3.10"
    assert spec.nodes[0].env.packages == ("pandas==2.0",)


def test_empty_file_is_parse_error():
    with pytest.raises(ParseError):
        parse_pipeline("")
    with pytest.raises(ParseError):
        parse_pipeline("   \n  \n")


def test_pipeline_without_nodes_rejected():
    with pytest.raises(ParseError):
        parse_pipeline("pipeline empty\n")


def test_forward_reference_rejected():
    text = """\
pipeline bad
node first:
  inputs: second
  env: runtime=py packages=[]
  materialize: REPLACE
  query: SELECT a FROM second
node second:
  inputs: src
  env: runtime=py packages=[]
  materialize: REPLACE
  query: SELECT a FROM src
"""
    with pytest.raises(CycleOrForwardRef):
        parse_pipeline(text)


def test_self_reference_rejected():
    text = """\
pipeline bad
node loop:
  inputs: loop
  env: runtime=py packages=[]
  materialize: REPLACE
  query: SELECT a FROM loop
"""
    with pytest.raises(CycleOrForwardRef):
        parse_pipeline(text)


def test_duplicate_node_rejected():
    text = TAXI + """\
node child:
  inputs: parent
  env: runtime=py packages=[]
  materialize: REPLACE
  query: SELECT zone_id FROM parent
"""
    with pytest.raises(ParseError):
        parse_pipeline(text)


def test_unknown_materialization_rejected():
    text = TAXI.replace("materialize: REPLACE", "materialize: APPEND", 1)
    with pytest.raises(ParseError) as exc:
        parse_pipeline(text)
    assert "materialization" in str(exc.value)


def test_malformed_env_rejected():
    text = TAXI.replace("env: runtime=python3.10 packages=[pandas==2.0]",
                        "env: packages=[pandas==2.0]", 1)
    with pytest.raises(ParseError):
        parse_pipeline(text)
    text = TAXI.replace("pandas==2.0", "pandas=2.0", 1)
    with pytest.raises(ParseError):
        parse_pipeline(text)


def test_parse_error_carries_line_number():
    text = ("pipeline p\n"
            "node n:\n"
            "  inputs: src\n"
            "  env: oops\n"
            "  materialize: REPLACE\n"
            "  query: SELECT a FROM src\n")
    with pytest.raises(ParseError) as exc:
        parse_pipeline(text)
    assert exc.value.line == 4


def test_format_parse_roundtrip():
    spec = parse_pipeline(TAXI)
    assert parse_pipeline(format_pipeline(spec)) == spec


# --- differential: the one-pass parser against the cursor parser it replaced ---

_FUZZ_BASES = (
    "pipeline p\n"
    "node a:\n"
    "  inputs: src\n"
    "  env: runtime=py packages=[x==1]\n"
    "  materialize: REPLACE\n"
    "  query: SELECT k, v + 1 AS w FROM src WHERE v > 2\n"
    "node b:\n"
    "  inputs: a, src\n"
    "  env: runtime=py packages=[]\n"
    "  materialize: REPLACE\n"
    "  query: SELECT a.k AS k, count(*) AS n\n"
    "    FROM a JOIN src ON a.k = src.k\n"
    "    GROUP BY a.k\n",
    "pipeline q\n"
    "node only:\n"
    "  inputs: t\n"
    "  env: runtime=py3 packages=[y==2, z==3]\n"
    "  materialize: REPLACE\n"
    "  query: SELECT 'a b' AS s FROM t\n",
)
_INDENTS = ("", " ", "  ", "    ", "\t", " \t", "      ")
_SWAPS = (("REPLACE", "APPEND"), ("node a", "node Bad!"), ("inputs: src", "inputs:"),
          ("src", "b"), ("packages=[]", "packages=[bad]"), ("SELECT", "SELEC"),
          ("py", "python 3"), ("query:", "query :"), ("k", ""), (":", ""))


def _mutate(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(lines))
        op = rng.randrange(8)
        if op == 0:  # a blank or whitespace-only line
            lines.insert(i, rng.choice(("", " ", "\t", "  \r", "\x0c")))
        elif op == 1:  # re-indent a line
            lines[i] = rng.choice(_INDENTS) + lines[i].lstrip(" \t")
        elif op == 2:
            lines[i] += "\r"
        elif op == 3 and len(lines) > 1:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 4 and len(lines) > 1:
            del lines[i]
        elif op == 5:  # wrap a line at a space, the rest indented anyhow
            cut = [k for k, c in enumerate(lines[i]) if c == " " and k > 0]
            if cut:
                k = rng.choice(cut)
                lines[i:i + 1] = [lines[i][:k], rng.choice(_INDENTS) + lines[i][k + 1:]]
        elif op == 6:
            old, new = rng.choice(_SWAPS)
            lines[i] = lines[i].replace(old, new, 1)
        else:  # the whole text, or a tail of it, twice
            lines += lines[i:]
    return "\n".join(lines)


def _outcome(parse, text: str):
    """The spec and its plain-tuple form, or None and the error's type,
    message and line."""
    try:
        spec = parse(text)
    except ParseError as exc:
        return None, (type(exc), str(exc), exc.line)
    return spec, (spec.name, tuple((n.name, n.inputs, n.env.runtime, n.env.packages, n.query)
                                   for n in spec.nodes))


def differential_parse(seed: int, count: int) -> int:
    """Parse `count` mutated texts with both parsers, asserting they agree
    and that each spec round-trips; returns how many texts parsed."""
    rng = random.Random(seed)
    parsed = 0
    for _ in range(count):
        text = _mutate(rng, rng.choice(_FUZZ_BASES))
        spec, got = _outcome(parse_pipeline, text)
        assert got == _outcome(pipeline_oracle.parse_pipeline, text)[1], text
        if spec is not None:
            parsed += 1
            assert parse_pipeline(format_pipeline(spec)) == spec, text
    return parsed


def test_one_pass_parser_agrees_with_the_cursor_parser_it_replaced():
    parsed = differential_parse(seed=27, count=5000)
    assert 0 < parsed < 5000  # both sides of the language were reached


# --- planning ------------------------------------------------------------------

def _linear(n):
    lines = ["pipeline linear"]
    prev = "src"
    for i in range(n):
        name = f"n{i}"
        lines += [f"node {name}:",
                  f"  inputs: {prev}",
                  "  env: runtime=py packages=[]",
                  "  materialize: REPLACE",
                  f"  query: SELECT a FROM {prev}"]
        prev = name
    return "\n".join(lines) + "\n"


def test_plan_linear_order():
    spec = parse_pipeline(_linear(3))
    plans = plan(spec, {"src": Schema.of("a:int64")})
    assert list(plans) == ["n0", "n1", "n2"]
    assert {n: p.output_schema for n, p in plans.items()} == \
        {f"n{i}": Schema.of("a:int64") for i in range(3)}


DIAMOND = """\
pipeline diamond
node left:
  inputs: src
  env: runtime=py packages=[]
  materialize: REPLACE
  query: SELECT k, a + 1 AS l FROM src
node right:
  inputs: src
  env: runtime=py packages=[]
  materialize: REPLACE
  query: SELECT k, a * 2 AS r FROM src
node bottom:
  inputs: left, right
  env: runtime=py packages=[]
  materialize: REPLACE
  query: SELECT left.k AS k, l + r AS total FROM left JOIN right ON left.k = right.k
"""


def test_plan_diamond_is_declaration_stable_topological_order():
    spec = parse_pipeline(DIAMOND)
    plans = plan(spec, {"src": Schema.of("k:int64", "a:int64")})
    assert list(plans) == ["left", "right", "bottom"]
    # oracle: the result is a topological order of the induced DAG
    inputs = {n.name: n.inputs for n in spec.nodes}
    seen = set(spec.source_tables())
    for name in plans:
        assert all(i in seen for i in inputs[name])
        seen.add(name)
    assert plans["bottom"].output_schema == Schema.of("k:int64", "total:int64")


def test_plan_random_dags_are_topological():
    rng = random.Random(55)
    for _ in range(30):
        n = rng.randint(1, 7)
        lines = ["pipeline rnd"]
        produced = ["src"]
        for i in range(n):
            inputs = sorted(set(rng.choices(produced, k=rng.randint(1, 2))))
            lines += [f"node n{i}:",
                      f"  inputs: {', '.join(inputs)}",
                      "  env: runtime=py packages=[]",
                      "  materialize: REPLACE",
                      f"  query: SELECT a FROM {inputs[0]}"]
            produced.append(f"n{i}")
        spec = parse_pipeline("\n".join(lines) + "\n")
        plans = plan(spec, {"src": Schema.of("a:int64")})
        inputs = {n.name: n.inputs for n in spec.nodes}
        seen = {"src"}
        for name in plans:
            assert all(i in seen for i in inputs[name])
            seen.add(name)
        assert list(plans) == spec.node_names()  # stable


def test_plan_missing_source():
    spec = parse_pipeline(_linear(1))
    with pytest.raises(UnknownInput):
        plan(spec, {})


def test_plan_type_error_names_node():
    text = """\
pipeline p
node agg:
  inputs: src
  env: runtime=py packages=[]
  materialize: REPLACE
  query: SELECT sum(name) AS s FROM src
"""
    spec = parse_pipeline(text)
    with pytest.raises(QueryTypeError) as exc:
        plan(spec, {"src": Schema.of("name:string")})
    assert "agg" in str(exc.value)


def test_query_not_over_declared_inputs_rejected():
    text = """\
pipeline p
node n:
  inputs: src
  env: runtime=py packages=[]
  materialize: REPLACE
  query: SELECT a FROM other
"""
    spec = parse_pipeline(text)
    with pytest.raises(UnknownInput):
        plan(spec, {"src": Schema.of("a:int64"), "other": Schema.of("a:int64")})


def test_plan_rejects_a_node_that_reads_a_later_node():
    """The parser rejects forward references, so only a spec built by hand
    can hold one; plan names the node instead of failing on a lookup."""
    env = EnvSpec("py", ())
    spec = PipelineSpec("p", (
        NodeSpec("first", ("second",), env, parse_query("SELECT a FROM second")),
        NodeSpec("second", ("src",), env, parse_query("SELECT a FROM src")),
    ))
    with pytest.raises(UnknownInput) as exc:
        plan(spec, {"src": Schema.of("a:int64")})
    assert "'first'" in str(exc.value) and "'second'" in str(exc.value)
