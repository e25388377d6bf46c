"""The pipeline parser as it stood before it read a file in one pass: a
cursor over the file's lines that peeks ahead for a query's continuation
lines. Kept as a differential oracle for `lakekernel.engine.parse_pipeline`,
which must accept the same texts and raise the same errors at the same
lines. Its specs keep the `materialization` field the current NodeSpec
dropped.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from lakekernel.engine import QueryAst, parse_query
from lakekernel.errors import CycleOrForwardRef, ParseError
from lakekernel.governance import PKG_PIN_RE
from lakekernel.store import IDENT_RE

_ENV = re.compile(r"runtime=(\S+)\s+packages=\[([^\]]*)\]")


@dataclass(frozen=True)
class EnvSpec:
    runtime: str
    packages: tuple[str, ...]


@dataclass(frozen=True)
class NodeSpec:
    name: str
    inputs: tuple[str, ...]
    env: EnvSpec
    materialization: str
    query: QueryAst


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    nodes: tuple[NodeSpec, ...]


class _Lines:
    def __init__(self, text: str):
        self.lines = text.split("\n")
        self.idx = 0

    def next_significant(self) -> tuple[int, str] | None:
        while self.idx < len(self.lines):
            raw = self.lines[self.idx]
            self.idx += 1
            if raw.strip():
                return self.idx, raw
        return None

    def peek_significant(self) -> tuple[int, str] | None:
        saved = self.idx
        out = self.next_significant()
        self.idx = saved
        return out


def _indent_of(raw: str) -> int:
    return len(raw) - len(raw.lstrip(" \t"))


def _ident(text: str, lineno: int) -> str:
    if not IDENT_RE.fullmatch(text):
        raise ParseError(f"bad identifier {text!r}", lineno)
    return text


def parse_pipeline(text: str) -> PipelineSpec:
    lines = _Lines(text)
    first = lines.next_significant()
    if first is None:
        raise ParseError("empty pipeline file", 1)
    lineno, raw = first
    m = re.match(r"^pipeline\s+(\S+)\s*$", raw.strip())
    if not m:
        raise ParseError("expected 'pipeline <name>'", lineno)
    pipeline_name = _ident(m.group(1), lineno)

    raw_nodes = []
    while True:
        header = lines.next_significant()
        if header is None:
            break
        lineno, raw = header
        m = re.match(r"^node\s+(\S+):\s*$", raw.strip())
        if not m:
            raise ParseError("expected 'node <name>:'", lineno)
        raw_nodes.append(_parse_node(lines, _ident(m.group(1), lineno), lineno))

    if not raw_nodes:
        raise ParseError("pipeline declares no nodes", lineno)

    names = [n.name for n in raw_nodes]
    dup = {n for n in names if names.count(n) > 1}
    if dup:
        raise ParseError(f"duplicate node name(s): {sorted(dup)}")
    for i, node in enumerate(raw_nodes):
        earlier = set(names[:i])
        for inp in node.inputs:
            if inp in names and inp not in earlier:
                raise CycleOrForwardRef(
                    f"node {node.name!r} reads {inp!r} which is not declared earlier")
    return PipelineSpec(pipeline_name, tuple(raw_nodes))


def _parse_node(lines: _Lines, name: str, header_line: int) -> NodeSpec:
    fields = {}
    query_text = None
    query_line = None
    for expected in ("inputs", "env", "materialize", "query"):
        entry = lines.next_significant()
        if entry is None:
            raise ParseError(f"node {name!r} missing field {expected!r}", header_line)
        lineno, raw = entry
        indent = _indent_of(raw)
        if indent == 0:
            raise ParseError(f"node {name!r} missing field {expected!r}", lineno)
        key, sep, value = raw.strip().partition(":")
        if not sep or key.strip() != expected:
            raise ParseError(f"expected field {expected!r} in node {name!r}", lineno)
        fields[expected] = (lineno, value.strip())
        if expected == "query":
            query_text = value.strip()
            query_line = lineno
            # indented continuation lines extend the query
            while True:
                nxt = lines.peek_significant()
                if nxt is None or _indent_of(nxt[1]) <= indent:
                    break
                lines.next_significant()
                query_text = (query_text + " " + nxt[1].strip()).strip()

    lineno, inputs_text = fields["inputs"]
    inputs = tuple(_ident(p.strip(), lineno) for p in inputs_text.split(",") if p.strip())
    if not inputs:
        raise ParseError(f"node {name!r} declares no inputs", lineno)
    if name in inputs:
        raise CycleOrForwardRef(f"node {name!r} reads itself", lineno)

    lineno, env_text = fields["env"]
    m = _ENV.fullmatch(env_text)
    if not m:
        raise ParseError("expected 'runtime=<tag> packages=[...]'", lineno)
    runtime = m.group(1)
    packages = tuple(p.strip() for p in m.group(2).split(",") if p.strip())
    for pkg in packages:
        if not PKG_PIN_RE.fullmatch(pkg):
            raise ParseError(f"bad package pin {pkg!r}, want name==version", lineno)

    lineno, mat = fields["materialize"]
    if mat != "REPLACE":
        raise ParseError(f"unknown materialization {mat!r}", lineno)

    if not query_text:
        raise ParseError(f"node {name!r} has an empty query", query_line)
    try:
        query = parse_query(query_text)
    except ParseError as exc:
        raise ParseError(f"in query of node {name!r}: {exc}", query_line) from exc

    return NodeSpec(name, inputs, EnvSpec(runtime, packages), "REPLACE", query)
