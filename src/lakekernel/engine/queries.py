"""Query AST, parser and canonical printer for the pipeline query language.

Grammar (keywords case-insensitive):

    SELECT item[, item]* FROM ident
        [JOIN ident ON ident.col = ident.col]
        [WHERE pred] [GROUP BY col[, col]*]

    item  = expr [AS ident]
    expr  = literals, column refs, + - * /, comparisons, AND OR NOT,
            parentheses, agg(col | *) with agg in count/sum/avg/min/max

The printer emits a canonical form (uppercase keywords, fully
parenthesized sub-expressions) such that parse(format(ast)) == ast.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import ParseError

AGG_FUNCS = ("count", "sum", "avg", "min", "max")
_KEYWORDS = {"select", "from", "join", "on", "where", "group", "by", "as",
             "and", "or", "not", "true", "false"}
_IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_NUM_RE = re.compile(r"\d+(\.\d+)?([eE][+-]?\d+)?")
_VALID_IDENT = re.compile(r"^[a-z_][a-z0-9_]*$")


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: object
    type: str  # int64 | float64 | string | bool


@dataclass(frozen=True)
class ColumnRef:
    table: str | None
    name: str


@dataclass(frozen=True)
class BinaryOp:
    op: str  # + - * / = != < <= > >= and or
    left: object
    right: object


@dataclass(frozen=True)
class NotOp:
    operand: object


@dataclass(frozen=True)
class Aggregate:
    func: str
    column: ColumnRef | None  # None means count(*)


@dataclass(frozen=True)
class SelectItem:
    expr: object
    alias: str | None


@dataclass(frozen=True)
class JoinClause:
    table: str
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class QueryAst:
    select: tuple[SelectItem, ...]
    source: str
    join: JoinClause | None
    where: object | None
    group_by: tuple[ColumnRef, ...]

    def tables(self) -> tuple[str, ...]:
        """The input tables the query names: FROM, then JOIN if present."""
        if self.join is None:
            return (self.source,)
        return (self.source, self.join.table)


# --- tokenizer ---------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # ident | keyword | int | float | string | op
    text: str
    line: int
    column: int
    value: object = None


_OPS = ("<=", ">=", "!=", "=", "<", ">", "+", "-", "*", "/", "(", ")", ",", ".")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "'":
            j = i + 1
            buf = []
            while True:
                if j >= n:
                    raise ParseError("unterminated string literal", line, col)
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":
                        buf.append("'")
                        j += 2
                        continue
                    break
                buf.append(text[j])
                j += 1
            tokens.append(_Token("string", text[i:j + 1], line, col, "".join(buf)))
            col += j + 1 - i
            i = j + 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            raw = m.group(0)
            if m.group(1) or m.group(2):
                tokens.append(_Token("float", raw, line, col, float(raw)))
            else:
                tokens.append(_Token("int", raw, line, col, int(raw)))
            col += len(raw)
            i = m.end()
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            raw = m.group(0)
            low = raw.lower()
            kind = "keyword" if low in _KEYWORDS else "ident"
            tokens.append(_Token(kind, low, line, col))
            col += len(raw)
            i = m.end()
            continue
        for op in _OPS:
            if text.startswith(op, i):
                tokens.append(_Token("op", op, line, col))
                col += len(op)
                i += len(op)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


# --- parser ---------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _fail(self, message: str):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"{message}, found end of input")
        raise ParseError(f"{message}, found {tok.text!r}", tok.line, tok.column)

    def take(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            self._fail(f"expected {want!r}")
        self.pos += 1
        return tok

    def accept(self, kind: str, text: str | None = None) -> _Token | None:
        tok = self.peek()
        if tok is not None and tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def ident(self) -> str:
        tok = self.take("ident")
        if not _VALID_IDENT.match(tok.text):
            raise ParseError(f"bad identifier {tok.text!r}", tok.line, tok.column)
        return tok.text

    def parse_query(self) -> QueryAst:
        self.take("keyword", "select")
        items = [self.select_item()]
        while self.accept("op", ","):
            items.append(self.select_item())
        self.take("keyword", "from")
        source = self.ident()
        join = None
        if self.accept("keyword", "join"):
            table = self.ident()
            self.take("keyword", "on")
            left = self.qualified_ref()
            self.take("op", "=")
            right = self.qualified_ref()
            join = JoinClause(table, left, right)
        where = None
        if self.accept("keyword", "where"):
            where = self.expr()
        group_by: tuple[ColumnRef, ...] = ()
        if self.accept("keyword", "group"):
            self.take("keyword", "by")
            cols = [self.column_ref()]
            while self.accept("op", ","):
                cols.append(self.column_ref())
            group_by = tuple(cols)
        if self.peek() is not None:
            self._fail("expected end of query")
        return QueryAst(tuple(items), source, join, where, group_by)

    def select_item(self) -> SelectItem:
        expr = self.expr()
        alias = None
        if self.accept("keyword", "as"):
            alias = self.ident()
        return SelectItem(expr, alias)

    def qualified_ref(self) -> ColumnRef:
        table = self.ident()
        self.take("op", ".")
        return ColumnRef(table, self.ident())

    def column_ref(self) -> ColumnRef:
        name = self.ident()
        if self.accept("op", "."):
            return ColumnRef(name, self.ident())
        return ColumnRef(None, name)

    # precedence: OR < AND < NOT < comparison < additive < multiplicative < unary
    def expr(self):
        left = self.and_expr()
        while self.accept("keyword", "or"):
            left = BinaryOp("or", left, self.and_expr())
        return left

    def and_expr(self):
        left = self.not_expr()
        while self.accept("keyword", "and"):
            left = BinaryOp("and", left, self.not_expr())
        return left

    def not_expr(self):
        if self.accept("keyword", "not"):
            return NotOp(self.not_expr())
        return self.comparison()

    def comparison(self):
        left = self.additive()
        tok = self.peek()
        while tok is not None and tok.kind == "op" and tok.text in ("=", "!=", "<", "<=", ">", ">="):
            self.pos += 1
            left = BinaryOp(tok.text, left, self.additive())
            tok = self.peek()
        return left

    def additive(self):
        left = self.multiplicative()
        tok = self.peek()
        while tok is not None and tok.kind == "op" and tok.text in ("+", "-"):
            self.pos += 1
            left = BinaryOp(tok.text, left, self.multiplicative())
            tok = self.peek()
        return left

    def multiplicative(self):
        left = self.unary()
        tok = self.peek()
        while tok is not None and tok.kind == "op" and tok.text in ("*", "/"):
            self.pos += 1
            left = BinaryOp(tok.text, left, self.unary())
            tok = self.peek()
        return left

    def unary(self):
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.pos += 1
            num = self.peek()
            if num is not None and num.kind == "int":
                self.pos += 1
                return Literal(-num.value, "int64")
            if num is not None and num.kind == "float":
                self.pos += 1
                return Literal(-num.value, "float64")
            self._fail("expected numeric literal after unary '-'")
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok is None:
            self._fail("expected expression")
        if tok.kind == "op" and tok.text == "(":
            self.pos += 1
            inner = self.expr()
            self.take("op", ")")
            return inner
        if tok.kind == "int":
            self.pos += 1
            return Literal(tok.value, "int64")
        if tok.kind == "float":
            self.pos += 1
            return Literal(tok.value, "float64")
        if tok.kind == "string":
            self.pos += 1
            return Literal(tok.value, "string")
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.pos += 1
            return Literal(tok.text == "true", "bool")
        if tok.kind == "ident":
            if tok.text in AGG_FUNCS and self._lookahead_is_lparen():
                return self.aggregate()
            return self.column_ref()
        self._fail("expected expression")

    def _lookahead_is_lparen(self) -> bool:
        nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        return nxt is not None and nxt.kind == "op" and nxt.text == "("

    def aggregate(self) -> Aggregate:
        func = self.take("ident").text
        self.take("op", "(")
        if func == "count" and self.accept("op", "*"):
            self.take("op", ")")
            return Aggregate("count", None)
        col = self.column_ref()
        self.take("op", ")")
        return Aggregate(func, col)


def parse_query(text: str) -> QueryAst:
    return _Parser(text).parse_query()


# --- printer ----------------------------------------------------------------

def _format_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def format_expr(node) -> str:
    if isinstance(node, Literal):
        if node.type == "string":
            return _format_string(node.value)
        if node.type == "bool":
            return "TRUE" if node.value else "FALSE"
        if node.type == "float64":
            return repr(node.value)
        return str(node.value)
    if isinstance(node, ColumnRef):
        return f"{node.table}.{node.name}" if node.table else node.name
    if isinstance(node, Aggregate):
        arg = "*" if node.column is None else format_expr(node.column)
        return f"{node.func.upper()}({arg})"
    if isinstance(node, NotOp):
        return f"(NOT {format_expr(node.operand)})"
    if isinstance(node, BinaryOp):
        op = node.op.upper() if node.op in ("and", "or") else node.op
        return f"({format_expr(node.left)} {op} {format_expr(node.right)})"
    raise TypeError(f"not an expression node: {node!r}")


def format_query(ast: QueryAst) -> str:
    items = []
    for item in ast.select:
        text = format_expr(item.expr)
        if item.alias:
            text += f" AS {item.alias}"
        items.append(text)
    out = f"SELECT {', '.join(items)} FROM {ast.source}"
    if ast.join:
        out += (f" JOIN {ast.join.table} ON {format_expr(ast.join.left)}"
                f" = {format_expr(ast.join.right)}")
    if ast.where is not None:
        out += f" WHERE {format_expr(ast.where)}"
    if ast.group_by:
        out += " GROUP BY " + ", ".join(format_expr(c) for c in ast.group_by)
    return out
