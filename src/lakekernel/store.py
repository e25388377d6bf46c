"""Content-addressed, append-only storage of immutable table snapshots.

The codec is deliberately text based (CSV-like) so golden values and
independent hash oracles stay easy to produce by hand: line one is the
schema as ``name:type`` pairs, every row is one line, and the whole
encoding is bit-exact — the SHA-256 of those bytes IS the snapshot id.

The decoder reads each field with one compiled pattern: a ``"`` opens a
quoted section anywhere in a field, ``""`` inside a section is one quote,
and a field ends at an unquoted ``,`` or newline.
"""
from __future__ import annotations

import hashlib
import math
import os
import re
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

from .errors import CorruptSnapshot, InvalidTable, NotFound, StorageFailure
from .util import atomic_write

COLUMN_TYPES = ("int64", "float64", "string", "bool")
IDENT_RE = re.compile(r"[a-z_][a-z0-9_]*")  # a column name is a query identifier
HEX_ID_RE = re.compile(r"[0-9a-f]{64}")  # a snapshot or commit id: a SHA-256 hex digest
# One field, then its terminator. The (?!") keeps backtracking from closing
# a quoted section on the first half of a "" pair. No repeated group holds a
# `+`, which would backtrack exponentially on a failing tail.
_FIELD_BODY = r'[^",\n]*(?:"[^"]*(?:""[^"]*)*"(?!")[^",\n]*)*'
_FIELD_BODY_RE = re.compile(_FIELD_BODY)
_FIELD_RE = re.compile(rf"({_FIELD_BODY})([,\n])")
_QUOTED_RE = re.compile(r'"([^"]*(?:""[^"]*)*)"(?!")')
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class Schema:
    """Ordered column list; the unit of I/O is a table, so it needs a shape."""

    columns: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.columns:
            raise InvalidTable("schema needs at least one column")
        seen = set()
        for name, typ in self.columns:
            if not IDENT_RE.fullmatch(name):
                raise InvalidTable(f"bad column name {name!r}")
            if typ not in COLUMN_TYPES:
                raise InvalidTable(f"bad column type {typ!r} for {name!r}")
            if name in seen:
                raise InvalidTable(f"duplicate column {name!r}")
            seen.add(name)

    @classmethod
    def of(cls, *cols: str) -> "Schema":
        """Build from 'name:type' strings."""
        parsed = []
        for col in cols:
            name, _, typ = col.partition(":")
            parsed.append((name, typ))
        return cls(tuple(parsed))

    def names(self) -> list[str]:
        return [n for n, _ in self.columns]


def _normalize_value(value, typ: str):
    if typ == "int64":
        if type(value) is not int:
            raise InvalidTable(f"expected int64, got {value!r}")
        if not INT64_MIN <= value <= INT64_MAX:
            raise InvalidTable(f"int64 out of range: {value!r}")
        return value
    if typ == "float64":
        if type(value) is int:
            value = float(value)
        if type(value) is not float:
            raise InvalidTable(f"expected float64, got {value!r}")
        if not math.isfinite(value):
            raise InvalidTable(f"non-finite float64: {value!r}")
        return 0.0 if value == 0.0 else value  # canonicalize -0.0
    if typ == "string":
        if type(value) is not str:
            raise InvalidTable(f"expected string, got {value!r}")
        return value
    if typ == "bool":
        if type(value) is not bool:
            raise InvalidTable(f"expected bool, got {value!r}")
        return value
    raise InvalidTable(f"unknown type {typ!r}")


@dataclass(frozen=True)
class TableData:
    """Immutable table value: schema plus rows of exactly matching arity/types."""

    schema: Schema
    rows: tuple[tuple, ...]

    def __post_init__(self):
        arity = len(self.schema.columns)
        fixed = []
        for row in self.rows:
            if len(row) != arity:
                raise InvalidTable(f"row arity {len(row)} != {arity}")
            fixed.append(tuple(
                _normalize_value(v, t) for v, (_, t) in zip(row, self.schema.columns)
            ))
        object.__setattr__(self, "rows", tuple(fixed))

    @classmethod
    def build(cls, cols: list[str], rows: list) -> "TableData":
        return cls(Schema.of(*cols), tuple(tuple(r) for r in rows))

    def num_rows(self) -> int:
        return len(self.rows)


def _encode_field(value, typ: str) -> str:
    if typ == "int64":
        return str(value)
    if typ == "float64":
        return repr(value)  # shortest round-trip decimal
    if typ == "bool":
        return "true" if value else "false"
    # string: RFC-4180 quoting only when forced
    if "," in value or '"' in value or "\n" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def encode_table(table: TableData) -> bytes:
    """Canonical byte encoding; deterministic and injective on valid tables."""
    lines = [",".join(f"{n}:{t}" for n, t in table.schema.columns)]
    for row in table.rows:
        lines.append(",".join(
            _encode_field(v, t) for v, (_, t) in zip(row, table.schema.columns)
        ))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _unquote(match: re.Match) -> str:
    return match.group(1).replace('""', '"')


def _split_record(text: str, pos: int) -> tuple[list[str], int]:
    """Read one CSV record starting at pos; returns (fields, next_pos)."""
    fields = []
    while True:
        m = _FIELD_RE.match(text, pos)
        if m is None:
            # the field runs to the end of the text, or stops at a quote
            # that never closes
            if _FIELD_BODY_RE.match(text, pos).end() < len(text):
                raise CorruptSnapshot("unterminated quote in snapshot")
            raise CorruptSnapshot("missing trailing newline in snapshot")
        field, sep = m.groups()
        fields.append(_QUOTED_RE.sub(_unquote, field) if '"' in field else field)
        pos = m.end()
        if sep == "\n":
            return fields, pos


def _decode_field(field: str, typ: str):
    try:
        if typ == "int64":
            return int(field)
        if typ == "float64":
            return float(field)
        if typ == "bool":
            if field == "true":
                return True
            if field == "false":
                return False
            raise ValueError(field)
        return field
    except ValueError as exc:
        raise CorruptSnapshot(f"bad {typ} field {field!r}") from exc


def decode_table(data: bytes) -> TableData:
    """Inverse of encode_table. Bytes it accepts need not be canonical:
    `int` and `float` also read `01`, `1_0` or `1e3`, so a caller with bytes
    from outside checks that encode_table gives them back."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptSnapshot(f"snapshot is not UTF-8: {exc}") from None
    if not text:
        raise CorruptSnapshot("empty snapshot")
    header_end = text.find("\n")
    if header_end < 0:
        raise CorruptSnapshot("missing header newline")
    cols = []
    for part in text[:header_end].split(","):
        name, sep, typ = part.partition(":")
        if not sep:
            raise CorruptSnapshot(f"bad header entry {part!r}")
        cols.append((name, typ))
    try:
        schema = Schema(tuple(cols))
    except InvalidTable as exc:
        raise CorruptSnapshot(str(exc)) from exc
    types = [t for _, t in schema.columns]
    rows = []
    pos = header_end + 1
    while pos < len(text):
        fields, pos = _split_record(text, pos)
        if len(fields) != len(types):
            raise CorruptSnapshot(f"row arity {len(fields)} != {len(types)}")
        rows.append(tuple(_decode_field(f, t) for f, t in zip(fields, types)))
    try:  # a non-finite float or an int64 out of range
        return TableData(schema, tuple(rows))
    except InvalidTable as exc:
        raise CorruptSnapshot(str(exc)) from None


def snapshot_id_of(table: TableData) -> str:
    return hashlib.sha256(encode_table(table)).hexdigest()


class SnapshotStore:
    """One file per snapshot at objects/<first2>/<rest62> under the root.

    put is idempotent (racing writers of identical content are benign) and
    every write lands via temp-file-then-atomic-rename. The read/write
    counters cover snapshot CONTENT only; they exist so copy-on-write
    branching can be asserted as literally zero data I/O.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        # str paths through os.path: a Path interns the parts it parses, so
        # one per snapshot name would grow the interned-string table
        self._objects = os.path.join(self.root, "objects")  # made by the first put
        self._lock = threading.Lock()
        self._reads = 0
        self._writes = 0

    def _path(self, hex_id: str) -> str:
        return os.path.join(self._objects, hex_id[:2], hex_id[2:])

    def put_snapshot(self, table: TableData) -> str:
        data = encode_table(table)
        # interned, like commit ids: every commit that maps a table to this
        # snapshot holds the same string
        hex_id = sys.intern(hashlib.sha256(data).hexdigest())
        path = self._path(hex_id)
        if os.path.exists(path):
            return hex_id
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            atomic_write(path, data)
        except OSError as exc:
            raise StorageFailure(f"cannot write snapshot {hex_id}: {exc}") from exc
        with self._lock:
            self._writes += 1
        return hex_id

    def get_snapshot(self, hex_id: str) -> TableData:
        if not HEX_ID_RE.fullmatch(hex_id):  # no other id names a file under objects/
            raise NotFound(f"no snapshot {hex_id}")
        path = self._path(hex_id)
        try:
            with open(path, "rb") as f:
                data = f.read()
        except FileNotFoundError:
            raise NotFound(f"no snapshot {hex_id}") from None
        except OSError as exc:
            raise StorageFailure(f"cannot read snapshot {hex_id}: {exc}") from exc
        if hashlib.sha256(data).hexdigest() != hex_id:
            raise CorruptSnapshot(f"snapshot {hex_id} fails hash verification")
        with self._lock:
            self._reads += 1
        return decode_table(data)

    def has_snapshot(self, hex_id: str) -> bool:
        return bool(HEX_ID_RE.fullmatch(hex_id)) and os.path.exists(self._path(hex_id))

    def io_counters(self) -> tuple[int, int]:
        with self._lock:
            return self._reads, self._writes
