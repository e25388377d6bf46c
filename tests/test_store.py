import hashlib
import random

import pytest

from lakekernel.errors import CorruptSnapshot, InvalidTable, NotFound
from lakekernel.store import (
    Schema,
    SnapshotStore,
    TableData,
    decode_table,
    encode_table,
    snapshot_id_of,
)

# frozen oracle: hashlib.sha256(b"a:int64\n").hexdigest() computed standalone
EMPTY_A_INT64_SHA = "f2e9aeec14f50b076299fff0bbe963382704fb6eb437eabadbe9df76c17da7d1"


def test_encode_empty_table():
    t = TableData.build(["a:int64"], [])
    assert encode_table(t) == b"a:int64\n"


def test_encode_quoting_golden():
    t = TableData.build(["a:int64", "b:string"], [(1, "x,y")])
    assert encode_table(t) == b'a:int64,b:string\n1,"x,y"\n'


def test_encode_quote_escaping_and_newline():
    t = TableData.build(["s:string"], [('he said "hi"',), ("two\nlines",), ("plain",)])
    assert encode_table(t) == b's:string\n"he said ""hi"""\n"two\nlines"\nplain\n'
    assert decode_table(encode_table(t)) == t


def test_encode_floats_and_bools():
    t = TableData.build(["f:float64", "b:bool"], [(1.5, True), (0.1, False), (1e20, True)])
    assert encode_table(t) == b"f:float64,b:bool\n1.5,true\n0.1,false\n1e+20,true\n"


def test_negative_zero_is_canonicalized():
    t = TableData.build(["f:float64"], [(-0.0,)])
    assert encode_table(t) == b"f:float64\n0.0\n"


def test_non_finite_floats_rejected():
    with pytest.raises(InvalidTable):
        TableData.build(["f:float64"], [(float("nan"),)])
    with pytest.raises(InvalidTable):
        TableData.build(["f:float64"], [(float("inf"),)])


def test_schema_invariants():
    with pytest.raises(InvalidTable):
        Schema.of()  # no columns
    with pytest.raises(InvalidTable):
        Schema.of("a:int64", "a:string")  # duplicate
    with pytest.raises(InvalidTable):
        Schema.of("Bad:int64")  # uppercase
    with pytest.raises(InvalidTable):
        Schema.of("a\n:int64")  # trailing newline
    with pytest.raises(InvalidTable):
        Schema.of("a:int32")  # unknown type


def test_row_validation():
    with pytest.raises(InvalidTable):
        TableData.build(["a:int64"], [(1, 2)])  # arity
    with pytest.raises(InvalidTable):
        TableData.build(["a:int64"], [(1.0,)])  # float into int column
    with pytest.raises(InvalidTable):
        TableData.build(["a:int64"], [(True,)])  # bool is not int64
    with pytest.raises(InvalidTable):
        TableData.build(["a:int64"], [(1 << 63,)])  # overflow
    with pytest.raises(InvalidTable):
        TableData.build(["a:bool"], [(1,)])
    # ints are accepted into float columns and normalized
    t = TableData.build(["f:float64"], [(3,)])
    assert t.rows == ((3.0,),)


# --- randomized round-trip / injectivity oracle ------------------------------

_TYPES = ("int64", "float64", "string", "bool")
_STRINGS = ["", "plain", "with,comma", 'with"quote', "new\nline", "ünïcode",
            "  spaced  ", "'single'", "trail,"]
_STRING_CHARS = '",\n\r\'ü a'


def _random_string(rng: random.Random) -> str:
    """A fixed string, or a random one over the characters the codec quotes,
    escapes or must pass through, with the empty string among them."""
    if rng.random() < 0.5:
        return rng.choice(_STRINGS)
    return "".join(rng.choices(_STRING_CHARS, k=rng.randint(0, 6)))


def _random_table(rng: random.Random) -> TableData:
    n_cols = rng.randint(1, 4)
    cols = [f"c{i}:{rng.choice(_TYPES)}" for i in range(n_cols)]
    types = [c.split(":")[1] for c in cols]
    rows = []
    for _ in range(rng.randint(0, 8)):
        row = []
        for typ in types:
            if typ == "int64":
                row.append(rng.randint(-(10 ** 12), 10 ** 12))
            elif typ == "float64":
                row.append(rng.choice([0.0, 1.5, -2.25, 3.14159, 1e-9, 1e18,
                                       rng.random()]))
            elif typ == "string":
                row.append(_random_string(rng))
            else:
                row.append(rng.choice([True, False]))
        rows.append(tuple(row))
    return TableData.build(cols, rows)


def test_roundtrip_randomized():
    rng = random.Random(1234)
    for _ in range(300):
        t = _random_table(rng)
        encoded = encode_table(t)
        decoded = decode_table(encoded)
        assert decoded == t
        assert encode_table(decoded) == encoded


def test_injectivity_randomized():
    rng = random.Random(99)
    seen = {}
    for _ in range(400):
        t = _random_table(rng)
        enc = encode_table(t)
        if enc in seen:
            assert seen[enc] == t
        else:
            seen[enc] = t
    distinct_tables = list(seen.values())
    assert len({encode_table(t) for t in distinct_tables}) == len(distinct_tables)


@pytest.mark.parametrize("body, rows", [
    ('s:string\na"b,c"d\n', [("ab,cd",)]),  # a quoted section inside a field
    ('s:string\na""b\n', [("ab",)]),  # "" outside a section is an empty section
    ('s:string\n"a"""\n', [('a"',)]),  # "" inside a section is one quote
    ('s:string\n""\n', [("",)]),
    ('s:string,t:string\n"x\ny",\n', [("x\ny", "")]),
])
def test_decode_quoting_rules(body, rows):
    assert decode_table(body.encode()).rows == tuple(rows)


@pytest.mark.parametrize("body, message", [
    ('s:string\n"abc\n', "unterminated quote in snapshot"),
    ('s:string\n"a""\n', "unterminated quote in snapshot"),
    ('s:string\n"a"b"c\n', "unterminated quote in snapshot"),
    ("s:string\nabc", "missing trailing newline in snapshot"),
    ('s:string\n"a,b"', "missing trailing newline in snapshot"),
    ("a:int64,b:int64\n1\n", "row arity 1 != 2"),
    ("a:int64\n1,2\n", "row arity 2 != 1"),
    ('a:int64\n1,"x\n', "unterminated quote in snapshot"),  # not the arity error
    ("a:int64\nx\n", "bad int64 field 'x'"),
    ("a:float64\nnan\n", "non-finite float64: nan"),
    ("a:float64\n-inf\n", "non-finite float64: -inf"),
    ("a:int64\n9223372036854775808\n", "int64 out of range: 9223372036854775808"),
    ("a:int64\n-9223372036854775809\n", "int64 out of range: -9223372036854775809"),
])
def test_decode_malformed_bodies(body, message):
    with pytest.raises(CorruptSnapshot) as exc:
        decode_table(body.encode())
    assert str(exc.value) == message


# --- the store -------------------------------------------------------------

def test_put_get_roundtrip(tmp_path):
    store = SnapshotStore(tmp_path)
    t = TableData.build(["a:int64", "s:string"], [(1, "x"), (2, "y,z")])
    sid = store.put_snapshot(t)
    assert store.get_snapshot(sid) == t


def test_put_is_idempotent_and_counts_once(tmp_path):
    store = SnapshotStore(tmp_path)
    assert store.io_counters() == (0, 0)
    t = TableData.build(["a:int64"], [(5,)])
    sid1 = store.put_snapshot(t)
    assert store.io_counters() == (0, 1)
    sid2 = store.put_snapshot(t)
    assert sid1 == sid2
    assert store.io_counters() == (0, 1)  # second put wrote nothing


def test_empty_table_hash_matches_independent_sha256(tmp_path):
    store = SnapshotStore(tmp_path)
    sid = store.put_snapshot(TableData.build(["a:int64"], []))
    assert sid == EMPTY_A_INT64_SHA
    assert sid == hashlib.sha256(b"a:int64\n").hexdigest()


def test_distinct_content_distinct_ids(tmp_path):
    store = SnapshotStore(tmp_path)
    rng = random.Random(7)
    for _ in range(50):
        a = _random_table(rng)
        b = _random_table(rng)
        ia, ib = store.put_snapshot(a), store.put_snapshot(b)
        if a == b:
            assert ia == ib
        else:
            assert ia != ib
            # oracle: ids are the hashes of the canonical encodings
            assert ia == hashlib.sha256(encode_table(a)).hexdigest()
            assert ib == hashlib.sha256(encode_table(b)).hexdigest()


def test_get_unknown_id(tmp_path):
    store = SnapshotStore(tmp_path)
    with pytest.raises(NotFound):
        store.get_snapshot("0" * 64)


def test_tampered_snapshot_detected(tmp_path):
    store = SnapshotStore(tmp_path)
    sid = store.put_snapshot(TableData.build(["a:int64"], [(1,), (2,)]))
    path = tmp_path / "objects" / sid[:2] / sid[2:]
    raw = bytearray(path.read_bytes())
    raw[-2] ^= 0x01  # flip one bit inside the last row
    path.write_bytes(bytes(raw))
    with pytest.raises(CorruptSnapshot):
        store.get_snapshot(sid)


def test_read_counter(tmp_path):
    store = SnapshotStore(tmp_path)
    sid = store.put_snapshot(TableData.build(["a:int64"], [(1,)]))
    store.get_snapshot(sid)
    store.get_snapshot(sid)
    assert store.io_counters() == (2, 1)


def test_snapshot_id_of_matches_store(tmp_path):
    store = SnapshotStore(tmp_path)
    t = TableData.build(["a:int64", "b:bool"], [(1, True)])
    assert store.put_snapshot(t) == snapshot_id_of(t)
