import hashlib
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from lakekernel.errors import CorruptSnapshot, InvalidTable, NotFound
from lakekernel.kernel import LakeKernel
from lakekernel.store import (
    PACK_MAX_BYTES,
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
    ("", "empty snapshot"),
    ("a:int64", "missing header newline"),
    ("a\n", "bad header entry 'a'"),
    ("A b:int64\n", "bad column name 'A b'"),
    ("a:int99\n", "bad column type 'int99' for 'a'"),
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
    for bad in ("0" * 64, "objects", "../" + "0" * 61):  # only a hex id names a snapshot
        with pytest.raises(NotFound):
            store.get_snapshot(bad)


@pytest.mark.parametrize("n_rows", [2, 200], ids=["packed", "file"])
def test_tampered_snapshot_detected(tmp_path, n_rows):
    store = SnapshotStore(tmp_path)
    sid = store.put_snapshot(TableData.build(["a:int64"], [(i,) for i in range(n_rows)]))
    packed = n_rows == 2
    path = tmp_path / "snapshots.log" if packed else tmp_path / "objects" / sid[:2] / sid[2:]
    assert (tmp_path / "objects").exists() is not packed
    raw = path.read_bytes()
    at = raw.rindex(str(n_rows - 1).encode())  # the last row
    path.write_bytes(raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1:])  # flip one bit
    with pytest.raises(CorruptSnapshot, match="fails hash verification"):
        store.get_snapshot(sid)


# --- the pack: snapshots of at most PACK_MAX_BYTES are lines of snapshots.log

def _stored_as(root, sid) -> str:
    if (root / "objects" / sid[:2] / sid[2:]).exists():
        return "file"
    log = root / "snapshots.log"
    lines = log.read_bytes().splitlines() if log.exists() else []
    return "packed" if any(line.startswith(sid.encode()) for line in lines) else "absent"


def test_pack_holds_encodings_of_at_most_pack_max_bytes(tmp_path):
    store = SnapshotStore(tmp_path)
    header = b"s:string\n"
    for size, kind in ((PACK_MAX_BYTES, "packed"), (PACK_MAX_BYTES + 1, "file")):
        table = TableData.build(["s:string"], [("x" * (size - len(header) - 1),)])
        assert len(encode_table(table)) == size
        sid = store.put_snapshot(table)
        assert _stored_as(tmp_path, sid) == kind
        assert store.get_snapshot(sid) == table


def test_a_pack_line_is_the_id_and_the_encoding_as_one_json_string(tmp_path):
    store = SnapshotStore(tmp_path)
    table = TableData.build(["s:string"], [("new\nline, \"ünïcode\"",)])
    sid = store.put_snapshot(table)
    line = json.dumps(encode_table(table).decode(), ensure_ascii=False)
    assert (tmp_path / "snapshots.log").read_bytes() == f"{sid} {line}\n".encode()
    assert store.put_snapshot(table) == sid  # a second put appends nothing
    assert (tmp_path / "snapshots.log").read_bytes().count(b"\n") == 1
    assert not (tmp_path / "objects").exists()


def test_torn_pack_tail_is_ignored_then_truncated(tmp_path):
    """A writer that crashed mid-append leaves a line with no newline:
    readers do not see its snapshot, and the next put cuts it off."""
    store = SnapshotStore(tmp_path)
    a, b = (TableData.build(["v:int64"], [(v,)]) for v in (1, 2))
    sid = store.put_snapshot(a)
    log = tmp_path / "snapshots.log"
    intact = log.read_bytes()
    torn = snapshot_id_of(b)
    with open(log, "ab") as fh:
        fh.write(f'{torn} "v:int64\\n'.encode())  # torn: no body end, no newline
    fresh = SnapshotStore(tmp_path)
    assert fresh.get_snapshot(sid) == a
    assert not fresh.has_snapshot(torn)
    with pytest.raises(NotFound):
        fresh.get_snapshot(torn)
    assert fresh.put_snapshot(b) == torn
    assert log.read_bytes() == intact + f'{torn} "v:int64\\n2\\n"\n'.encode()
    for reader in (store, SnapshotStore(tmp_path)):
        assert reader.get_snapshot(sid) == a and reader.get_snapshot(torn) == b


@pytest.mark.parametrize("body", [
    b'"v:int64\\n1\\n',     # not JSON: the string never closes
    b'["v:int64\\n1\\n"]',  # JSON, not a string
    b'"v:int64\\n2\\n"',    # a string that fails its hash
    b'"v:int64\\n\\ud800"',  # a string that is no UTF-8 text
    b'"v:int64\\n\xff"',     # not UTF-8
], ids=["not-json", "not-a-string", "wrong-hash", "lone-surrogate", "not-utf8"])
def test_a_corrupt_pack_line_is_corrupt_snapshot(tmp_path, body):
    sid = snapshot_id_of(TableData.build(["v:int64"], [(1,)]))
    (tmp_path / "snapshots.log").write_bytes(sid.encode() + b" " + body + b"\n")
    store = SnapshotStore(tmp_path)
    assert store.has_snapshot(sid)
    with pytest.raises(CorruptSnapshot, match=sid):
        store.get_snapshot(sid)


def test_threads_on_two_kernels_put_each_snapshot_once(tmp_path):
    """Threads on two kernels of one data dir put overlapping small tables at
    once: snapshots.log ends with one line per distinct table, each put is
    counted by the one kernel that wrote it, and each kernel reads every
    table the other put."""
    kernels = [LakeKernel(tmp_path / "lake") for _ in range(2)]
    tables = [TableData.build(["v:int64"], [(v,)]) for v in range(40)]
    ids = [snapshot_id_of(t) for t in tables]

    def writer(i):
        order = list(range(len(tables)))
        random.Random(i).shuffle(order)
        for n in order:
            assert kernels[i % 2].store.put_snapshot(tables[n]) == ids[n]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            list(pool.map(writer, range(4)))  # raises what a writer raised
    finally:
        sys.setswitchinterval(interval)
    lines = (tmp_path / "lake" / "snapshots.log").read_bytes().splitlines()
    assert sorted(line[:64].decode() for line in lines) == sorted(ids)
    assert sum(k.store.io_counters()[1] for k in kernels) == len(ids)
    for k in kernels:
        assert [k.store.get_snapshot(sid) for sid in ids] == tables


def test_a_fresh_store_reads_what_a_warm_one_put(tmp_path):
    rng = random.Random(5)
    tables = [_random_table(rng) for _ in range(60)]
    tables += [TableData.build(["a:int64", "s:string"], [(i, _random_string(rng))
                                                        for i in range(120)])
               for _ in range(5)]
    warm = SnapshotStore(tmp_path)
    ids = [warm.put_snapshot(t) for t in tables]
    assert {_stored_as(tmp_path, sid) for sid in ids} == {"packed", "file"}
    fresh = SnapshotStore(tmp_path)
    for sid, table in zip(ids, tables):
        assert fresh.get_snapshot(sid) == warm.get_snapshot(sid) == table


def test_a_lake_whose_small_snapshots_are_files_still_reads(tmp_path):
    """Small snapshots written as objects/<2>/<62> files, as lakes did
    before the pack, read as before; putting one again appends nothing."""
    old = [TableData.build(["v:int64"], [(v,)]) for v in range(3)]
    for table in old:
        sid = snapshot_id_of(table)
        (tmp_path / "objects" / sid[:2]).mkdir(parents=True, exist_ok=True)
        (tmp_path / "objects" / sid[:2] / sid[2:]).write_bytes(encode_table(table))
    store = SnapshotStore(tmp_path)
    new = TableData.build(["v:int64"], [(99,)])
    packed = store.put_snapshot(new)
    assert _stored_as(tmp_path, packed) == "packed"
    for table in old:
        sid = snapshot_id_of(table)
        assert store.has_snapshot(sid) and store.get_snapshot(sid) == table
        assert store.put_snapshot(table) == sid
    assert store.has_snapshot(packed) and store.get_snapshot(packed) == new
    assert (tmp_path / "snapshots.log").read_bytes().count(b"\n") == 1
    assert store.io_counters() == (4, 1)


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
