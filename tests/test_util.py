"""util.Records: the keyed-record journal behind commits.log, runs.log and
verifiers.log."""
from lakekernel.util import Records


def test_records_torn_tail_is_invisible_then_cut_off_by_the_next_put(tmp_path):
    path = tmp_path / "r.log"
    records = Records(path)
    assert records.put("a", b"1")
    with open(path, "ab") as f:
        f.write(b"b 2")  # a writer that died mid-append
    for reader in (records, Records(path)):
        assert reader.keys() == ["a"]
        assert reader.get("b") is None and "b" not in reader
    assert Records(path).put("c", b"3")
    assert path.read_bytes() == b"a 1\nc 3\n"
    assert records.get("c") == b"3" and records.get("b") is None


def test_records_put_appends_only_an_absent_key(tmp_path):
    path = tmp_path / "r.log"
    first, second = Records(path), Records(path)  # two processes' views
    assert first.put("k", b"one")
    assert not second.put("k", b"two")  # not indexed yet: the flock catches it up
    assert not first.put("k", b"two")
    assert second.put("j", b"three")
    assert path.read_bytes() == b"k one\nj three\n"
    assert [r.get("k") for r in (first, second)] == [b"one", b"one"]
    assert sorted(first.keys()) == ["j", "k"]


def test_records_a_hand_appended_later_line_wins_on_read(tmp_path):
    path = tmp_path / "r.log"
    records = Records(path)
    assert records.put("k", b"old")
    with open(path, "ab") as f:
        f.write(b"k new\nno-space-line\n")
    assert Records(path).get("k") == b"new"
    assert Records(path).keys() == ["k"]
    assert records.get("k") == b"old"  # an indexed key is not re-read...
    assert records.keys() == ["k"] and records.get("k") == b"new"  # ...until a catch-up


def test_records_get_and_membership_of_a_missing_file(tmp_path):
    records = Records(tmp_path / "absent.log")
    assert records.get("k") is None and "k" not in records and records.keys() == []
    assert not (tmp_path / "absent.log").exists()
