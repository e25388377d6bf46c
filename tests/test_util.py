"""util.Records, the keyed-record journal behind commits.log, runs.log and
verifiers.log, and util.decoder, which reads every JSON record back; and a
stdlib stand-in for a linter's unused-import check over the package."""
import ast
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

import pytest

from lakekernel.catalog import Commit, MergeResult
from lakekernel.governance import AuditRecord
from lakekernel.harness import Trace, TraceEvent
from lakekernel.runner import NodeResult, Outcome, RunReport
from lakekernel.util import _READ_CHUNK, Records, decoder
from lakekernel.verify import VerdictRecord


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


def test_a_replay_past_a_long_line_reads_bounded_chunks(tmp_path, monkeypatch):
    """A fresh reader replays a line longer than a read chunk with reads of
    at most twice its length, not one buffer of the rest of the file; a torn
    long last line stays invisible and is cut off by the next put."""
    path = tmp_path / "r.log"
    lines = [b"long " + b"x" * 20_000] + [b"k%d " % i + b"y" * 100 for i in range(3000)]
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    real_pread, reads = os.pread, []

    def pread(fd, n, offset):
        reads.append(n)
        return real_pread(fd, n, offset)

    monkeypatch.setattr(os, "pread", pread)
    records = Records(path)
    assert records.get("long") == b"x" * 20_000
    assert all(records.get(f"k{i}") == b"y" * 100 for i in range(3000))
    assert max(reads) <= 2 * max(map(len, lines)) + _READ_CHUNK

    torn = b"torn " + b"z" * 40_000  # a writer that died mid-append
    with open(path, "ab") as f:
        f.write(torn)
    reads.clear()
    fresh = Records(path)
    assert "torn" not in fresh and len(fresh.keys()) == 3001
    assert max(reads) <= 2 * len(torn) + _READ_CHUNK
    assert Records(path).put("c", b"3")
    assert path.read_bytes().endswith(b"y\nc 3\n")
    assert records.get("c") == b"3" and records.get("torn") is None


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


@dataclass(frozen=True)
class _Inner:
    n: int
    tag: str | None = None


@dataclass(frozen=True)
class _Outer:
    inner: _Inner
    items: tuple[_Inner, ...] = ()
    names: list[str] = field(default_factory=list)
    sizes: dict[str, float] = field(default_factory=dict)


def test_decoder_reads_x_or_none():
    optional = decoder(str | None)
    assert optional(None) is None and optional("x") == "x"
    with pytest.raises(TypeError):
        optional(5)


def test_decoder_reads_nested_records_and_containers():
    value = {"inner": {"n": 1, "tag": "a"}, "items": [{"n": 2}, {"n": 3, "tag": None}],
             "names": ["x", "y"], "sizes": {"a": 1.5}}
    assert decoder(_Outer)(value) == _Outer(_Inner(1, "a"), (_Inner(2), _Inner(3)),
                                            ["x", "y"], {"a": 1.5})
    assert decoder(tuple[int, ...])([1, 2]) == (1, 2)
    assert decoder(list[str])(["a"]) == ["a"]
    assert decoder(dict[str, list[int]])({"a": [1]}) == {"a": [1]}
    for hint, bad in ((tuple[int, ...], {"0": 1}), (tuple[int, ...], [1, "2"]),
                      (list[str], ("a",)), (list[str], ["a", 1]),
                      (dict[str, str], [["a", "b"]]), (dict[str, str], {"a": 1})):
        with pytest.raises(TypeError):
            decoder(hint)(bad)


def test_decoder_gives_an_absent_key_its_default():
    assert decoder(_Outer)({"inner": {"n": 1}}) == _Outer(_Inner(1))


@pytest.mark.parametrize("value", [
    {"inner": {"n": 1}, "extra": 0},
    {"inner": {"n": 1, "extra": 0}},
    {},
    {"inner": {}},
    {"inner": {"n": True}},
    {"inner": {"n": 1.0}},
    {"inner": {"n": 1}, "sizes": {"a": 1}},
    [{"inner": {"n": 1}}],
], ids=["extra-key", "nested-extra-key", "missing-field", "nested-missing-field",
        "bool-for-int", "float-for-int", "int-for-float", "not-an-object"])
def test_decoder_refuses_a_value_that_does_not_fit(value):
    with pytest.raises(TypeError):
        decoder(_Outer)(value)


@pytest.mark.parametrize("hint", [tuple[str, str], tuple, list, object, Any, int | str,
                                  int | str | None])
def test_decoder_refuses_a_hint_it_cannot_check(hint):
    with pytest.raises(TypeError, match="no decoder"):
        decoder(hint)


def test_every_persisted_record_reads_back_as_written():
    """Each record kept on disk, populated in every field, decodes from its
    own JSON to itself: a field whose hint the decoder cannot check fails here."""
    verdict = VerdictRecord("r", "v", "fail", "check returned false", "c" * 64)
    records = [
        RunReport("r", "duo", "pipeline duo", "main", "run/duo/r", "b" * 64,
                  (NodeResult("t_a", "succeeded", "c" * 64),
                   NodeResult("t_b", "failed", error="EvalError: x")),
                  Outcome("conflict", MergeResult("conflict", "d" * 64, ("t_a",)),
                          "run/duo/r", ("v",), "why", ("t_a", "t_b")),
                  {"t_a": 1.5, "t_b": 2.0}, (verdict,)),
        Commit.make(["a" * 64, "b" * 64], {"t": "s" * 64}, "alice", "m", 7),
        AuditRecord(3, "alice", "WriteBranch:main", True, "granted by WriteBranch:*"),
        Trace({"n_agents": 1, "seed": 3}, "main", {"t": "s0"}, {"t": "s1"},
              {"c": {"t": "s1"}},
              [TraceEvent(1, 0, "scan", {"reads": [["t", "s1"]]})]),
    ]
    for record in records:
        assert decoder(type(record))(json.loads(json.dumps(asdict(record)))) == record


def unused_imports(path: Path) -> list[str]:
    """`path:line name` for each name a top-level import binds that the
    module never uses. A package's __init__.py re-exports, and an import
    marked `# noqa: F401` is kept on purpose, so neither is checked."""
    if path.name == "__init__.py":
        return []
    source = path.read_text("utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__" or \
                any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in used:
                unused.append(f"{path}:{node.lineno} {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    package = Path(__file__).resolve().parents[1] / "src" / "lakekernel"
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 20
    assert [u for m in modules for u in unused_imports(m)] == []
