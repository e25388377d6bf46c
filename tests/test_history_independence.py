"""Per-op costs that must not grow with the length of history.

Two seeded, fixed-clock lakes are built, one to a depth of H runs and one to
4H. Each row runs one op on both and compares deterministic counts (journal
bytes read, files opened), not time: a count that is equal at H and 4H does
not grow with history. Growth known today is a strict xfail naming the
ROADMAP item that removes it, so the change that removes it must drop the
mark.
"""
import builtins
import json
import os

import pytest

from conftest import count_journal_reads, make_kernel
from lakekernel.runner import MERGED, RunOptions
from lakekernel.store import SnapshotStore, TableData, encode_table, snapshot_id_of

H = 50

PIPE = """\
pipeline hist
node doubled:
  inputs: raw
  env: runtime=python3 packages=[]
  materialize: REPLACE
  query: SELECT k, x * 2 AS x FROM raw
"""


def _raw(i: int) -> TableData:
    return TableData.build(["k:int64", "x:int64"], [(1, i), (2, i + 1)])


@pytest.fixture(scope="module")
def lakes(tmp_path_factory):
    """{depth: kernel} for a lake of H runs and one of 4H, each run on a
    new source table, so every run stores new packed snapshots."""
    kernels = {}
    for depth in (H, 4 * H):
        kernel = make_kernel(tmp_path_factory.mktemp(f"depth{depth}") / "lake")
        for i in range(depth):
            kernel.commit_tables("main", {"raw": _raw(i)}, kernel.catalog.head("main"),
                                 "alice", f"raw {i}")
            report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
            assert report.outcome.kind == MERGED
        kernels[depth] = kernel
    return kernels


def _count_opens(monkeypatch, root) -> list:
    """Record every file opened under `root` from here on."""
    root = str(root)
    opened = []
    real_os_open, real_open = os.open, builtins.open

    def os_open(path, *args, **kwargs):
        if os.fspath(path).startswith(root):
            opened.append(os.fspath(path))
        return real_os_open(path, *args, **kwargs)

    def open_(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file).startswith(root):
            opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(builtins, "open", open_)
    return opened


def _counts(monkeypatch, kernel, op) -> tuple:
    """The bytes of each read of snapshots.log, and the names of the files
    opened under `kernel`'s data dir, while op() runs."""
    with monkeypatch.context() as m:
        reads = count_journal_reads(m, "snapshots.log")
        opened = _count_opens(m, kernel.data_dir)
        op()
    return reads, sorted(os.path.basename(p) for p in opened)


def test_a_packed_put_and_get_cost_the_same_at_h_and_4h(lakes, monkeypatch):
    """A warm store's put of a new small table appends with one catch-up
    under the flock that reads nothing, and its get reads one body."""
    table = TableData.build(["k:int64"], [(-1,)])
    rows = {}
    for depth, kernel in lakes.items():
        store = kernel.store
        put = _counts(monkeypatch, kernel, lambda: store.put_snapshot(table))
        sid = store.put_snapshot(table)
        get = _counts(monkeypatch, kernel, lambda: store.get_snapshot(sid))
        rows[depth] = put, get
    assert rows[H] == rows[4 * H]
    body = json.dumps(encode_table(table).decode(), ensure_ascii=False).encode()
    assert rows[H] == (([0, 0], ["snapshots.log"] * 2), ([len(body)], ["snapshots.log"]))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: a fresh store replays all of "
                                       "snapshots.log to index it before its first read")
def test_a_fresh_stores_first_packed_read_costs_the_same_at_h_and_4h(lakes, monkeypatch):
    sid = snapshot_id_of(_raw(0))  # in both lakes, at the same place
    rows = {}
    for depth, kernel in lakes.items():
        fresh = SnapshotStore(kernel.data_dir)
        rows[depth] = _counts(monkeypatch, kernel, lambda: fresh.get_snapshot(sid))
    assert rows[H][1] == rows[4 * H][1]  # the same files are opened
    assert rows[H] == rows[4 * H]  # but the replay reads the whole pack
