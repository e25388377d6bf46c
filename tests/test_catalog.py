import json
import random
import sys
import threading

import pytest

from conftest import child_env, count_journal_reads
from lakekernel.catalog import (
    COMMIT_CACHE_SIZE,
    CONFLICT,
    DELETE,
    FAST_FORWARD,
    FIRST_PARENT_STEPS,
    MERGE_COMMIT,
    Catalog,
    Commit,
)
from lakekernel.errors import (
    BranchExists,
    LakeError,
    NoCommonAncestor,
    StaleHead,
    UnknownBranch,
    UnknownRef,
    UnknownSnapshot,
    UnknownTable,
)
from lakekernel.store import SnapshotStore, TableData
from lakekernel.util import FixedClock, StepClock


def make_catalog(tmp_path, clock=None):
    store = SnapshotStore(tmp_path / "lake")
    cat = Catalog(tmp_path / "lake", store, clock or StepClock())
    cat.init()
    return cat, store


def snap(store, value) -> str:
    return store.put_snapshot(TableData.build(["v:int64"], [(value,)]))


def test_init_idempotent(tmp_path):
    cat, _ = make_catalog(tmp_path)
    root = cat.get_commit(cat.head("main"))
    assert cat.init().id == root.id
    assert root.parents == ()
    assert root.tables == {}


def test_commit_and_head(tmp_path):
    cat, store = make_catalog(tmp_path)
    s1 = snap(store, 1)
    c = cat.commit_tables("main", {"a": s1}, cat.head("main"), "alice", "add a")
    assert c.tables == {"a": s1}
    assert cat.head("main") == c.id


def test_commit_id_is_stable_hash_of_body(tmp_path):
    import hashlib
    cat, store = make_catalog(tmp_path)
    c = cat.commit_tables("main", {"a": snap(store, 1)}, cat.head("main"),
                          "alice", "msg")
    line = (tmp_path / "lake" / "commits.log").read_bytes().splitlines()[-1]
    assert line[:65] == f"{c.id} ".encode()
    on_disk = line[65:]
    assert hashlib.sha256(on_disk).hexdigest() == c.id
    body = json.loads(on_disk)
    assert sorted(body) == ["author", "message", "parents", "tables", "timestamp"]


def test_commit_unknown_snapshot(tmp_path):
    cat, _ = make_catalog(tmp_path)
    with pytest.raises(UnknownSnapshot):
        cat.commit_tables("main", {"a": "0" * 64}, cat.head("main"), "alice", "x")


def test_delete_table_and_delete_of_absent(tmp_path):
    cat, store = make_catalog(tmp_path)
    s1 = snap(store, 1)
    cat.commit_tables("main", {"a": s1}, cat.head("main"), "alice", "add")
    c = cat.commit_tables("main", {"a": DELETE}, cat.head("main"), "alice", "drop")
    assert c.tables == {}
    with pytest.raises(UnknownTable):
        cat.commit_tables("main", {"zzz": DELETE}, cat.head("main"), "alice", "x")


def test_stale_head_rejected(tmp_path):
    cat, store = make_catalog(tmp_path)
    old = cat.head("main")
    cat.commit_tables("main", {"a": snap(store, 1)}, old, "alice", "one")
    with pytest.raises(StaleHead):
        cat.commit_tables("main", {"a": snap(store, 2)}, old, "bob", "two")


def test_concurrent_cas_exactly_one_wins(tmp_path):
    cat, store = make_catalog(tmp_path)
    sids = [snap(store, i) for i in range(2)]
    for _ in range(100):
        head = cat.head("main")
        barrier = threading.Barrier(2)
        outcomes = [None, None]

        def contender(i):
            barrier.wait()
            try:
                cat.commit_tables("main", {"t": sids[i]}, head, f"w{i}", "race")
                outcomes[i] = "ok"
            except StaleHead:
                outcomes[i] = "stale"

        threads = [threading.Thread(target=contender, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["ok", "stale"]


def test_cross_process_cas_serializes_commits(tmp_path):
    """Two separate processes hammer the same branch; the on-disk CAS must
    serialize every commit without losing one."""
    import subprocess
    import sys

    cat, store = make_catalog(tmp_path)
    script = r"""
import sys
from lakekernel.catalog import Catalog
from lakekernel.errors import StaleHead
from lakekernel.store import SnapshotStore, TableData
from lakekernel.util import StepClock

root, worker = sys.argv[1], sys.argv[2]
store = SnapshotStore(root)
cat = Catalog(root, store, StepClock())
for i in range(10):
    sid = store.put_snapshot(TableData.build(["v:int64"], [(int(worker) * 100 + i,)]))
    while True:
        try:
            cat.commit_tables("main", {f"t_{worker}_{i}": sid},
                              cat.head("main"), f"w{worker}", "x")
            break
        except StaleHead:
            pass
"""
    procs = [subprocess.Popen([sys.executable, "-c", script,
                               str(tmp_path / "lake"), str(n)], env=child_env())
             for n in (1, 2)]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    assert len(cat.log("main")) == 21  # root + 2 x 10, none lost
    tables = cat.table_map("main")
    assert len(tables) == 20


_MERGER = r"""
import sys
from lakekernel.catalog import Catalog
from lakekernel.store import SnapshotStore, TableData
from lakekernel.util import StepClock

root, worker, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = SnapshotStore(root)
cat = Catalog(root, store, StepClock())
print("ready", flush=True)
sys.stdin.readline()  # start together
for i in range(rounds):
    branch = f"w{worker}/{i}"
    cat.create_branch(branch, "main")
    sid = store.put_snapshot(TableData.build(["v:int64"], [(int(worker) * 100 + i,)]))
    cat.commit_tables(branch, {f"t_{worker}_{i}": sid}, cat.head(branch), branch, "x")
    kind = cat.merge(branch, "main", branch).kind
    if kind not in ("fast_forward", "merge_commit"):
        sys.exit(f"{branch}: {kind}")
"""


def test_concurrent_merges_each_publish_under_the_lock(tmp_path):
    """Threads on one catalog branch, commit and merge distinct tables into
    main; every merge lands, with no retry by the caller."""
    cat, store = make_catalog(tmp_path)
    kinds, errors = [], []

    def merger(worker):
        try:
            for i in range(25):
                branch = f"w{worker}/{i}"
                cat.create_branch(branch, "main")
                sid = snap(store, worker * 100 + i)
                cat.commit_tables(branch, {f"t_{worker}_{i}": sid}, cat.head(branch), "x", "t")
                kinds.append(cat.merge(branch, "main", "x").kind)
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=merger, args=(n,)) for n in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside the locked section too
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(kinds) == 100 and set(kinds) <= {FAST_FORWARD, MERGE_COMMIT}
    assert sorted(cat.table_map("main")) == sorted(
        f"t_{w}_{i}" for w in range(4) for i in range(25))


def test_cross_process_merges_each_publish_under_the_lock(tmp_path):
    import subprocess

    cat, _ = make_catalog(tmp_path)
    procs = [subprocess.Popen([sys.executable, "-c", _MERGER, str(tmp_path / "lake"),
                               str(n), "10"], env=child_env(), text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for n in (1, 2)]
    try:
        for proc in procs:
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.close()
        for proc in procs:
            assert proc.wait(timeout=60) == 0
    finally:
        for proc in procs:
            proc.kill()
            proc.stdout.close()
    assert sorted(cat.table_map("main")) == sorted(
        f"t_{w}_{i}" for w in (1, 2) for i in range(10))


def _files(root):  # a rewrite by rename shows as a new inode
    return {p.relative_to(root).as_posix(): (p.stat().st_ino, p.read_bytes())
            for p in root.rglob("*") if p.is_file()}


def test_ref_move_appends_one_line_and_rewrites_nothing_else(tmp_path):
    cat, store = make_catalog(tmp_path)
    for i in range(30):  # history length must not change what a move writes
        cat.commit_tables("main", {"a": snap(store, i)}, cat.head("main"), "alice", "x")
    cat.create_branch("run/duo/8a0d7c3e-5f1b-4c2a-9e6d-0b1f2a3c4d5e", "main")
    root = tmp_path / "lake"
    old_head = cat.head("main")
    sid = snap(store, 99)
    before = _files(root)
    commit = cat.commit_tables("main", {"a": sid}, old_head, "alice", "y")
    after = _files(root)
    line = f"{old_head} {commit.id} main\n".encode()
    (ino, old), (ino_after, new) = before.pop("refs.log"), after.pop("refs.log")
    assert ino_after == ino and new == old + line
    (ino, old), (ino_after, new) = before.pop("commits.log"), after.pop("commits.log")
    assert ino_after == ino
    assert new == old + f"{commit.id} ".encode() + commit.body_json() + b"\n"
    assert after == before  # no other file written, renamed or removed
    # a move of the longest-named ref in the lake is still one short line
    run, = [b for b in cat.branches() if b.startswith("run/")]
    cat.delete_branch(run)
    last = (root / "refs.log").read_bytes().splitlines()[-1]
    assert last == f"{old_head} - {run}".encode() and len(last) < 200


def test_torn_refs_log_tail_is_ignored_then_truncated(tmp_path):
    """A writer that crashed mid-append leaves a line with no newline:
    readers skip it, and the next ref move cuts it off before appending."""
    cat, store = make_catalog(tmp_path)
    c = cat.commit_tables("main", {"a": snap(store, 1)}, cat.head("main"), "alice", "x")
    cat.create_branch("dev", "main")
    log = tmp_path / "lake" / "refs.log"
    intact = log.read_bytes()
    with open(log, "ab") as fh:
        fh.write(f"{c.id} {'e' * 32}".encode())  # torn: no new head, no newline
    fresh = Catalog(tmp_path / "lake", store, StepClock(10))
    assert fresh.branches() == {"main": c.id, "dev": c.id}
    assert cat.head("main") == c.id
    d = fresh.commit_tables("dev", {"b": snap(store, 2)}, c.id, "bob", "y")
    assert log.read_bytes() == intact + f"{c.id} {d.id} dev\n".encode()
    for reader in (cat, Catalog(tmp_path / "lake", store, StepClock())):
        assert reader.branches() == {"main": c.id, "dev": d.id}
        assert reader.resolve("dev") == d.id


def test_torn_commits_log_tail_is_ignored_then_truncated(tmp_path):
    cat, store = make_catalog(tmp_path)
    c = cat.commit_tables("main", {"a": snap(store, 1)}, cat.head("main"), "alice", "x")
    log = tmp_path / "lake" / "commits.log"
    intact = log.read_bytes()
    with open(log, "ab") as fh:
        fh.write(f"{'e' * 64} {{\"author\"".encode())  # torn: no body end, no newline
    fresh = Catalog(tmp_path / "lake", store, StepClock(10))
    assert fresh.get_commit(c.id) == c
    with pytest.raises(UnknownRef):
        fresh.resolve("e" * 64)
    d = fresh.commit_tables("main", {"b": snap(store, 2)}, c.id, "bob", "y")
    assert log.read_bytes() == intact + f"{d.id} ".encode() + d.body_json() + b"\n"
    for reader in (cat, Catalog(tmp_path / "lake", store, StepClock())):
        assert reader.get_commit(d.id) == d
        assert reader.log("main") == [d, c, cat.get_commit(c.parents[0])]


def test_catalog_reads_a_commit_written_after_its_last_catch_up(tmp_path, monkeypatch):
    """A commit another catalog appended is found by catching up commits.log
    alone: resolving and reading it by id never reads refs.log."""
    cat, store = make_catalog(tmp_path)
    first = cat.commit_tables("main", {"a": snap(store, 1)}, cat.head("main"), "alice", "x")
    other = Catalog(tmp_path / "lake", store, StepClock(100))
    assert other.get_commit(first.id) == first  # caught up to the end
    c = cat.commit_tables("main", {"a": snap(store, 2)}, first.id, "alice", "y")
    reads = count_journal_reads(monkeypatch, "refs.log")
    assert other.resolve(c.id) == c.id
    assert other.get_commit(c.id) == c
    assert reads == []


def test_resolving_a_commit_id_reads_no_commit_body(tmp_path, monkeypatch):
    """A fresh catalog resolves a commit id with one catch-up of commits.log
    and reads its body only when the commit itself is asked for."""
    cat, store = make_catalog(tmp_path)
    c = cat.commit_tables("main", {"a": snap(store, 1)}, cat.head("main"), "alice", "x")
    fresh = Catalog(tmp_path / "lake", store, StepClock(100))
    reads = count_journal_reads(monkeypatch, "commits.log")
    assert fresh.resolve(c.id) == c.id
    assert reads == [(tmp_path / "lake" / "commits.log").stat().st_size]
    assert fresh.get_commit(c.id) == c
    assert reads[1:] == [len(c.body_json())]


def test_rewriting_a_commit_appends_nothing(tmp_path):
    root = tmp_path / "lake"
    store = SnapshotStore(root)
    cat = Catalog(root, store, FixedClock(0))
    cat.init()
    assert not (root / "commits").exists()  # one journal, no file per commit
    cat.create_branch("dev", "main")
    head, sid = cat.head("main"), snap(store, 1)
    c = cat.commit_tables("main", {"a": sid}, head, "alice", "x")
    log = root / "commits.log"
    size = log.stat().st_size
    d = cat.commit_tables("dev", {"a": sid}, head, "alice", "x")  # the same body
    assert d.id == c.id and log.stat().st_size == size
    other = Catalog(root, store, FixedClock(0))  # has read nothing yet
    other._write_commit(c)
    assert log.stat().st_size == size
    assert len(log.read_bytes().splitlines()) == 2  # root and c


def test_threads_on_two_catalogs_append_each_commit_once(tmp_path):
    """Threads sharing one catalog and threads on a second one commit at
    once; commits.log ends with exactly one line per commit, and a fresh
    catalog reads every one of them."""
    import sys

    cat, store = make_catalog(tmp_path)
    cats = [cat, Catalog(tmp_path / "lake", store, StepClock(1000))]
    made = [[] for _ in range(6)]

    def writer(i):
        c = cats[i % 2]
        branch = f"w{i}"
        head = c.create_branch(branch, "main")
        for n in range(15):
            head = c.commit_tables(branch, {"t": snap(store, i * 100 + n)}, head,
                                   f"w{i}", "x").id
            made[i].append(head)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    ids = [line[:64] for line in
           (tmp_path / "lake" / "commits.log").read_text().splitlines()]
    assert len(ids) == len(set(ids)) == 1 + 6 * 15
    fresh = Catalog(tmp_path / "lake", store, StepClock())
    for i, heads in enumerate(made):
        assert [c.id for c in fresh.log(f"w{i}")][:15] == heads[::-1]


def test_warm_catalog_reads_only_appended_bytes(tmp_path, monkeypatch):
    import os

    cat, store = make_catalog(tmp_path)
    for i in range(20):
        cat.commit_tables("main", {"a": snap(store, i)}, cat.head("main"), "alice", "x")
    other = Catalog(tmp_path / "lake", store, StepClock(100))  # another process's view
    log = tmp_path / "lake" / "refs.log"
    size = log.stat().st_size
    head = other.head("main")
    commit = other.commit_tables("main", {"a": snap(store, 50)}, head, "bob", "y")
    real_pread = os.pread
    preads = []

    def pread(fd, n, offset):
        preads.append((n, offset))
        return real_pread(fd, n, offset)

    monkeypatch.setattr(os, "pread", pread)
    assert cat.head("main") == commit.id
    assert preads == [(log.stat().st_size - size, size)]
    assert cat.head("main") == commit.id  # nothing new: nothing read
    assert len(preads) == 1


def test_branches(tmp_path):
    cat, store = make_catalog(tmp_path)
    cat.commit_tables("main", {"a": snap(store, 1)}, cat.head("main"), "alice", "x")
    head = cat.create_branch("dev", "main")
    assert head == cat.head("main")
    assert cat.head("dev") == head
    with pytest.raises(BranchExists):
        cat.create_branch("dev", "main")
    with pytest.raises(UnknownRef):
        cat.create_branch("dev2", "nope")
    assert cat.delete_branch("dev") is True
    assert cat.delete_branch("dev") is False  # tolerant second delete


def test_branch_from_commit_id_and_resolve(tmp_path):
    cat, store = make_catalog(tmp_path)
    c = cat.commit_tables("main", {"a": snap(store, 1)}, cat.head("main"),
                          "alice", "x")
    cat.create_branch("pin", c.id)
    assert cat.resolve("pin") == c.id
    assert cat.resolve(c.id) == c.id
    with pytest.raises(UnknownRef):
        cat.resolve("f" * 64)


def test_commit_id_names_no_branch_and_resolves_without_refs(tmp_path, monkeypatch):
    """A 64-hex ref is always a commit id: no branch may take such a name,
    so resolving one checks the commit file and never reads refs.json."""
    cat, store = make_catalog(tmp_path)
    c = cat.commit_tables("main", {"a": snap(store, 1)}, cat.head("main"),
                          "alice", "x")
    for name in (c.id, "0" * 64, "dev\n"):
        with pytest.raises(LakeError, match="bad branch name"):
            cat.create_branch(name, "main")
    assert c.id not in cat.branches()
    reads = count_journal_reads(monkeypatch, "refs.log")
    assert cat.resolve(c.id) == c.id
    assert cat.open_session(c.id).pinned == c.id
    with pytest.raises(UnknownRef):
        cat.resolve("f" * 64)
    assert reads == []
    assert cat.resolve("main") == c.id
    assert len(reads) == 1


def test_branch_creation_is_zero_data_io(tmp_path):
    cat, store = make_catalog(tmp_path)
    for i in range(20):
        cat.commit_tables("main", {f"t{i}": snap(store, i)}, cat.head("main"),
                          "alice", "seed")
    before = store.io_counters()
    cat.create_branch("dev", "main")
    merged = cat.merge("dev", "main", "alice")
    assert merged.kind == FAST_FORWARD
    assert store.io_counters() == before


def test_pinned_session_survives_updates(tmp_path):
    cat, store = make_catalog(tmp_path)
    s500 = store.put_snapshot(TableData.build(["amount:int64"], [(500,)]))
    cat.commit_tables("main", {"b": s500}, cat.head("main"), "u2", "b=500")
    session = cat.open_session("main")
    s300 = store.put_snapshot(TableData.build(["amount:int64"], [(300,)]))
    cat.commit_tables("main", {"b": s300}, cat.head("main"), "u2", "b=300")
    assert cat.read_table(session, "b").rows == ((500,),)
    for i in range(10):
        cat.commit_tables("main", {"b": snap(store, i)}, cat.head("main"), "w", "n")
    assert cat.read_table(session, "b").rows == ((500,),)
    with pytest.raises(UnknownTable):
        cat.read_table(session, "nope")


def test_log_walk(tmp_path):
    cat, store = make_catalog(tmp_path)
    assert len(cat.log("main")) == 1  # root only
    for i in range(4):
        cat.commit_tables("main", {"a": snap(store, i)}, cat.head("main"),
                          "alice", f"c{i}")
    log = cat.log("main")
    assert len(log) == 5
    assert [c.message for c in log[:4]] == ["c3", "c2", "c1", "c0"]


def test_walk_yields_the_log_and_caches_nothing(tmp_path):
    cat, store = make_catalog(tmp_path)
    for i in range(4):
        cat.commit_tables("main", {"a": snap(store, i)}, cat.head("main"),
                          "alice", f"c{i}")
    fresh = Catalog(tmp_path / "lake", store)
    walk = fresh.walk(fresh.head("main"))
    assert [c.id for c in walk] == [c.id for c in cat.log("main")]
    assert fresh._cache == {}


def test_commit_cache_stays_within_its_bound(tmp_path):
    cat, store = make_catalog(tmp_path)
    sids = [snap(store, 0), snap(store, 1)]
    for i in range(COMMIT_CACHE_SIZE + 44):
        cat.commit_tables("main", {"a": sids[i % 2]}, cat.head("main"), "alice", f"c{i}")
        assert len(cat._cache) <= COMMIT_CACHE_SIZE
    log = cat.log("main")
    fresh = Catalog(tmp_path / "lake", store)
    sizes = []
    for commit in log:
        assert fresh.get_commit(commit.id) == commit
        sizes.append(len(fresh._cache))
    assert len(log) > COMMIT_CACHE_SIZE and max(sizes) == COMMIT_CACHE_SIZE


def test_log_follows_first_parent_through_merges(tmp_path):
    cat, store = make_catalog(tmp_path)
    cat.commit_tables("main", {"a": snap(store, 0)}, cat.head("main"), "a", "base")
    cat.create_branch("side", "main")
    cat.commit_tables("side", {"b": snap(store, 1)}, cat.head("side"), "a", "side")
    cat.commit_tables("main", {"c": snap(store, 2)}, cat.head("main"), "a", "mainline")
    result = cat.merge("side", "main", "a")
    assert result.kind == MERGE_COMMIT
    messages = [c.message for c in cat.log("main")]
    # first-parent walk stays on the mainline, never descends into "side"
    assert "side" not in messages
    assert messages[0].startswith("merge")
    assert "mainline" in messages


# --- diff --------------------------------------------------------------------

def test_diff_trivial_and_changed(tmp_path):
    cat, store = make_catalog(tmp_path)
    cat.commit_tables("main", {"a": snap(store, 1)}, cat.head("main"), "x", "a")
    assert cat.diff("main", "main") == []
    cat.create_branch("dev", "main")
    cat.commit_tables("dev", {"a": snap(store, 2)}, cat.head("dev"), "x", "a2")
    assert cat.diff("main", "dev") == [("a", "Changed")]


def test_diff_matches_set_algebra_oracle(tmp_path):
    cat, store = make_catalog(tmp_path)
    rng = random.Random(5)
    sids = [snap(store, i) for i in range(6)]
    names = ["t1", "t2", "t3", "t4"]
    commits = []
    for i in range(12):
        head = cat.head("main")
        current = cat.get_commit(head).tables
        changes = {}
        name = rng.choice(names)
        if name in current and rng.random() < 0.3:
            changes[name] = DELETE
        else:
            changes[name] = rng.choice(sids)
        try:
            commits.append(cat.commit_tables("main", changes, head, "x", f"m{i}"))
        except UnknownTable:
            pass
    for _ in range(20):
        a = rng.choice(commits)
        b = rng.choice(commits)
        got = cat.diff(a.id, b.id)
        expected = []
        for name in sorted(set(a.tables) | set(b.tables)):
            if name not in a.tables:
                expected.append((name, "Added"))
            elif name not in b.tables:
                expected.append((name, "Removed"))
            elif a.tables[name] != b.tables[name]:
                expected.append((name, "Changed"))
        assert got == expected


# --- merge base -----------------------------------------------------------------

def ancestors(cat, cid) -> set:
    out = set()
    stack = [cid]
    while stack:
        c = stack.pop()
        if c in out:
            continue
        out.add(c)
        stack.extend(cat.get_commit(c).parents)
    return out


def lca_oracle(cat, a, b):
    """Exhaustive: intersect full ancestor sets, keep the maximal elements,
    apply the (greatest timestamp, smallest id) tie-break."""
    common = ancestors(cat, a) & ancestors(cat, b)
    if not common:
        return None
    maximal = [c for c in common
               if not any(d != c and c in ancestors(cat, d) for d in common)]
    return min(maximal, key=lambda c: (-cat.get_commit(c).timestamp, c))


def test_merge_base_identity_and_linear(tmp_path):
    cat, store = make_catalog(tmp_path)
    a = cat.commit_tables("main", {"t": snap(store, 1)}, cat.head("main"), "x", "a")
    b = cat.commit_tables("main", {"t": snap(store, 2)}, cat.head("main"), "x", "b")
    c = cat.commit_tables("main", {"t": snap(store, 3)}, cat.head("main"), "x", "c")
    assert cat.merge_base(b.id, b.id) == b.id
    assert cat.merge_base(b.id, c.id) == b.id
    assert cat.merge_base(a.id, c.id) == a.id


def test_merge_base_disjoint_roots(tmp_path):
    store = SnapshotStore(tmp_path / "lake")
    cat = Catalog(tmp_path / "lake", store, StepClock())
    r1 = Commit.make([], {}, "x", "root1", 1)
    r2 = Commit.make([], {}, "x", "root2", 2)
    cat._write_commit(r1)
    cat._write_commit(r2)
    with pytest.raises(NoCommonAncestor):
        cat.merge_base(r1.id, r2.id)


def _random_dag(cat, store, rng, n_commits):
    """Random commit DAG built through the real API: commits on random
    branches plus occasional cross-branch merge commits."""
    ids = [cat.head("main")]
    for i in range(n_commits):
        if len(ids) >= 2 and rng.random() < 0.3:
            p1, p2 = rng.sample(ids, 2)
            c = Commit.make([p1, p2], {}, "x", f"merge{i}", cat.clock.now())
        else:
            c = Commit.make([rng.choice(ids)], {"t": snap(store, i)}, "x",
                            f"c{i}", cat.clock.now())
        cat._write_commit(c)
        ids.append(c.id)
    return ids


def test_merge_base_drops_a_common_ancestor_found_above_a_lower_one(tmp_path):
    """x is a parent of both heads, so the breadth-first walk finds it at
    depth 1; y, a child of x six commits below both chains, is the LCA. x
    has the later timestamp, so the tie-break alone would pick it."""
    cat, store = make_catalog(tmp_path)

    def commit(*parents, timestamp=None):
        c = Commit.make(parents, {}, "x", "c", timestamp or cat.clock.now())
        cat._write_commit(c)
        return c.id

    x = commit(cat.head("main"), timestamp=10**6)
    y = commit(x)
    tops = [y, y]
    for _ in range(6):
        tops = [commit(top) for top in tops]
    a, b = (commit(top, x) for top in tops)
    assert cat.merge_base(a, b) == y
    assert lca_oracle(cat, a, b) == y


@pytest.mark.parametrize("clock", [StepClock, lambda: FixedClock(0)],
                         ids=["StepClock", "FixedClock"])
def test_merge_base_matches_oracle_on_random_dags(tmp_path, clock):
    # under FixedClock every timestamp ties, so the id decides the tie-break
    cat, store = make_catalog(tmp_path, clock())
    rng = random.Random(2024)
    for trial in range(30):
        ids = _random_dag(cat, store, rng, rng.randint(3, 50))
        for _ in range(10):
            a, b = rng.choice(ids), rng.choice(ids)
            assert cat.merge_base(a, b) == lca_oracle(cat, a, b), (trial, a, b)


def test_first_parent_fast_path_agrees_with_the_oracle(tmp_path):
    """The fast path's edge cases, each checked against the exhaustive
    oracle on this catalog and on a fresh one over the same directory."""
    cat, store = make_catalog(tmp_path)

    def commit(*parents, tables=None):
        c = Commit.make(parents, tables or {}, "x", "c", cat.clock.now())
        cat._write_commit(c)
        return c.id

    root = cat.head("main")
    base = root
    for _ in range(2 * FIRST_PARENT_STEPS):  # history that only a walk visits
        base = commit(base)
    chain = [commit(base)]  # chain[i] is FIRST_PARENT_STEPS + 1 - i steps below tip
    for i in range(FIRST_PARENT_STEPS + 1):
        chain.append(commit(chain[-1], tables={"t": snap(store, i)}))
    tip = chain[-1]
    side_tip = commit(commit(chain[0]))
    # the other head reachable only through a second parent
    near = commit(side_tip, chain[-2])
    far = commit(side_tip, chain[1])
    cases = [
        (tip, chain[-2]),  # first-parent distance 1
        (tip, chain[1]),  # distance FIRST_PARENT_STEPS
        (tip, chain[0]),  # distance FIRST_PARENT_STEPS + 1: the walk decides
        (near, chain[-2]),
        (far, chain[1]),
        (chain[1], tip),  # the source an ancestor of the target
        (root, tip),
        (tip, tip),  # identical heads
        (near, tip),  # neither head on the other's chain
        (side_tip, near),
    ]
    oracle = [lca_oracle(cat, a, b) for a, b in cases]
    assert oracle[:3] == [chain[-2], chain[1], chain[0]]
    assert oracle[5:8] == [chain[1], root, tip]
    warm = [cat.merge_base(a, b) for a, b in cases]
    fresh = Catalog(tmp_path / "lake", store, StepClock())
    cold = [fresh.merge_base(a, b) for a, b in cases]
    assert warm == cold == oracle

    # within the steps, from either head, the fast path answers with no walk
    parents = cat._parents
    calls = []
    cat._parents = lambda cid: calls.append(cid) or parents(cid)
    for (a, b), fast in zip(cases[:3] + cases[5:6], (True, True, False, True)):
        calls.clear()
        cat.merge_base(a, b)
        assert (len(calls) <= 2 * FIRST_PARENT_STEPS) == fast, (a, b, len(calls))


def test_threads_on_a_cold_catalog_read_what_one_thread_reads(tmp_path):
    cat, store = make_catalog(tmp_path)
    rng = random.Random(7)
    ids = _random_dag(cat, store, rng, 300)
    pairs = [(rng.choice(ids), rng.choice(ids)) for _ in range(40)]
    bases = [cat.merge_base(a, b) for a, b in pairs]
    commits = [cat.get_commit(c) for c in ids]
    cold = Catalog(tmp_path / "lake", store, StepClock())  # has read no commit
    start = threading.Barrier(4)
    seen = []

    def reader(shift):
        start.wait()
        order = ids[shift:] + ids[:shift]
        seen.append(([cold.merge_base(a, b) for a, b in pairs],
                     {c: cold.get_commit(c) for c in order}))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as CPython will
    try:
        threads = [threading.Thread(target=reader, args=(75 * i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(seen) == 4
    for got_bases, got_commits in seen:
        assert got_bases == bases
        assert [got_commits[c] for c in ids] == commits


# --- three-way merge -----------------------------------------------------------

def merge_oracle(base, src, tgt):
    """Brute-force per-table three-way merge over raw table maps."""
    merged = {}
    conflicts = []
    for name in sorted(set(base) | set(src) | set(tgt)):
        b, s, t = base.get(name), src.get(name), tgt.get(name)
        if s == b:
            pick = t
        elif t == b:
            pick = s
        elif s == t:
            pick = s
        else:
            conflicts.append(name)
            continue
        if pick is not None:
            merged[name] = pick
    return merged, conflicts


def test_merge_fast_forward_noop(tmp_path):
    cat, store = make_catalog(tmp_path)
    cat.commit_tables("main", {"a": snap(store, 1)}, cat.head("main"), "x", "a")
    cat.create_branch("dev", "main")
    result = cat.merge("dev", "main", "x")
    assert result.kind == FAST_FORWARD
    assert result.commit_id == cat.head("main")


def test_merge_conflict_leaves_state_untouched(tmp_path):
    cat, store = make_catalog(tmp_path)
    cat.commit_tables("main", {"a": snap(store, 0)}, cat.head("main"), "x", "base")
    cat.create_branch("dev", "main")
    cat.commit_tables("dev", {"a": snap(store, 1)}, cat.head("dev"), "x", "dev a")
    cat.commit_tables("main", {"a": snap(store, 2)}, cat.head("main"), "x", "main a")
    before = cat.head("main")
    result = cat.merge("dev", "main", "x")
    assert result.kind == CONFLICT
    assert result.conflicts == ("a",)
    assert cat.head("main") == before


def test_merge_publishes_both_tables_atomically(tmp_path):
    cat, store = make_catalog(tmp_path)
    cat.commit_tables("main", {"src": snap(store, 0)}, cat.head("main"), "x", "seed")
    cat.create_branch("run1", "main")
    sa, sb = snap(store, 10), snap(store, 11)
    cat.commit_tables("run1", {"a2": sa}, cat.head("run1"), "x", "a")
    cat.commit_tables("run1", {"b2": sb}, cat.head("run1"), "x", "b")
    head_before = cat.head("main")
    result = cat.merge("run1", "main", "x")
    assert result.ok
    after = cat.get_commit(cat.head("main")).tables
    assert after["a2"] == sa and after["b2"] == sb
    # the intermediate state (a2 without b2) was never a main head
    assert cat.get_commit(head_before).tables.get("a2") is None


def test_merge_matches_oracle_on_random_histories(tmp_path):
    cat, store = make_catalog(tmp_path)
    rng = random.Random(31337)
    sids = [snap(store, i) for i in range(40)]
    names = ["t1", "t2", "t3"]
    for trial in range(120):
        branch_src = f"src{trial}"
        branch_tgt = f"tgt{trial}"
        base_map = {n: rng.choice(sids) for n in names if rng.random() < 0.7}
        changes = dict(base_map)
        for n in names:  # drop leftovers from the previous trial
            if n not in base_map and n in cat.table_map("main"):
                changes[n] = DELETE
        if changes:
            base = cat.commit_tables("main", changes, cat.head("main"), "x",
                                     f"base{trial}")
        else:
            base = cat.get_commit(cat.head("main"))
        cat.create_branch(branch_src, base.id)
        cat.create_branch(branch_tgt, base.id)
        for branch in (branch_src, branch_tgt):
            changes = {}
            for n in names:
                r = rng.random()
                if r < 0.3 and n in base_map:
                    changes[n] = DELETE
                elif r < 0.6:
                    changes[n] = rng.choice(sids)
            if changes:
                cat.commit_tables(branch, changes, cat.head(branch), "x", "mut")
        src_map = cat.table_map(branch_src)
        tgt_map = cat.table_map(branch_tgt)
        expected_map, expected_conflicts = merge_oracle(
            cat.table_map(base.id), src_map, tgt_map)
        before = cat.head(branch_tgt)
        result = cat.merge(branch_src, branch_tgt, "x")
        if expected_conflicts:
            assert result.kind == CONFLICT
            assert list(result.conflicts) == expected_conflicts
            assert cat.head(branch_tgt) == before
        else:
            assert result.ok
            assert cat.table_map(branch_tgt) == expected_map


def test_merge_unknown_target(tmp_path):
    cat, _ = make_catalog(tmp_path)
    with pytest.raises(UnknownBranch):
        cat.merge("main", "nope", "x")


def test_refused_merges_append_nothing(tmp_path):
    cat, store = make_catalog(tmp_path)
    cat.commit_tables("main", {"a": snap(store, 0)}, cat.head("main"), "x", "base")
    cat.create_branch("dev", "main")
    cat.commit_tables("dev", {"a": snap(store, 1)}, cat.head("dev"), "x", "dev a")
    cat.commit_tables("main", {"a": snap(store, 2)}, cat.head("main"), "x", "main a")
    root = tmp_path / "lake"
    before = [(root / name).read_bytes() for name in ("refs.log", "commits.log")]
    with pytest.raises(UnknownBranch):
        cat.merge("dev", "nope", "x")
    assert cat.merge("dev", "main", "x").kind == CONFLICT
    assert [(root / name).read_bytes() for name in ("refs.log", "commits.log")] == before


def test_governed_merge_reads_refs_at_most_three_times(kernel, monkeypatch):
    """One read to resolve the source and one as the merge takes the refs
    lock: two, inside the bound."""
    sid = kernel.store.put_snapshot(TableData.build(["v:int64"], [(1,)]))
    kernel.create_branch("dev", "main", "alice")
    kernel.commit_tables("dev", {"t": sid}, kernel.catalog.head("dev"), "alice", "t")
    reads = count_journal_reads(monkeypatch, "refs.log")
    assert kernel.merge("dev", "main", "alice").kind == FAST_FORWARD
    assert len(reads) <= 3


def test_cas_chain_linearization(tmp_path):
    """Every new head has the previous head among its parents (or is a
    fast-forward descendant)."""
    cat, store = make_catalog(tmp_path)
    heads = [cat.head("main")]
    for i in range(5):
        cat.commit_tables("main", {"a": snap(store, i)}, cat.head("main"), "x", "c")
        heads.append(cat.head("main"))
    cat.create_branch("dev", heads[-1])
    cat.commit_tables("dev", {"b": snap(store, 100)}, cat.head("dev"), "x", "d")
    cat.merge("dev", "main", "x")
    heads.append(cat.head("main"))
    for prev, new in zip(heads, heads[1:]):
        commit = cat.get_commit(new)
        ok = prev in commit.parents or prev in ancestors(cat, new)
        assert ok
