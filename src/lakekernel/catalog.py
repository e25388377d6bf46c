"""Git-like versioned catalog over tables.

Commits are immutable nodes of a history DAG mapping table names to
snapshot ids; branches are mutable refs. Every ref move is decided under
the flock of the refs journal, caught up to its end, so it is a real
linearization point on disk shared by threads and processes alike. Each
move appends one line `<old|-> <new|-> <branch>` to that journal ("-":
absent), and a catalog replays only the lines appended since its last
read. A commit is one `<id> <body>` record of commits.log, appended
under the refs flock before the move that publishes it; the new tables a
commit brings are stored in that same section, after its head check. The
lock order is refs.log, then the snapshot store, then commits.log: no path
takes the store's flock before the refs flock, and a put never calls back
into the catalog. Branching and merging move references only — they never
touch snapshot content.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import re
import sys
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import MappingProxyType

from .errors import (
    BranchExists,
    CorruptRecord,
    LakeError,
    NoCommonAncestor,
    StaleHead,
    UnknownBranch,
    UnknownRef,
    UnknownSnapshot,
    UnknownTable,
)
from .store import HEX_ID_RE as _HEX_RE, SnapshotStore, TableData
from .util import Journal, Records, SystemClock, decoder
from .util import atomic_write  # noqa: F401  unused here; perfbench wraps catalog.atomic_write

_BRANCH_RE = re.compile(r"[a-z0-9_/.\-]+")


class _Delete:
    def __repr__(self):
        return "DELETE"


DELETE = _Delete()


@dataclass(frozen=True)
class Commit:
    id: str
    parents: tuple[str, ...]
    tables: dict[str, str]  # table name -> snapshot id
    author: str
    message: str
    timestamp: int

    def body_json(self) -> bytes:
        body = {
            "author": self.author,
            "message": self.message,
            "parents": list(self.parents),
            "tables": dict(sorted(self.tables.items())),
            "timestamp": self.timestamp,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode("utf-8")

    @staticmethod
    def make(parents, tables, author, message, timestamp) -> "Commit":
        c = Commit("", tuple(parents), dict(tables), author, message, timestamp)
        return Commit(sys.intern(hashlib.sha256(c.body_json()).hexdigest()),
                      c.parents, c.tables, author, message, timestamp)

    @staticmethod
    def from_body(commit_id: str, data: bytes) -> "Commit":
        """The commit whose body is `data`. A body that does not hash to
        `commit_id`, or is not a commit's, is CorruptRecord."""
        try:
            if hashlib.sha256(data).hexdigest() != commit_id:
                raise ValueError("its body does not hash to its id")
            return decoder(Commit)({**json.loads(data), "id": commit_id})
        except (ValueError, TypeError) as exc:
            raise CorruptRecord(f"commit {commit_id!r} is corrupt: {exc!r}") from None


@dataclass(frozen=True)
class ReadSession:
    """Immutable pin: every read resolves against `pinned`, never a live head."""

    pinned: str
    ref: str  # the ref string the session was opened from, for governance


@dataclass(frozen=True)
class MergeResult:
    kind: str  # fast_forward | merge_commit | conflict
    commit_id: str | None = None
    conflicts: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.kind in ("fast_forward", "merge_commit")


FAST_FORWARD = "fast_forward"
MERGE_COMMIT = "merge_commit"
CONFLICT = "conflict"

COMMIT_CACHE_SIZE = 256  # full commits kept; the cache is emptied when full
FIRST_PARENT_STEPS = 32  # how far merge_base's fast path looks down each head


def _apply_moves(refs: dict, journal: Path, chunk: bytes, _offset: int) -> None:
    try:
        for line in chunk.decode("utf-8").splitlines():
            _old, new, branch = line.split(" ")
            if new == "-":
                refs.pop(branch, None)
            else:
                refs[branch] = sys.intern(new)  # the string commits.log's index holds
    except ValueError as exc:  # not three fields, or not UTF-8
        raise CorruptRecord(f"{journal} holds a corrupt ref move: {exc}") from None


class Catalog:
    def __init__(self, root: Path, store: SnapshotStore, clock=None):
        self.root = Path(root)
        self.store = store
        self.clock = clock or SystemClock()
        self._refs: dict[str, str] = {}
        self._refs_view = MappingProxyType(self._refs)
        # the fold holds its dict, not self: no cycle keeps a dropped catalog alive
        refs_log = self.root / "refs.log"
        self._journal = Journal(refs_log, partial(_apply_moves, self._refs, refs_log))
        self._commits = Records(self.root / "commits.log")
        # The parent graph: commit id -> its parents' ids, for each commit
        # this catalog wrote or a walk reached. Commit ids are interned where
        # they are made and read back (the graph, the commits.log index
        # keys, the refs), so one string per commit serves every holder.
        # No lock on the graph or on the commit cache: a dict
        # get, set or clear is atomic (free-threaded CPython too), and two
        # threads that miss one id store equal values.
        self._graph: dict[str, tuple[str, ...]] = {}
        self._cache: dict[str, Commit] = {}

    # -- bootstrap ----------------------------------------------------------

    def init(self, author: str = "system") -> Commit:
        """Create the root commit and main branch if the catalog is fresh."""
        with self._locked_refs() as move:
            head = self._refs.get("main")
            if head is None:
                root = Commit.make([], {}, author, "root", self.clock.now())
                move("main", root.id, write=root)
                return root
        return self.get_commit(head)

    # -- refs ---------------------------------------------------------------

    @contextlib.contextmanager
    def _locked_refs(self):
        """Hold the refs journal's flock, caught up to its end, so the caller
        checks its precondition against every branch's current head. Yields
        move(branch, new, write=None): append `write` to commits.log, then
        move `branch` to `new` (None: delete it). commits.log is locked
        after refs.log (and after the store, in commit_tables), so a reader
        that sees a ref finds its commit."""
        with self._journal.locked() as append:
            def move(branch: str, new: str | None, write: Commit | None = None) -> None:
                if write is not None:
                    self._write_commit(write)
                old = self._refs.get(branch)
                append(f"{old or '-'} {new or '-'} {branch}".encode("utf-8"))

            yield move

    def _load_refs(self):
        """The refs as of the journal's end, as a live read-only view: look
        names up in it, never iterate it (branches() returns a copy)."""
        self._journal.catch_up()
        return self._refs_view

    def branches(self) -> dict:
        return self._journal.catch_up(lambda: dict(self._refs))

    def branch_exists(self, name: str) -> bool:
        return name in self._load_refs()

    def head(self, branch: str) -> str:
        refs = self._load_refs()
        if branch not in refs:
            raise UnknownBranch(f"no branch {branch!r}")
        return refs[branch]

    def resolve(self, ref: str) -> str:
        """Branch name or commit id -> commit id. No branch is named like a
        commit id, so a commit id resolves from commits.log alone."""
        if _HEX_RE.fullmatch(ref):
            if ref in self._commits:
                return ref
        elif ref in (refs := self._load_refs()):
            return refs[ref]
        raise UnknownRef(f"cannot resolve {ref!r}")

    def create_branch(self, name: str, from_ref: str) -> str:
        if not _BRANCH_RE.fullmatch(name) or _HEX_RE.fullmatch(name):
            raise LakeError(f"bad branch name {name!r}")
        target = self.resolve(from_ref)
        with self._locked_refs() as move:
            if name in self._refs:
                raise BranchExists(f"branch {name!r} exists")
            move(name, target)
        return target

    def delete_branch(self, name: str) -> bool:
        """Remove a ref; tolerant of a missing branch. main is permanent."""
        if name == "main":
            raise LakeError("cannot delete main")
        with self._locked_refs() as move:
            if name not in self._refs:
                return False
            move(name, None)
        return True

    # -- commits --------------------------------------------------------------

    def _write_commit(self, commit: Commit) -> None:
        self._commits.put(commit.id, commit.body_json())
        self._link(commit)
        self._remember(commit)

    def get_commit(self, commit_id: str) -> Commit:
        commit = self._cache.get(commit_id)
        if commit is None:
            commit = self._read_commit(commit_id)
            self._remember(commit)
        return commit

    def _remember(self, commit: Commit) -> None:
        # threads that race on a full cache may each add one entry past it
        if len(self._cache) >= COMMIT_CACHE_SIZE:
            self._cache.clear()
        self._cache[commit.id] = commit

    def _read_commit(self, commit_id: str) -> Commit:
        body = self._commits.get(commit_id)
        if body is None:
            raise UnknownRef(f"no commit {commit_id!r}")
        return Commit.from_body(commit_id, body)

    def commit_tables(self, branch: str, changes: dict, expected_head: str,
                      author: str, message: str) -> Commit:
        """Apply `changes` (a TableData, a snapshot id or DELETE per table)
        on top of expected_head's map and move `branch` to the new commit.
        All of it is decided under the refs flock: the head is checked first,
        the new map built from it, and only then is each TableData stored, so
        a commit refused for any reason stores nothing. Only a crash between
        a put and the move leaves a snapshot named by no commit."""
        with self._locked_refs() as move:
            found = self._refs.get(branch)
            if found is None:
                raise UnknownBranch(f"no branch {branch!r}")
            if found != expected_head:
                raise StaleHead(f"{branch} moved to {found[:12]}, "
                                f"expected {expected_head[:12]}")
            tables = dict(self.get_commit(expected_head).tables)
            for name, change in changes.items():
                if change is DELETE:
                    if name not in tables:
                        raise UnknownTable(f"cannot delete absent table {name!r}")
                    del tables[name]
                elif isinstance(change, TableData) or self.store.has_snapshot(change):
                    tables[name] = change
                else:
                    raise UnknownSnapshot(f"snapshot {change!r} not in store")
            for name, change in changes.items():
                if isinstance(change, TableData):
                    tables[name] = self.store.put_snapshot(change)
            commit = Commit.make([expected_head], tables, author, message, self.clock.now())
            move(branch, commit.id, write=commit)
        return commit

    # -- history --------------------------------------------------------------

    def log(self, ref: str) -> list[Commit]:
        """Reverse-chronological first-parent walk down to a root."""
        return list(self.walk(self.resolve(ref)))

    def walk(self, commit_id: str) -> Iterator[Commit]:
        """The first-parent chain from a resolved commit id, one commit at a
        time. A commit not in the cache is read without being cached, so a
        walk of the whole history holds one commit, where reading through
        the cache would keep up to COMMIT_CACHE_SIZE of them alive."""
        while True:
            commit = self._cache.get(commit_id)
            if commit is None:
                commit = self._read_commit(commit_id)
            yield commit
            if not commit.parents:
                return
            commit_id = commit.parents[0]

    def _link(self, commit: Commit) -> tuple[str, ...]:
        """Add the commit to the parent graph; returns its parent ids."""
        parents = tuple(map(sys.intern, commit.parents))
        self._graph[sys.intern(commit.id)] = parents
        return parents

    def _parents(self, commit_id: str) -> tuple[str, ...]:
        """The commit's parent ids, read from commits.log the first time a
        walk needs them (a commit this catalog did not write)."""
        parents = self._graph.get(commit_id)
        if parents is None:
            parents = self._link(self._read_commit(commit_id))
        return parents

    def merge_base(self, a: str, b: str) -> str:
        """A lowest common ancestor; ties resolved by greatest timestamp,
        then lexicographically smallest id.

        Fast path: if one head is within FIRST_PARENT_STEPS steps down the
        other's first-parent chain, every common ancestor is an ancestor of
        it, so it is the only lowest one. A run's publish onto a target that
        has not moved is this case.

        Otherwise, one breadth-first flag walk in the style of git
        merge-base over the parent graph, run until no flag changes: a
        commit reached from both heads and below no LCA found so far is
        found, and its ancestors are marked DNC, as none of them can be
        lowest. At the end every ancestor of a found commit carries DNC, so
        the found commits without it are exactly the maximal common
        ancestors.

        Both follow the parent graph and read no Commit, except the first
        time they reach a commit this catalog did not write; the walk then
        reads only the lowest commits, for the tie-break."""
        if a == b:
            return a
        for cid, other in ((a, b), (b, a)):
            for _ in range(FIRST_PARENT_STEPS):
                parents = self._parents(cid)
                if not parents:
                    break
                cid = parents[0]
                if cid == other:
                    return other
        ANC_A, ANC_B, DNC, LCA = 1, 2, 4, 8
        states = {a: ANC_A, b: ANC_B}
        work = deque([a, b])
        found = []
        while work:
            cid = work.popleft()
            flags = states[cid]
            if flags == ANC_A | ANC_B:  # common, and below no LCA found so far
                states[cid] = flags | LCA
                found.append(cid)
                flags |= DNC
            flags &= ~LCA  # the mark stays on the found commit
            for p in self._parents(cid):
                old = states.get(p, 0)
                if old | flags != old:
                    states[p] = old | flags
                    work.append(p)
        lowest = [c for c in found if not states[c] & DNC]
        if not lowest:
            raise NoCommonAncestor(f"{a[:12]} and {b[:12]} share no root")
        return min(lowest, key=lambda c: (-self.get_commit(c).timestamp, c))

    # -- reads ------------------------------------------------------------------

    def open_session(self, ref: str) -> ReadSession:
        return ReadSession(pinned=self.resolve(ref), ref=ref)

    def read_table(self, session: ReadSession, table: str) -> TableData:
        commit = self.get_commit(session.pinned)
        sid = commit.tables.get(table)
        if sid is None:
            raise UnknownTable(f"no table {table!r} at {session.pinned[:12]}")
        return self.store.get_snapshot(sid)

    def table_map(self, ref: str) -> dict:
        return dict(self.get_commit(self.resolve(ref)).tables)

    def diff(self, a: str, b: str) -> list[tuple[str, str]]:
        """Table-level diff from a to b: Added / Removed / Changed."""
        ma = self.table_map(a)
        mb = self.table_map(b)
        out = []
        for name in sorted(set(ma) | set(mb)):
            if name not in ma:
                out.append((name, "Added"))
            elif name not in mb:
                out.append((name, "Removed"))
            elif ma[name] != mb[name]:
                out.append((name, "Changed"))
        return out

    # -- merge --------------------------------------------------------------------

    def merge(self, source: str, target: str, author: str,
              message: str | None = None) -> MergeResult:
        """Three-way table-level merge of source into the target branch.

        Conflict granularity is the table: both sides changing the same
        table since the base aborts with no state change. Source and target
        are resolved, and the base, the merged map and the move decided,
        under the refs lock, so no other move can come between them.
        Performs zero snapshot-content reads or writes.
        """
        with self._locked_refs() as move:
            target_head = self._refs.get(target)
            if target_head is None:
                raise UnknownBranch(f"no branch {target!r}")
            source_head = self.resolve(source)
            base = self.merge_base(source_head, target_head)
            src_map = self.get_commit(source_head).tables
            tgt_map = self.get_commit(target_head).tables
            base_map = self.get_commit(base).tables
            merged: dict[str, str] = {}
            conflicts = []
            for name in sorted(set(src_map) | set(tgt_map) | set(base_map)):
                b, s, t = base_map.get(name), src_map.get(name), tgt_map.get(name)
                if b != s != t != b:  # both sides changed it, differently
                    conflicts.append(name)
                elif (pick := t if s == b else s) is not None:
                    merged[name] = pick
            if conflicts:
                return MergeResult(CONFLICT, conflicts=tuple(conflicts))
            if target_head == base:
                kind, new, commit = FAST_FORWARD, source_head, None
            else:
                commit = Commit.make([target_head, source_head], merged, author,
                                     message or f"merge into {target}", self.clock.now())
                kind, new = MERGE_COMMIT, commit.id
            move(target, new, write=commit)
        return MergeResult(kind, commit_id=new)
