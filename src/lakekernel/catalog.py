"""Git-like versioned catalog over tables.

Commits are immutable nodes of a history DAG mapping table names to
snapshot ids; branches are mutable refs advanced only by compare-and-swap
under the flock of the refs journal, so the CAS is a real linearization
point on disk shared by threads and processes alike. Each move appends one
line `<old|-> <new|-> <branch>` to that journal ("-": absent), and a
catalog replays only the lines appended since its last read. A commit is
one line `<id> <body>` of a second journal, appended under the refs flock
before the move that publishes it. Branching and merging move references
only — they never touch snapshot content.
"""
from __future__ import annotations

import hashlib
import json
import re
import threading
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from types import MappingProxyType

from .errors import (
    BranchExists,
    LakeError,
    NoCommonAncestor,
    StaleHead,
    UnknownBranch,
    UnknownRef,
    UnknownSnapshot,
    UnknownTable,
)
from .store import SnapshotStore, TableData
# atomic_write is unused here but stays importable: perfbench wraps catalog.atomic_write
from .util import Journal, SystemClock, atomic_write  # noqa: F401

_BRANCH_RE = re.compile(r"[a-z0-9_/.\-]+")
_HEX_RE = re.compile(r"[0-9a-f]{64}")


class _Delete:
    def __repr__(self):
        return "DELETE"


DELETE = _Delete()


@dataclass(frozen=True)
class Commit:
    id: str
    parents: tuple[str, ...]
    tables: dict  # table name -> snapshot id
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
        return Commit(hashlib.sha256(c.body_json()).hexdigest(),
                      c.parents, c.tables, author, message, timestamp)

    @staticmethod
    def from_body(commit_id: str, data: bytes) -> "Commit":
        body = json.loads(data)
        return Commit(commit_id, tuple(body["parents"]), dict(body["tables"]),
                      body["author"], body["message"], body["timestamp"])


@dataclass(frozen=True)
class ReadSession:
    """Immutable pin: every read resolves against `pinned`, never a live head."""

    pinned: str
    ref: str  # the ref string the session was opened from, for governance


@dataclass(frozen=True)
class MergeResult:
    kind: str  # fast_forward | merge_commit | conflict | ref_raced
    commit_id: str | None = None
    conflicts: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return self.kind in ("fast_forward", "merge_commit")


FAST_FORWARD = "fast_forward"
MERGE_COMMIT = "merge_commit"
CONFLICT = "conflict"
REF_RACED = "ref_raced"

_MERGE_RETRIES = 5


def _apply_moves(refs: dict, chunk: bytes, _offset: int) -> None:
    for line in chunk.decode("utf-8").splitlines():
        _old, new, branch = line.split(" ", 2)
        if new == "-":
            refs.pop(branch, None)
        else:
            refs[branch] = new


def _index_commits(index: dict, chunk: bytes, offset: int) -> None:
    """Fold `<64-hex id> <body>` lines into {id: (body offset, body length)}."""
    for line in chunk.split(b"\n")[:-1]:
        index[line[:64].decode("ascii")] = (offset + 65, len(line) - 65)
        offset += len(line) + 1


class Catalog:
    def __init__(self, root: Path, store: SnapshotStore, clock=None):
        self.root = Path(root)
        self.store = store
        self.clock = clock or SystemClock()
        self._refs: dict[str, str] = {}
        self._refs_view = MappingProxyType(self._refs)
        # the folds hold their dicts, not self: no cycle keeps a dropped catalog alive
        self._journal = Journal(self.root / "refs.log", partial(_apply_moves, self._refs))
        self._commit_index: dict[str, tuple[int, int]] = {}
        self._commits = Journal(self.root / "commits.log",
                                partial(_index_commits, self._commit_index))
        self._cache: dict[str, Commit] = {}
        self._cache_lock = threading.Lock()

    # -- bootstrap ----------------------------------------------------------

    def init(self, author: str = "system") -> Commit:
        """Create the root commit and main branch if the catalog is fresh."""
        head = self._load_refs().get("main")
        if head is None:
            root = Commit.make([], {}, author, "root", self.clock.now())
            head = self._cas_ref("main", None, root.id, write=root)
            if head is None:
                return root
        return self.get_commit(head)

    # -- refs ---------------------------------------------------------------

    def _cas_ref(self, branch: str, expected: str | None, new: str | None,
                 write: Commit | None = None) -> str | None:
        """The one ref move: under the journal's flock, if `branch` is at
        `expected` (None: absent), write `write` and append the move to
        `new` (None: delete the ref). Returns the head found; the move
        happened iff it is expected. The lock order is refs, then commits,
        so a reader that sees a ref finds its commit."""
        with self._journal.locked() as append:
            found = self._refs.get(branch)
            if found != expected:
                return found
            if write is not None:
                self._write_commit(write)
            append(f"{expected or '-'} {new or '-'} {branch}".encode("utf-8"))
            return found

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
        return self._resolve_in({} if _HEX_RE.fullmatch(ref) else self._load_refs(), ref)

    def _resolve_in(self, refs: dict, ref: str) -> str:
        if _HEX_RE.fullmatch(ref):
            if self._locate(ref) is not None:
                return ref
        elif ref in refs:
            return refs[ref]
        raise UnknownRef(f"cannot resolve {ref!r}")

    def create_branch(self, name: str, from_ref: str) -> str:
        if not _BRANCH_RE.fullmatch(name) or _HEX_RE.fullmatch(name):
            raise LakeError(f"bad branch name {name!r}")
        target = self.resolve(from_ref)
        if self._cas_ref(name, None, target) is not None:
            raise BranchExists(f"branch {name!r} exists")
        return target

    def delete_branch(self, name: str) -> bool:
        """Remove a ref; tolerant of a missing branch. main is permanent."""
        if name == "main":
            raise LakeError("cannot delete main")
        head = self._load_refs().get(name)
        while head is not None and (found := self._cas_ref(name, head, None)) != head:
            head = found  # moved since the read: delete what it points at now
        return head is not None

    # -- commits --------------------------------------------------------------

    def _write_commit(self, commit: Commit) -> None:
        """Append `<id> <body>` to commits.log unless the id is there."""
        with self._commits.locked() as append:
            if commit.id not in self._commit_index:
                append(commit.id.encode("ascii") + b" " + commit.body_json())
        with self._cache_lock:
            self._cache[commit.id] = commit

    def get_commit(self, commit_id: str) -> Commit:
        with self._cache_lock:
            cached = self._cache.get(commit_id)
        if cached is not None:
            return cached
        commit = self._read_commit(commit_id)
        with self._cache_lock:
            self._cache[commit_id] = commit
        return commit

    def _locate(self, commit_id: str) -> tuple[int, int] | None:
        """(offset, length) of a commit's body in commits.log, or None. Only
        an id not yet indexed catches up the journal."""
        found = self._commit_index.get(commit_id)
        if found is None:
            found = self._commits.catch_up(partial(self._commit_index.get, commit_id))
        return found

    def _read_commit(self, commit_id: str) -> Commit:
        found = self._locate(commit_id)
        if found is None:
            raise UnknownRef(f"no commit {commit_id!r}")
        return Commit.from_body(commit_id, self._commits.read_at(*found))

    def commit_tables(self, branch: str, changes: dict, expected_head: str,
                      author: str, message: str) -> Commit:
        """Apply `changes` (snapshot id or DELETE per table) on top of the
        parent map, advancing the ref only if its head still equals
        expected_head."""
        parent = self.get_commit(expected_head)
        tables = dict(parent.tables)
        for name, change in changes.items():
            if change is DELETE:
                if name not in tables:
                    raise UnknownTable(f"cannot delete absent table {name!r}")
                del tables[name]
            else:
                if not self.store.has_snapshot(change):
                    raise UnknownSnapshot(f"snapshot {change!r} not in store")
                tables[name] = change
        commit = Commit.make([expected_head], tables, author, message, self.clock.now())
        found = self._cas_ref(branch, expected_head, commit.id, write=commit)
        if found is None:
            raise UnknownBranch(f"no branch {branch!r}")
        if found != expected_head:
            raise StaleHead(f"{branch} moved to {found[:12]}, "
                            f"expected {expected_head[:12]}")
        return commit

    # -- history --------------------------------------------------------------

    def log(self, ref: str) -> list[Commit]:
        """Reverse-chronological first-parent walk down to a root."""
        return list(self.walk(self.resolve(ref)))

    def walk(self, commit_id: str) -> Iterator[Commit]:
        """The first-parent chain from a resolved commit id, one commit at a
        time. A commit not in the cache is read without being cached, so a
        walk of the whole history holds one commit."""
        while True:
            with self._cache_lock:
                commit = self._cache.get(commit_id)
            if commit is None:
                commit = self._read_commit(commit_id)
            yield commit
            if not commit.parents:
                return
            commit_id = commit.parents[0]

    def _is_ancestor(self, maybe_ancestor: str, descendant: str) -> bool:
        seen = {descendant}
        work = deque([descendant])
        while work:
            cid = work.popleft()
            if cid == maybe_ancestor:
                return True
            for p in self.get_commit(cid).parents:
                if p not in seen:
                    seen.add(p)
                    work.append(p)
        return False

    def merge_base(self, a: str, b: str) -> str:
        """A lowest common ancestor; ties resolved by greatest timestamp,
        then lexicographically smallest id."""
        candidates = self._lca_candidates(a, b)
        # a flag walk can surface a candidate that is itself an ancestor of
        # another; drop those so only true LCAs compete in the tie-break
        maximal = [c for c in candidates
                   if not any(c != d and self._is_ancestor(c, d) for d in candidates)]
        if not maximal:
            raise NoCommonAncestor(f"{a[:12]} and {b[:12]} share no root")
        return min(maximal, key=lambda c: (-self.get_commit(c).timestamp, c))

    def _lca_candidates(self, a: str, b: str) -> list[str]:
        # breadth-first flag propagation in the style of git merge-base
        if a == b:
            return [a]
        ANC_A, ANC_B, DNC, LCA = 1, 2, 4, 8
        states = {a: ANC_A, b: ANC_B}
        work = deque([a, b])
        found = []
        while work:
            if all(states[c] & DNC for c in work):
                break
            cid = work.popleft()
            flags = states[cid]
            if flags & ANC_A and flags & ANC_B and not flags & (LCA | DNC):
                states[cid] = flags = flags | LCA
                found.append(cid)
                flags |= DNC  # ancestors of an LCA cannot be better LCAs
            for p in self.get_commit(cid).parents:
                merged = states.get(p, 0) | flags
                if states.get(p) != merged:
                    states[p] = merged
                    work.append(p)
        return [c for c in found if not states[c] & DNC]

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
        table since the base aborts with no state change. Retries the ref
        CAS with a recomputed base up to a bound, then reports RefRaced.
        Performs zero snapshot-content reads or writes.
        """
        for _ in range(1 + _MERGE_RETRIES):
            refs = self._load_refs()
            if target not in refs:
                raise UnknownBranch(f"no branch {target!r}")
            target_head = refs[target]
            source_head = self._resolve_in(refs, source)
            base = self.merge_base(source_head, target_head)
            src_map = self.get_commit(source_head).tables
            tgt_map = self.get_commit(target_head).tables
            base_map = self.get_commit(base).tables
            merged: dict[str, str] = {}
            conflicts = []
            for name in sorted(set(src_map) | set(tgt_map) | set(base_map)):
                b = base_map.get(name)
                s = src_map.get(name)
                t = tgt_map.get(name)
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
            if conflicts:
                return MergeResult(CONFLICT, conflicts=tuple(conflicts))
            if target_head == base:
                kind, new, commit = FAST_FORWARD, source_head, None
            else:
                commit = Commit.make([target_head, source_head], merged, author,
                                     message or f"merge into {target}", self.clock.now())
                kind, new = MERGE_COMMIT, commit.id
            if self._cas_ref(target, target_head, new, write=commit) == target_head:
                return MergeResult(kind, commit_id=new)
        return MergeResult(REF_RACED)
