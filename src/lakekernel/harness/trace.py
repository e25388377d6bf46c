"""Trace model for the concurrency harness.

A trace is an append-only, globally sequenced record of observed events,
so isolation and serializability can be checked offline from the JSON
alone. A read records the id of the snapshot it was served. `commits`
holds the table map of each commit a read pinned, plus each head the naive
scenario's unpinned reader could see: the states a read may be explained by.
"""
from __future__ import annotations

import json
import sys
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import CorruptRecord
from ..store import TableData, snapshot_id_of
from ..util import decoder


@dataclass(frozen=True, slots=True)
class TraceEvent:
    seq: int
    agent: int
    op: str
    fields: dict


# an event's `reads` is [table, snapshot id] pairs, its `published_delta` is
# {table: snapshot id}: the two fields the checkers read
_reads = decoder(list[list[str]] | None)
_delta = decoder(dict[str, str] | None)


@dataclass
class Trace:
    workload: dict
    target: str
    initial_map: dict[str, str]
    final_map: dict[str, str]
    commits: dict[str, dict[str, str]] = field(default_factory=dict)  # commit id -> table map
    events: list[TraceEvent] = field(default_factory=list)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True),
                              "utf-8")

    @staticmethod
    def load(path) -> "Trace":
        """The trace saved at `path`; a file that is not one is CorruptRecord.
        The event fields the checkers read are checked too."""
        try:
            trace = decoder(Trace)(json.loads(Path(path).read_text("utf-8")))
            for event in trace.events:
                _delta(event.fields.get("published_delta"))
                if any(len(pair) != 2 for pair in _reads(event.fields.get("reads")) or ()):
                    raise ValueError(f"event {event.seq} reads a non-pair")
            return trace
        except (ValueError, TypeError) as exc:
            raise CorruptRecord(f"{path} is not a trace: {exc!r}") from None


def served(table: str, data: TableData) -> list:
    """The [table, snapshot id] pair a read records for the table it was
    served; interned like `put_snapshot`'s ids, so a commit map shares it."""
    return [table, sys.intern(snapshot_id_of(data))]


def published_delta(catalog, report) -> dict:
    """{node: snapshot id} that a merged run published, read from each
    node's commit on the run's temp branch: the merge's blind writes, as
    check_serializability consumes them."""
    return {result.node: catalog.get_commit(result.commit_id).tables[result.node]
            for result in report.node_results}


class TraceRecorder:
    """Thread-safe builder handing out global sequence numbers."""

    def __init__(self, workload: dict, target: str):
        self._lock = threading.Lock()
        self._trace = Trace(workload, target, {}, {})

    def record(self, agent: int, op: str, fields: dict) -> int:
        with self._lock:
            seq = len(self._trace.events) + 1
            self._trace.events.append(TraceEvent(seq, agent, op, fields))
            return seq

    def register_commit(self, commit_id: str, table_map: dict) -> None:
        """Keep `table_map` as the commit's map; the caller hands over a map
        nothing else changes."""
        with self._lock:
            self._trace.commits.setdefault(commit_id, table_map)

    def finish(self, initial_map: dict, final_map: dict) -> Trace:
        self._trace.initial_map = dict(initial_map)
        self._trace.final_map = dict(final_map)
        return self._trace
