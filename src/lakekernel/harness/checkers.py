"""Offline checkers over recorded traces.

Isolation: every multi-table read group must be explainable by a single
commit's table map — a mix of versions that no commit ever contained is a
torn read. Serializability: some order of the successful merges, applied
sequentially to the initial state, must reproduce the final table map of
the target branch. Merges are blind writes of whole tables, so the check
is an exact peel of merges from the end of the order."""
from __future__ import annotations

from heapq import heapify, heappop, heappush

from .trace import Trace


def check_isolation(trace: Trace) -> list[dict]:
    """Empty list means Ok; otherwise one entry per torn read group, in
    event order. A group is explained by a commit map in the set of maps
    holding each of its (table, snapshot id) pairs, smallest set first."""
    holding: dict[tuple, set[int]] = {}
    for i, table_map in enumerate(trace.commits.values()):
        for pair in table_map.items():
            holding.setdefault(pair, set()).add(i)
    violations = []
    for event in trace.events:
        reads = event.fields.get("reads")
        if not reads:
            continue
        smallest, *rest = sorted(
            (holding.get((table, snapshot), ()) for table, snapshot in reads), key=len)
        if not any(all(i in s for s in rest) for i in smallest):
            violations.append({"seq": event.seq, "agent": event.agent,
                               "reads": list(reads)})
    return violations


def check_serializability(trace: Trace) -> tuple[bool, list[int] | None]:
    """(True, witness seq order) if the merges serialize, (False, None) if
    no order reproduces the final state.

    A table no merge writes must be the same (or absent) in the initial
    and final maps. Then the highest-seq merge whose writes to still
    unsettled tables all equal the final map is put last, and its tables
    are settled, until no merge is left. Moving such a merge to the end of
    any valid order keeps the order valid, so if none qualifies, no order
    exists. Picking the highest seq returns the recorded order whenever it
    is a witness."""
    initial, final = trace.initial_map, trace.final_map
    deltas = {e.seq: e.fields["published_delta"] for e in trace.events
              if e.fields.get("published_delta")}
    written = {table for delta in deltas.values() for table in delta}
    if any(initial.get(t) != final.get(t)
           for t in (initial.keys() | final.keys()) - written):
        return False, None
    # a merge may go last once every table it wrote a non-final value to
    # is settled; blocked counts those tables, waiting maps them to merges
    blocked, waiting = {}, {}
    for seq, delta in deltas.items():
        stale = [t for t, sid in delta.items() if final.get(t) != sid]
        blocked[seq] = len(stale)
        for table in stale:
            waiting.setdefault(table, []).append(seq)
    ready = [-seq for seq, n in blocked.items() if n == 0]  # max-heap by seq
    heapify(ready)
    settled, peeled = set(), []
    while ready:
        seq = -heappop(ready)
        peeled.append(seq)
        for table in deltas[seq].keys() - settled:
            settled.add(table)
            for other in waiting.pop(table, ()):
                blocked[other] -= 1
                if not blocked[other]:
                    heappush(ready, -other)
    if len(peeled) < len(deltas):
        return False, None
    return True, peeled[::-1]
