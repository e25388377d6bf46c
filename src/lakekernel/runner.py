"""The transactional run API.

A run never writes to its target branch directly: it plans against the
target's head commit, reads each source table once at that commit, opens a
temp branch there, commits node outputs one by one, then publishes all
of them in a single atomic merge only after every node succeeded and
every matching verifier passed. On any failure the temp branch is left
open for inspection and the target head is untouched.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from .catalog import MergeResult
from .engine import PipelineSpec, execute_query, format_pipeline, plan
from .errors import LakeError, UnknownInput, UnknownRun
from .util import atomic_write
from .verify import VerdictRecord

SUCCEEDED = "succeeded"
FAILED = "failed"
SKIPPED = "skipped"

MERGED = "merged"
FAILED_OPEN = "failed_open"
VERIFIER_REJECTED = "verifier_rejected"
DENIED = "denied"
SUCCEEDED_OPEN = "succeeded_open"  # run-without-merge, verified, awaiting review
DRY_RUN = "dry_run"


@dataclass(frozen=True)
class RunOptions:
    principal: str
    fail_after: str | None = None  # simulate a crash right after this node commits
    dry_run: bool = False
    skip_merge: bool = False  # leave the verified temp branch open for review


@dataclass(frozen=True)
class NodeResult:
    node: str
    status: str  # succeeded | failed | skipped
    commit_id: str | None = None
    error: str | None = None


@dataclass(frozen=True)
class Outcome:
    kind: str
    merge: MergeResult | None = None  # for merged
    temp_branch: str | None = None  # for failed_open
    rejected: tuple[str, ...] = ()  # failing verifier names
    reason: str | None = None  # for denied
    node_order: tuple[str, ...] = ()  # for dry_run


@dataclass(frozen=True)
class RunReport:
    run_id: str
    pipeline: str
    pipeline_text: str
    target_branch: str
    temp_branch: str | None
    base_commit: str | None
    node_results: tuple[NodeResult, ...]
    outcome: Outcome
    timings: dict  # node -> wall milliseconds
    verdicts: tuple[VerdictRecord, ...] = ()

    def final_commit(self) -> str | None:
        """Head of the temp branch after the last successful node."""
        last = None
        for result in self.node_results:
            if result.status == SUCCEEDED:
                last = result.commit_id
        return last or self.base_commit

    def to_json(self) -> dict:
        merge = self.outcome.merge
        return {
            "run_id": self.run_id,
            "pipeline": self.pipeline,
            "pipeline_text": self.pipeline_text,
            "target_branch": self.target_branch,
            "temp_branch": self.temp_branch,
            "base_commit": self.base_commit,
            "node_results": [
                {"node": r.node, "status": r.status,
                 "commit_id": r.commit_id, "error": r.error}
                for r in self.node_results
            ],
            "outcome": {
                "kind": self.outcome.kind,
                "merge": None if merge is None else {
                    "kind": merge.kind, "commit_id": merge.commit_id,
                    "conflicts": list(merge.conflicts)},
                "temp_branch": self.outcome.temp_branch,
                "rejected": list(self.outcome.rejected),
                "reason": self.outcome.reason,
                "node_order": list(self.outcome.node_order),
            },
            "timings": dict(self.timings),
            "verdicts": [v.to_json() for v in self.verdicts],
        }

    @staticmethod
    def from_json(body: dict) -> "RunReport":
        raw_outcome = body["outcome"]
        raw_merge = raw_outcome.get("merge")
        merge = None
        if raw_merge is not None:
            merge = MergeResult(raw_merge["kind"], raw_merge["commit_id"],
                                tuple(raw_merge["conflicts"]))
        outcome = Outcome(raw_outcome["kind"], merge,
                          raw_outcome.get("temp_branch"),
                          tuple(raw_outcome.get("rejected", ())),
                          raw_outcome.get("reason"),
                          tuple(raw_outcome.get("node_order", ())))
        nodes = tuple(NodeResult(r["node"], r["status"], r.get("commit_id"),
                                 r.get("error")) for r in body["node_results"])
        verdicts = tuple(VerdictRecord.from_json(v) for v in body.get("verdicts", ()))
        return RunReport(body["run_id"], body["pipeline"], body["pipeline_text"],
                         body["target_branch"], body["temp_branch"],
                         body["base_commit"], nodes, outcome,
                         dict(body["timings"]), verdicts)


class _InjectedCrash(Exception):
    """Fault injection: the process 'dies' right after a node's commit."""


class Runner:
    """Executes pipelines through the governed kernel surface so every ref
    mutation carries its own authorization record."""

    def __init__(self, kernel, runs_dir: Path):
        self.kernel = kernel
        self._runs_dir = Path(runs_dir)
        self._runs_dir.mkdir(parents=True, exist_ok=True)

    # -- reports ----------------------------------------------------------

    def list_runs(self) -> list[RunReport]:
        out = []
        for path in sorted(self._runs_dir.glob("*.json")):
            out.append(RunReport.from_json(json.loads(path.read_text("utf-8"))))
        return out

    def get_run(self, run_id: str) -> RunReport:
        path = self._runs_dir / f"{run_id}.json"
        if not path.exists():
            raise UnknownRun(f"no run {run_id!r}")
        return RunReport.from_json(json.loads(path.read_text("utf-8")))

    # -- the run protocol ----------------------------------------------------

    def run(self, spec: PipelineSpec, target: str, opts: RunOptions) -> RunReport:
        kernel = self.kernel
        catalog = kernel.catalog
        if opts.fail_after is not None and opts.fail_after not in spec.node_names():
            raise UnknownInput(f"fail_after names unknown node {opts.fail_after!r}")

        # plan and run against one commit: each source is read once, here
        target_head = catalog.head(target)
        session = catalog.open_session(target_head)
        tables = {s: catalog.read_table(session, s) for s in spec.source_tables()}
        ordered, _ = plan(spec, {n: t.schema for n, t in tables.items()})
        order = tuple(n.name for n in ordered)
        text = format_pipeline(spec)

        run_id = kernel.ids.new_run_id()
        if opts.dry_run:
            return RunReport(run_id, spec.name, text, target, None, target_head,
                             (), Outcome(DRY_RUN, node_order=order), {})

        temp = f"run/{spec.name}/{run_id}"
        base = kernel.create_branch(temp, target_head, opts.principal)
        results: list[NodeResult] = []
        timings: dict[str, float] = {}

        def finish(kind: str, verdicts=(), **outcome) -> RunReport:
            report = RunReport(run_id, spec.name, text, target, temp, base,
                               tuple(results), Outcome(kind, temp_branch=temp, **outcome),
                               timings, tuple(verdicts))
            body = json.dumps(report.to_json(), sort_keys=True).encode("utf-8")
            atomic_write(self._runs_dir / f"{run_id}.json", body)
            return report

        failed = False
        for node in ordered:
            started = time.perf_counter()
            try:
                table = execute_query(node.query,
                                      {t: tables[t] for t in node.query.tables()})
                sid = kernel.store.put_snapshot(table)
                commit = kernel.commit_tables(
                    temp, {node.name: sid}, catalog.head(temp),
                    opts.principal, f"materialize {node.name}")
                tables[node.name] = table
                results.append(NodeResult(node.name, SUCCEEDED, commit.id))
                timings[node.name] = (time.perf_counter() - started) * 1000.0
                if opts.fail_after == node.name:
                    raise _InjectedCrash(node.name)
            except _InjectedCrash:
                failed = True
                break
            except LakeError as exc:
                timings[node.name] = (time.perf_counter() - started) * 1000.0
                results.append(NodeResult(node.name, FAILED,
                                          error=f"{type(exc).__name__}: {exc}"))
                failed = True
                break
        done = {r.node for r in results}
        for node in ordered:
            if node.name not in done:
                results.append(NodeResult(node.name, SKIPPED))

        if failed:
            return finish(FAILED_OPEN)

        verified_head = catalog.head(temp)
        verdicts = kernel.verifiers.evaluate(spec.name, verified_head, run_id)
        failing = tuple(v.verifier for v in verdicts if v.verdict != "pass")
        if failing:
            return finish(VERIFIER_REJECTED, verdicts, rejected=failing)
        if opts.skip_merge:
            return finish(SUCCEEDED_OPEN, verdicts)

        try:
            # merge the exact verified commit, not the live branch tip
            merge = kernel.merge(verified_head, target, opts.principal,
                                 message=f"publish {spec.name}")
        except LakeError as exc:
            return finish(DENIED, verdicts, reason=str(exc))
        return finish(MERGED, verdicts, merge=merge)

    # -- hygiene ---------------------------------------------------------------

    def cleanup_temp(self, run_id: str, principal: str) -> bool:
        """Delete a run's temp branch ref; snapshots and commits stay."""
        report = self.get_run(run_id)
        if report.temp_branch is None:
            return False
        return self.kernel.delete_branch(report.temp_branch, principal)
