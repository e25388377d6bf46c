"""The transactional run API.

A run never writes to its target branch directly: it plans against the
target's head commit, reads each source table once at that commit (under
the principal's ReadTable on the target), opens a temp branch there,
commits node outputs one by one, then publishes all of them in a single
atomic merge only after every node succeeded and every matching verifier
passed. On any failure the temp branch is left open for inspection and
the target head is untouched.

Every run but a dry run leaves its report in runs.log, keyed by run id.
"""
from __future__ import annotations

import json
import re
import time
import weakref
from dataclasses import asdict, dataclass
from pathlib import Path

from .catalog import MergeResult, ReadSession
from .engine import PipelineSpec, execute_plan, format_pipeline, plan
from .errors import CorruptRun, DuplicateName, LakeError, UnknownInput, UnknownRun
from .util import Records, decoder
from .verify import VerdictRecord

SUCCEEDED = "succeeded"
FAILED = "failed"
SKIPPED = "skipped"

MERGED = "merged"  # the publish landed
CONFLICT = "conflict"  # nothing landed; the temp branch stays open
FAILED_OPEN = "failed_open"
VERIFIER_REJECTED = "verifier_rejected"
DENIED = "denied"
SUCCEEDED_OPEN = "succeeded_open"  # run-without-merge, verified, awaiting review
DRY_RUN = "dry_run"

# the form RandomIds and DeterministicIds give; nothing else names a report
_RUN_ID_RE = re.compile(r"[0-9a-f]{8}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{4}-[0-9a-f]{12}")


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
    merge: MergeResult | None = None  # for merged and conflict
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
    timings: dict[str, float]  # node -> wall milliseconds
    verdicts: tuple[VerdictRecord, ...] = ()

    def final_commit(self) -> str | None:
        """Head of the temp branch after the last successful node."""
        last = None
        for result in self.node_results:
            if result.status == SUCCEEDED:
                last = result.commit_id
        return last or self.base_commit


class Runner:
    """Executes pipelines through the governed kernel surface so every ref
    mutation carries its own authorization record."""

    def __init__(self, kernel, log_path: Path):
        # a proxy, so the kernel owning this runner is freed by refcount alone
        self.kernel = weakref.proxy(kernel)
        self._log = Records(log_path)

    # -- reports ----------------------------------------------------------

    def run_ids(self) -> list[str]:
        """The ids of the persisted run reports, sorted."""
        return sorted(k for k in self._log.keys() if _RUN_ID_RE.fullmatch(k))

    def list_runs(self) -> list[RunReport]:
        return [self.get_run(run_id) for run_id in self.run_ids()]

    def get_run(self, run_id: str) -> RunReport:
        """The report on `run_id`'s line of runs.log."""
        body = self._log.get(run_id) if _RUN_ID_RE.fullmatch(run_id) else None
        if body is None:
            raise UnknownRun(f"no run {run_id!r}")
        try:
            report = decoder(RunReport)(json.loads(body))
        except (ValueError, TypeError) as exc:  # torn, not JSON, or not a report
            raise CorruptRun(f"run {run_id!r} has a corrupt report: {exc}") from None
        if report.run_id != run_id:
            raise CorruptRun(f"run {run_id!r} has a corrupt report: "
                             f"its body names run {report.run_id!r}")
        return report

    # -- the run protocol ----------------------------------------------------

    def run(self, spec: PipelineSpec, target: str, opts: RunOptions) -> RunReport:
        kernel = self.kernel
        if opts.fail_after is not None and opts.fail_after not in spec.node_names():
            raise UnknownInput(f"fail_after names unknown node {opts.fail_after!r}")

        # plan and run against one commit: each source is read once, here,
        # under ReadTable on the target, before the run has any side effect
        target_head = kernel.catalog.head(target)
        session = ReadSession(target_head, target)
        tables = {s: kernel.read_table(session, s, opts.principal)
                  for s in spec.source_tables()}
        plans = plan(spec, {n: t.schema for n, t in tables.items()})
        text = format_pipeline(spec)

        run_id = kernel.ids.new_run_id()
        if opts.dry_run:
            return RunReport(run_id, spec.name, text, target, None, target_head,
                             (), Outcome(DRY_RUN, node_order=tuple(plans)), {})

        if run_id in self._log:  # refused before any side effect, so no report hides another
            raise DuplicateName(f"run {run_id!r} already has a report")
        temp = f"run/{spec.name}/{run_id}"
        # only this run moves the temp branch, so it carries its head along
        base = head = kernel.create_branch(temp, target_head, opts.principal)
        results: list[NodeResult] = []
        timings: dict[str, float] = {}

        def finish(kind: str, verdicts=(), **outcome) -> RunReport:
            report = RunReport(run_id, spec.name, text, target, temp, base,
                               tuple(results), Outcome(kind, temp_branch=temp, **outcome),
                               timings, tuple(verdicts))
            if not self._log.put(run_id, json.dumps(asdict(report), sort_keys=True).encode()):
                raise DuplicateName(f"run {run_id!r} already has a report")  # raced the check
            return report

        for i, node in enumerate(spec.nodes):
            started = time.perf_counter()
            try:
                table = execute_plan(plans[node.name],
                                     {t: tables[t] for t in node.query.tables()})
                head = kernel.commit_tables(
                    temp, {node.name: table}, head,
                    opts.principal, f"materialize {node.name}").id
            except LakeError as exc:
                results.append(NodeResult(node.name, FAILED,
                                          error=f"{type(exc).__name__}: {exc}"))
            else:
                tables[node.name] = table
                results.append(NodeResult(node.name, SUCCEEDED, head))
            timings[node.name] = (time.perf_counter() - started) * 1000.0
            # a failed node, or a crash injected right after this node's commit
            if results[-1].status == FAILED or opts.fail_after == node.name:
                results.extend(NodeResult(n.name, SKIPPED) for n in spec.nodes[i + 1:])
                return finish(FAILED_OPEN)

        try:
            verdicts = kernel.verifiers.evaluate(spec.name, head, run_id)
        except LakeError as exc:  # a verifier step that cannot run fails closed, like a publish
            return finish(DENIED, reason=f"{type(exc).__name__}: {exc}")
        failing = tuple(v.verifier for v in verdicts if v.verdict != "pass")
        if failing:
            return finish(VERIFIER_REJECTED, verdicts, rejected=failing)
        if opts.skip_merge:
            return finish(SUCCEEDED_OPEN, verdicts)

        try:
            # merge the exact verified commit, not the live branch tip
            merge = kernel.merge(head, target, opts.principal,
                                 message=f"publish {spec.name}")
        except LakeError as exc:
            return finish(DENIED, verdicts, reason=str(exc))
        return finish(MERGED if merge.ok else CONFLICT, verdicts, merge=merge)

    # -- hygiene ---------------------------------------------------------------

    def cleanup_temp(self, run_id: str, principal: str) -> bool:
        """Delete a run's temp branch ref; snapshots and commits stay."""
        report = self.get_run(run_id)
        if report.temp_branch is None:
            return False
        return self.kernel.delete_branch(report.temp_branch, principal)
