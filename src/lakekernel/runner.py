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
import re
import time
import weakref
from dataclasses import asdict, dataclass, is_dataclass
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

from .catalog import MergeResult
from .engine import PipelineSpec, execute_query, format_pipeline, plan
from .errors import CorruptRun, LakeError, UnknownInput, UnknownRun
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

    @staticmethod
    def from_json(body) -> "RunReport":
        """Raises TypeError where `body` does not fit the record's types."""
        return _decoder(RunReport)(body)


@cache
def _decoder(hint):
    """The function from a record's JSON to the type `hint`, built once per
    type: objects become the nested records and lists become tuples, with
    every field's type checked."""
    if get_origin(hint) is UnionType:  # every union in a report is `X | None`
        arm, = (a for a in get_args(hint) if a is not NoneType)
        inner = _decoder(arm)
        return lambda value: None if value is None else inner(value)
    if is_dataclass(hint):
        fields = {k: _decoder(t) for k, t in get_type_hints(hint).items()}

        def record(value):
            if type(value) is not dict or not value.keys() <= fields.keys():
                raise TypeError(f"not a {hint.__name__}: {value!r:.80}")
            return hint(**{k: fields[k](v) for k, v in value.items()})
        return record
    if get_origin(hint) is tuple:
        item = _decoder(get_args(hint)[0])

        def items(value):
            if type(value) is not list:
                raise TypeError(f"not a list: {value!r:.80}")
            return tuple(map(item, value))
        return items

    def leaf(value):
        if not isinstance(value, hint):
            raise TypeError(f"not a {hint.__name__}: {value!r:.80}")
        return value
    return leaf


class _InjectedCrash(Exception):
    """Fault injection: the process 'dies' right after a node's commit."""


class Runner:
    """Executes pipelines through the governed kernel surface so every ref
    mutation carries its own authorization record."""

    def __init__(self, kernel, runs_dir: Path):
        # a proxy, so the kernel owning this runner is freed by refcount alone
        self.kernel = weakref.proxy(kernel)
        self._runs_dir = Path(runs_dir)
        self._runs_dir.mkdir(parents=True, exist_ok=True)

    # -- reports ----------------------------------------------------------

    def run_ids(self) -> list[str]:
        """The ids of the persisted run reports, sorted."""
        return sorted(p.stem for p in self._runs_dir.glob("*.json")
                      if _RUN_ID_RE.fullmatch(p.stem))

    def list_runs(self) -> list[RunReport]:
        return [self.get_run(run_id) for run_id in self.run_ids()]

    def get_run(self, run_id: str) -> RunReport:
        if not _RUN_ID_RE.fullmatch(run_id):
            raise UnknownRun(f"no run {run_id!r}")
        try:
            return RunReport.from_json(
                json.loads((self._runs_dir / f"{run_id}.json").read_text("utf-8")))
        except FileNotFoundError:
            raise UnknownRun(f"no run {run_id!r}") from None
        except (ValueError, TypeError) as exc:  # torn, not JSON, or not a report
            raise CorruptRun(f"run {run_id!r} has a corrupt report: {exc}") from None

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
        # only this run moves the temp branch, so it carries its head along
        base = head = kernel.create_branch(temp, target_head, opts.principal)
        results: list[NodeResult] = []
        timings: dict[str, float] = {}

        def finish(kind: str, verdicts=(), **outcome) -> RunReport:
            report = RunReport(run_id, spec.name, text, target, temp, base,
                               tuple(results), Outcome(kind, temp_branch=temp, **outcome),
                               timings, tuple(verdicts))
            body = json.dumps(asdict(report), sort_keys=True).encode("utf-8")
            atomic_write(self._runs_dir / f"{run_id}.json", body)
            return report

        failed = False
        for node in ordered:
            started = time.perf_counter()
            try:
                table = execute_query(node.query,
                                      {t: tables[t] for t in node.query.tables()})
                sid = kernel.store.put_snapshot(table)
                head = kernel.commit_tables(
                    temp, {node.name: sid}, head,
                    opts.principal, f"materialize {node.name}").id
                tables[node.name] = table
                results.append(NodeResult(node.name, SUCCEEDED, head))
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

        verdicts = kernel.verifiers.evaluate(spec.name, head, run_id)
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
        return finish(MERGED, verdicts, merge=merge)

    # -- hygiene ---------------------------------------------------------------

    def cleanup_temp(self, run_id: str, principal: str) -> bool:
        """Delete a run's temp branch ref; snapshots and commits stay."""
        report = self.get_run(run_id)
        if report.temp_branch is None:
            return False
        return self.kernel.delete_branch(report.temp_branch, principal)
