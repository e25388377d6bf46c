"""Self-healing loop with a pluggable repair agent.

The agent only ever sees plain data (failure context, pipeline spec,
attempt history) and proposes whole-pipeline rewrites; each candidate is
executed as a run-without-merge on a fresh temp branch under the agent's
own principal, so the target branch provably never moves until a human
approves the winning branch.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import MergeResult
from .engine import PipelineSpec, parse_pipeline
from .errors import LakeError, StaleProposal, UnknownRun
from .runner import FAILED, FAILED_OPEN, RunOptions, RunReport, SUCCEEDED, SUCCEEDED_OPEN


@dataclass(frozen=True)
class FailureContext:
    run_id: str
    pipeline: str
    target_branch: str
    temp_branch: str
    base_commit: str
    failed_node: str
    error: str


def failure_context(report: RunReport) -> FailureContext:
    """Derive the repair context from a FailedOpen run report."""
    if report.outcome.kind != FAILED_OPEN:
        raise UnknownRun(f"run {report.run_id} did not fail open "
                         f"(outcome {report.outcome.kind})")
    failed_node = None
    error = None
    last_ok = None
    for result in report.node_results:
        if result.status == FAILED:
            failed_node = result.node
            error = result.error
            break
        if result.status == SUCCEEDED:
            last_ok = result.node
    if failed_node is None:
        failed_node = last_ok or report.node_results[0].node
        error = f"injected fault after {failed_node}"
    return FailureContext(report.run_id, report.pipeline, report.target_branch,
                          report.temp_branch, report.base_commit,
                          failed_node, error)


class RepairAgent:
    """Interface: produce a candidate patched pipeline or give up (None)."""

    def propose(self, context: FailureContext, spec: PipelineSpec,
                history: list) -> PipelineSpec | None:
        raise NotImplementedError


class BaselineAgent(RepairAgent):
    """Deterministic stand-in for a reasoning agent: tries a fixed patch
    list in order, one whole-spec rewrite per attempt."""

    def __init__(self, patches: list[PipelineSpec]):
        self.patches = list(patches)

    def propose(self, context, spec, history):
        attempt = len(history)
        if attempt >= len(self.patches):
            return None
        return self.patches[attempt]


@dataclass(frozen=True)
class Attempt:
    index: int
    result: str  # succeeded | failed_open | verifier_rejected | rejected | gave_up
    detail: str
    run_id: str | None = None


@dataclass(frozen=True)
class Proposal:
    branch: str
    target_branch: str
    run_report: RunReport
    verdicts: tuple
    attempts: int
    diff: tuple  # table-level diff target -> proposal branch


@dataclass(frozen=True)
class GaveUp:
    history: tuple = field(default_factory=tuple)


def heal(kernel, failed_run_id: str, agent: RepairAgent, budget: int,
         principal: str):
    """Iterate candidate fixes on branches, gated by verifiers.

    Returns a Proposal for the first attempt whose run succeeds with all
    verifiers passing, or GaveUp with the attempt history. The target
    branch is never written."""
    failed = kernel.get_run(failed_run_id)
    context = failure_context(failed)
    spec = parse_pipeline(failed.pipeline_text)
    history: list[Attempt] = []
    for attempt in range(budget):
        patch = agent.propose(context, spec, history)
        if patch is None:
            history.append(Attempt(attempt, "gave_up", "agent has no more patches"))
            return GaveUp(tuple(history))
        try:
            report = kernel.run(patch, context.target_branch,
                                RunOptions(principal=principal, skip_merge=True))
        except LakeError as exc:
            history.append(Attempt(attempt, "rejected",
                                   f"{type(exc).__name__}: {exc}"))
            continue
        if report.outcome.kind == SUCCEEDED_OPEN:
            history.append(Attempt(attempt, "succeeded", "", report.run_id))
            diff = kernel.catalog.diff(context.target_branch, report.temp_branch)
            return Proposal(report.temp_branch, context.target_branch, report,
                            report.verdicts, attempt + 1, tuple(diff))
        history.append(Attempt(attempt, report.outcome.kind,
                               _outcome_detail(report), report.run_id))
    return GaveUp(tuple(history))


def _outcome_detail(report: RunReport) -> str:
    if report.outcome.kind == FAILED_OPEN:
        for r in report.node_results:
            if r.status == FAILED:
                return f"node {r.node}: {r.error}"
        return "injected fault"
    if report.outcome.rejected:
        return "verifiers rejected: " + ", ".join(report.outcome.rejected)
    return report.outcome.reason or report.outcome.kind


def approve(kernel, proposal: Proposal, principal: str) -> MergeResult:
    """Review-then-merge: publish a verified proposal branch to its target.

    Refuses when the branch advanced past the verified commit (the verdicts
    are bound to that exact head) and propagates merge conflicts."""
    head = kernel.catalog.resolve(proposal.branch)
    verified = proposal.run_report.final_commit()
    if head != verified:
        raise StaleProposal(f"branch {proposal.branch} advanced to "
                            f"{head[:12]}, verified {verified[:12]}")
    for verdict in proposal.verdicts:
        if verdict.evaluated_at != head:
            raise StaleProposal(f"verdict {verdict.verifier} bound to "
                                f"{verdict.evaluated_at[:12]}, head {head[:12]}")
    return kernel.merge(head, proposal.target_branch, principal,
                        message=f"publish {proposal.run_report.pipeline}")


def find_proposal(kernel, branch: str) -> Proposal:
    """Rebuild a Proposal from the persisted report of the run that made
    branch run/<pipeline>/<run_id> (CLI approve path)."""
    report = kernel.get_run(branch.rsplit("/", 1)[-1])
    if report.temp_branch != branch or report.outcome.kind != SUCCEEDED_OPEN:
        raise UnknownRun(f"no reviewed run produced branch {branch!r}")
    diff = kernel.catalog.diff(report.target_branch, branch)
    return Proposal(branch, report.target_branch, report,
                    report.verdicts, 1, tuple(diff))
