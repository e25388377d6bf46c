"""Self-healing loop with a pluggable repair agent.

The agent is handed the failed run's report, the pipeline spec and the
attempt history, and proposes whole-pipeline rewrites; each candidate is
executed as a run-without-merge on a fresh temp branch under the agent's
own principal, so the target branch provably never moves until a human
approves. A proposal is the report of the verified run itself, and
`approve` publishes exactly the commit that run left.
"""
from __future__ import annotations

from dataclasses import dataclass

from .catalog import MergeResult
from .engine import PipelineSpec, parse_pipeline
from .errors import LakeError, StaleProposal, UnknownRun
from .runner import FAILED, FAILED_OPEN, RunOptions, RunReport, SUCCEEDED_OPEN


class RepairAgent:
    """Interface: produce a candidate patched pipeline or give up (None)."""

    def propose(self, failed: RunReport, spec: PipelineSpec,
                history: list) -> PipelineSpec | None:
        raise NotImplementedError


class BaselineAgent(RepairAgent):
    """Deterministic stand-in for a reasoning agent: tries a fixed patch
    list in order, one whole-spec rewrite per attempt."""

    def __init__(self, patches: list[PipelineSpec]):
        self.patches = list(patches)

    def propose(self, failed, spec, history):
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
class HealResult:
    history: tuple[Attempt, ...]
    proposal: RunReport | None = None  # the verified run, open for review


def heal(kernel, failed_run_id: str, agent: RepairAgent, budget: int,
         principal: str) -> HealResult:
    """Iterate candidate fixes on branches, gated by verifiers.

    The proposal is the report of the first attempt whose run succeeds
    with all verifiers passing, or None when the agent gave up or the
    budget ran out. The target branch is never written."""
    failed = kernel.get_run(failed_run_id)
    if failed.outcome.kind != FAILED_OPEN:
        raise UnknownRun(f"run {failed.run_id} did not fail open "
                         f"(outcome {failed.outcome.kind})")
    spec = parse_pipeline(failed.pipeline_text)
    history: list[Attempt] = []
    for attempt in range(budget):
        patch = agent.propose(failed, spec, history)
        if patch is None:
            history.append(Attempt(attempt, "gave_up", "agent has no more patches"))
            break
        try:
            report = kernel.run(patch, failed.target_branch,
                                RunOptions(principal=principal, skip_merge=True))
        except LakeError as exc:
            history.append(Attempt(attempt, "rejected",
                                   f"{type(exc).__name__}: {exc}"))
            continue
        if report.outcome.kind == SUCCEEDED_OPEN:
            history.append(Attempt(attempt, "succeeded", "", report.run_id))
            return HealResult(tuple(history), report)
        history.append(Attempt(attempt, report.outcome.kind,
                               _outcome_detail(report), report.run_id))
    return HealResult(tuple(history))


def _outcome_detail(report: RunReport) -> str:
    if report.outcome.kind == FAILED_OPEN:
        for r in report.node_results:
            if r.status == FAILED:
                return f"node {r.node}: {r.error}"
        return "injected fault"
    if report.outcome.rejected:
        return "verifiers rejected: " + ", ".join(report.outcome.rejected)
    return report.outcome.reason or report.outcome.kind


def approve(kernel, report: RunReport, principal: str) -> MergeResult:
    """Review-then-merge: publish the commit a verified run left on its
    temp branch to the run's target.

    Refuses a run that did not end succeeded_open, and a branch that
    advanced past the verified commit (the verdicts are bound to that
    exact head); merge conflicts come back as the result."""
    if report.outcome.kind != SUCCEEDED_OPEN:
        raise UnknownRun(f"run {report.run_id} is no proposal "
                         f"(outcome {report.outcome.kind})")
    head = kernel.catalog.resolve(report.temp_branch)
    verified = report.final_commit()
    if head != verified:
        raise StaleProposal(f"branch {report.temp_branch} advanced to "
                            f"{head[:12]}, verified {verified[:12]}")
    # a report read back from runs.log is outside input: check each verdict
    for verdict in report.verdicts:
        if verdict.evaluated_at != head:
            raise StaleProposal(f"verdict {verdict.verifier} bound to "
                                f"{verdict.evaluated_at[:12]}, head {head[:12]}")
    return kernel.merge(head, report.target_branch, principal,
                        message=f"publish {report.pipeline}")


def find_proposal(kernel, branch: str) -> RunReport:
    """The report of the run that made branch run/<pipeline>/<run_id>
    (CLI approve path); `approve` decides whether it is a proposal."""
    report = kernel.get_run(branch.rsplit("/", 1)[-1])
    if report.temp_branch != branch:
        raise UnknownRun(f"no run produced branch {branch!r}")
    return report
