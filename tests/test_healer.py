from dataclasses import replace

import pytest

from conftest import make_kernel
from lakekernel.catalog import MERGE_COMMIT
from lakekernel.engine import parse_pipeline
from lakekernel.errors import Denied, StaleProposal, UnknownRun
from lakekernel.governance import parse_policy
from lakekernel.healer import (
    BaselineAgent,
    RepairAgent,
    _outcome_detail,
    approve,
    find_proposal,
    heal,
)
from lakekernel.runner import DENIED, FAILED_OPEN, RunOptions, VERIFIER_REJECTED
from lakekernel.store import TableData
from lakekernel.util import Journal

BROKEN = """\
pipeline metrics
node ratios:
  inputs: raw
  env: runtime=python3.10 packages=[pandas==2.0]
  materialize: REPLACE
  query: SELECT k, x / (k - 1) AS r FROM raw
"""

GUARDED = """\
pipeline metrics
node ratios:
  inputs: raw
  env: runtime=python3.10 packages=[pandas==2.0]
  materialize: REPLACE
  query: SELECT k, x / (k - 1) AS r FROM raw WHERE NOT (k - 1 = 0)
"""

STILL_BROKEN = BROKEN.replace("(k - 1)", "(k - k)")

EVIL_ENV = GUARDED.replace("packages=[pandas==2.0]", "packages=[evilpkg==1.0]")

POLICY = """\
whitelist = ["pandas==2.0", "polars==0.88"]
[[role]]
name = "engineer"
permissions = ["ReadTable:*:*", "WriteBranch:*", "CreateBranch:*", "MergeInto:*", "RunPipeline:*", "RegisterVerifier"]
[[role]]
name = "repair_agent"
permissions = ["ReadTable:*:*", "CreateBranch:run/*", "WriteBranch:run/*", "RunPipeline:*"]
[[principal]]
name = "dana"
roles = ["engineer"]
[[principal]]
name = "fixer"
roles = ["repair_agent"]
"""


@pytest.fixture
def healing_kernel(tmp_path):
    kernel = make_kernel(tmp_path / "lake", policy=parse_policy(POLICY))
    table = TableData.build(["k:int64", "x:int64"], [(1, 10), (2, 20)])
    sid = kernel.store.put_snapshot(table)
    kernel.catalog.commit_tables("main", {"raw": sid}, kernel.catalog.head("main"),
                                 "dana", "seed")
    return kernel


def fail_run(kernel):
    report = kernel.run(BROKEN, "main", RunOptions(principal="dana"))
    assert report.outcome.kind == FAILED_OPEN
    return report


def test_agent_receives_the_failed_report(healing_kernel):
    report = fail_run(healing_kernel)
    seen = []

    class Recorder(RepairAgent):
        def propose(self, failed, spec, history):
            seen.append(failed)
            return None

    heal(healing_kernel, report.run_id, Recorder(), budget=1, principal="fixer")
    assert seen == [report]
    failed, = seen
    assert failed.node_results[0].node == "ratios"
    assert "division by zero" in failed.node_results[0].error
    assert failed.temp_branch == report.temp_branch
    assert failed.base_commit == report.base_commit


def test_heal_requires_a_failed_open_run(kernel):
    table = TableData.build(["k:int64", "x:int64"], [(2, 10)])
    sid = kernel.store.put_snapshot(table)
    kernel.catalog.commit_tables("main", {"raw": sid}, kernel.catalog.head("main"),
                                 "alice", "seed")
    ok = kernel.run(GUARDED, "main", RunOptions(principal="alice"))
    with pytest.raises(UnknownRun):
        heal(kernel, ok.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
             budget=1, principal="alice")


def test_heal_repairs_div_by_zero_in_one_attempt(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    main_before = kernel.catalog.head("main")
    result = heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
                  budget=3, principal="fixer")
    assert result.proposal is not None
    assert len(result.history) == 1
    assert kernel.catalog.head("main") == main_before  # untouched until approve
    # the proposal diff touches only the pipeline's output table
    diff = kernel.catalog.diff("main", result.proposal.temp_branch)
    assert [name for name, _ in diff] == ["ratios"]
    merged = approve(kernel, result.proposal, "dana")
    assert merged.ok
    out = kernel.query("SELECT k, r FROM ratios", "main", "dana")
    assert out.rows == ((2, 20),)  # k=1 row guarded away


def test_heal_tries_patches_in_order(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    agent = BaselineAgent([parse_pipeline(STILL_BROKEN), parse_pipeline(GUARDED)])
    result = heal(kernel, failed.run_id, agent, budget=5, principal="fixer")
    assert result.proposal is not None
    assert len(result.history) == 2


def test_heal_budget_zero_gives_up_without_side_effects(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    refs = kernel.catalog.branches()
    runs = len(kernel.list_runs())
    result = heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
                  budget=0, principal="fixer")
    assert result.proposal is None
    assert kernel.catalog.branches() == refs
    assert len(kernel.list_runs()) == runs


def test_heal_empty_patch_list_gives_up_immediately(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    result = heal(kernel, failed.run_id, BaselineAgent([]), budget=3,
                  principal="fixer")
    assert result.proposal is None
    assert [a.result for a in result.history] == ["gave_up"]


def test_baseline_agent_is_deterministic(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    histories = []
    for _ in range(2):
        agent = BaselineAgent([parse_pipeline(STILL_BROKEN)])
        result = heal(kernel, failed.run_id, agent, budget=2, principal="fixer")
        assert result.proposal is None
        histories.append([(a.index, a.result) for a in result.history])
    assert histories[0] == histories[1]


def test_non_whitelisted_patch_rejected_and_counted(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    main_before = kernel.catalog.head("main")
    refs_before = kernel.catalog.branches()
    agent = BaselineAgent([parse_pipeline(EVIL_ENV), parse_pipeline(GUARDED)])
    result = heal(kernel, failed.run_id, agent, budget=2, principal="fixer")
    assert result.proposal is not None
    assert len(result.history) == 2  # the evil attempt consumed budget
    assert kernel.catalog.head("main") == main_before
    assert kernel.catalog.branches().keys() - refs_before.keys() == \
        {result.proposal.temp_branch}  # the evil attempt created no branch at all


def test_adversarial_agent_cannot_mutate_target(healing_kernel):
    """An agent that calls the public merge API under its own principal is
    denied and leaves an audit trail; the target never moves."""
    kernel = healing_kernel
    failed = fail_run(kernel)
    main_before = kernel.catalog.head("main")

    class Adversary(RepairAgent):
        def propose(self, failed, spec, history):
            if history:
                return None
            with pytest.raises(Denied):
                kernel.merge(failed.temp_branch, "main", "fixer")
            with pytest.raises(Denied):
                kernel.create_branch("sneaky", "main", "fixer")
            with pytest.raises(Denied):
                sid = kernel.store.put_snapshot(
                    TableData.build(["v:int64"], [(666,)]))
                kernel.commit_tables("main", {"pwned": sid},
                                     kernel.catalog.head("main"), "fixer", "x")
            return parse_pipeline(STILL_BROKEN)

    result = heal(kernel, failed.run_id, Adversary(), budget=2, principal="fixer")
    assert result.proposal is None
    assert kernel.catalog.head("main") == main_before
    denies = [r for r in kernel.governor.records if r.principal == "fixer" and not r.allowed]
    assert {r.action for r in denies} >= {"MergeInto:main", "CreateBranch:sneaky",
                                          "WriteBranch:main"}


def test_agent_capabilities_confined_to_run_pattern(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
         budget=1, principal="fixer")
    allowed = [r for r in kernel.governor.records if r.principal == "fixer" and r.allowed]
    for record in allowed:
        kind, _, arg = record.action.partition(":")
        if kind in ("CreateBranch", "WriteBranch"):
            assert arg.startswith("run/"), record


def test_approve_requires_merge_permission(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    result = heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
                  budget=1, principal="fixer")
    with pytest.raises(Denied):
        approve(kernel, result.proposal, "fixer")
    merged = approve(kernel, result.proposal, "dana")
    assert merged.ok


def test_stale_proposal_when_branch_advances(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    result = heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
                  budget=1, principal="fixer")
    sid = kernel.store.put_snapshot(TableData.build(["v:int64"], [(1,)]))
    kernel.commit_tables(result.proposal.temp_branch, {"sneaky": sid},
                         kernel.catalog.resolve(result.proposal.temp_branch),
                         "dana", "tamper")
    with pytest.raises(StaleProposal):
        approve(kernel, result.proposal, "dana")


def test_approve_propagates_conflicts(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    result = heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
                  budget=1, principal="fixer")
    # main's ratios table changes after the proposal was verified
    other = kernel.run(GUARDED.replace("x / (k - 1)", "x * 1000"), "main",
                       RunOptions(principal="dana"))
    assert other.outcome.kind == "merged"
    merged = approve(kernel, result.proposal, "dana")
    assert merged.kind == "conflict"
    assert merged.conflicts == ("ratios",)


def test_find_proposal_for_cli(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    result = heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
                  budget=1, principal="fixer")
    rebuilt = find_proposal(kernel, result.proposal.temp_branch)
    assert rebuilt.temp_branch == result.proposal.temp_branch
    assert rebuilt == result.proposal
    with pytest.raises(UnknownRun):
        find_proposal(kernel, "run/metrics/does-not-exist")
    with pytest.raises(UnknownRun, match="no run produced branch"):  # a real run's id
        find_proposal(kernel, f"run/other/{result.proposal.run_id}")


def test_find_proposal_reads_one_run_report(healing_kernel, monkeypatch):
    kernel = healing_kernel
    for _ in range(4):
        failed = fail_run(kernel)
    result = heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
                  budget=1, principal="fixer")
    assert len(kernel.list_runs()) == 5
    real_read_at = Journal.read_at
    reads = []

    def read_at(self, offset, size):
        if self.path.name == "runs.log":
            reads.append((offset, size))
        return real_read_at(self, offset, size)

    monkeypatch.setattr(Journal, "read_at", read_at)
    assert find_proposal(kernel, result.proposal.temp_branch) == result.proposal
    assert len(reads) == 1
    with pytest.raises(UnknownRun):  # a failed run's temp branch is no proposal
        approve(kernel, find_proposal(kernel, failed.temp_branch), "dana")


def test_heal_merge_commit_path(healing_kernel):
    """When main advances with unrelated tables after the failure, approve
    produces a true merge commit rather than a fast-forward."""
    kernel = healing_kernel
    failed = fail_run(kernel)
    result = heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
                  budget=1, principal="fixer")
    sid = kernel.store.put_snapshot(TableData.build(["v:int64"], [(5,)]))
    kernel.commit_tables("main", {"unrelated": sid}, kernel.catalog.head("main"),
                         "dana", "drift")
    merged = approve(kernel, result.proposal, "dana")
    assert merged.kind == MERGE_COMMIT
    final = kernel.catalog.table_map("main")
    assert "ratios" in final and "unrelated" in final


def test_approve_refuses_a_verifier_rejected_run(healing_kernel):
    """Only a verified open run is a proposal: a rejected run's report,
    read back as the CLI reads it, is refused before anything merges."""
    kernel = healing_kernel
    kernel.register_verifier("never", "metrics", "SELECT count(*) < 0 AS ok FROM ratios",
                             "dana")
    report = kernel.run(GUARDED, "main", RunOptions(principal="dana", skip_merge=True))
    assert report.outcome.kind == VERIFIER_REJECTED
    main_before = kernel.catalog.head("main")
    with pytest.raises(UnknownRun):
        approve(kernel, report, "dana")
    with pytest.raises(UnknownRun):
        approve(kernel, find_proposal(kernel, report.temp_branch), "dana")
    assert kernel.catalog.head("main") == main_before


def test_an_attempt_rejected_by_verifiers_names_them(healing_kernel):
    kernel = healing_kernel
    failed = fail_run(kernel)
    kernel.register_verifier("gate", "metrics", "SELECT count(*) < 0 AS ok FROM ratios",
                             "dana")
    result = heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
                  budget=1, principal="fixer")
    assert result.proposal is None
    assert [(a.result, a.detail) for a in result.history] == \
        [(VERIFIER_REJECTED, "verifiers rejected: gate")]


def test_outcome_detail_of_an_injected_fault_and_of_a_denied_publish(healing_kernel):
    kernel = healing_kernel
    fault = kernel.run(GUARDED, "main", RunOptions(principal="dana", fail_after="ratios"))
    assert fault.outcome.kind == FAILED_OPEN
    assert _outcome_detail(fault) == "injected fault"
    denied = kernel.run(GUARDED, "main", RunOptions(principal="fixer"))  # no MergeInto:main
    assert denied.outcome.kind == DENIED
    assert _outcome_detail(denied) == denied.outcome.reason
    assert "MergeInto:main" in denied.outcome.reason


def test_approve_refuses_a_verdict_bound_to_another_commit(healing_kernel):
    """A report read back from runs.log is outside input: one whose verdict
    names a commit other than the verified head is refused."""
    kernel = healing_kernel
    kernel.register_verifier("gate", "metrics", "SELECT count(*) > 0 AS ok FROM ratios",
                             "dana")
    failed = fail_run(kernel)
    result = heal(kernel, failed.run_id, BaselineAgent([parse_pipeline(GUARDED)]),
                  budget=1, principal="fixer")
    verdict, = result.proposal.verdicts
    main_before = kernel.catalog.head("main")
    forged = replace(result.proposal, verdicts=(replace(verdict, evaluated_at=main_before),))
    with pytest.raises(StaleProposal, match="verdict gate bound to"):
        approve(kernel, forged, "dana")
    assert kernel.catalog.head("main") == main_before
    assert approve(kernel, result.proposal, "dana").ok
