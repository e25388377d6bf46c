import json
import threading

import pytest

from conftest import make_kernel
from lakekernel.errors import Denied, UnknownInput, UnknownRun
from lakekernel.governance import parse_policy
from lakekernel.runner import (
    DENIED,
    DRY_RUN,
    FAILED_OPEN,
    MERGED,
    RunOptions,
    RunReport,
    SUCCEEDED_OPEN,
)
from lakekernel.store import TableData

PIPE = """\
pipeline duo
node t_a:
  inputs: raw
  env: runtime=python3.10 packages=[pandas==2.0]
  materialize: REPLACE
  query: SELECT k, x + 1 AS x FROM raw
node t_b:
  inputs: t_a
  env: runtime=python3.11 packages=[polars==0.88]
  materialize: REPLACE
  query: SELECT k, x * 2 AS x FROM t_a
"""

DIV0 = """\
pipeline ratios
node bad:
  inputs: raw
  env: runtime=python3.10 packages=[pandas==2.0]
  materialize: REPLACE
  query: SELECT k, x / (k - 1) AS r FROM raw
"""


def seed_raw(kernel, x=10):
    table = TableData.build(["k:int64", "x:int64"], [(1, x), (2, x + 5)])
    sid = kernel.store.put_snapshot(table)
    kernel.catalog.commit_tables("main", {"raw": sid}, kernel.catalog.head("main"),
                                 "alice", "seed raw")
    return sid


def test_successful_run_publishes_all_outputs_in_one_ref_move(kernel):
    seed_raw(kernel)
    before = kernel.catalog.head("main")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == MERGED
    assert report.outcome.merge.ok
    after = kernel.catalog.head("main")
    assert set(kernel.catalog.diff(before, after)) == {("t_a", "Added"),
                                                       ("t_b", "Added")}
    assert [r.status for r in report.node_results] == ["succeeded", "succeeded"]
    assert set(report.timings) == {"t_a", "t_b"}


@pytest.mark.parametrize("fail_after", ["t_a", "t_b"])
def test_injected_fault_leaves_target_untouched(kernel, fail_after):
    """Quantified over every node as the failure point."""
    seed_raw(kernel)
    before = kernel.catalog.head("main")
    report = kernel.run(PIPE, "main",
                        RunOptions(principal="alice", fail_after=fail_after))
    assert report.outcome.kind == FAILED_OPEN
    assert kernel.catalog.head("main") == before
    # temp branch holds exactly the commits of the nodes that ran
    ran = [r for r in report.node_results if r.status == "succeeded"]
    temp_head = kernel.catalog.resolve(report.temp_branch)
    chain = [c.id for c in kernel.catalog.log(temp_head)]
    assert chain.index(report.base_commit) == len(ran)
    statuses = {r.node: r.status for r in report.node_results}
    if fail_after == "t_a":
        assert statuses == {"t_a": "succeeded", "t_b": "skipped"}
    else:
        assert statuses == {"t_a": "succeeded", "t_b": "succeeded"}


def test_fault_after_first_node_creates_exactly_one_commit(kernel):
    seed_raw(kernel)
    report = kernel.run(PIPE, "main",
                        RunOptions(principal="alice", fail_after="t_a"))
    temp_head = kernel.catalog.get_commit(kernel.catalog.resolve(report.temp_branch))
    assert temp_head.parents == (report.base_commit,)
    assert "t_a" in temp_head.tables and "t_b" not in temp_head.tables


def test_node_error_marks_failed_and_skips_rest(kernel):
    seed_raw(kernel)  # k=1 row divides by zero
    report = kernel.run(DIV0, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == FAILED_OPEN
    assert report.node_results[0].status == "failed"
    assert "division by zero" in report.node_results[0].error


def test_dry_run_has_zero_side_effects(kernel):
    seed_raw(kernel)
    refs_before = kernel.catalog.branches()
    _, writes_before = kernel.io_counters()
    report = kernel.run(PIPE, "main", RunOptions(principal="alice", dry_run=True))
    assert report.outcome.kind == DRY_RUN
    assert report.outcome.node_order == ("t_a", "t_b")
    assert kernel.catalog.branches() == refs_before
    assert kernel.io_counters()[1] == writes_before  # no snapshot written
    assert kernel.list_runs() == []  # nothing persisted


def test_each_source_is_read_once_per_run(kernel):
    seed_raw(kernel)
    for opts in (RunOptions(principal="alice"),
                 RunOptions(principal="alice", dry_run=True)):
        reads_before, _ = kernel.io_counters()
        kernel.run(PIPE, "main", opts)
        assert kernel.io_counters()[0] - reads_before == 1  # raw, nothing else


def test_run_plans_branches_and_reads_at_one_commit(kernel, monkeypatch):
    """main's raw moves on right after the run reads main's head: the temp
    branch must still start at that head and the nodes read its raw."""
    seed_raw(kernel, x=10)
    planned = kernel.catalog.head("main")
    real_head = kernel.catalog.head
    advanced = []

    def head_then_advance(branch):
        out = real_head(branch)
        if not advanced:
            advanced.append(branch)
            seed_raw(kernel, x=100)
        return out

    monkeypatch.setattr(kernel.catalog, "head", head_then_advance)
    report = kernel.run(PIPE, "main", RunOptions(principal="alice", skip_merge=True))
    assert advanced == ["main"]
    assert report.outcome.kind == SUCCEEDED_OPEN
    assert report.base_commit == planned
    temp = kernel.catalog.open_session(report.temp_branch)
    assert kernel.catalog.read_table(temp, "raw").rows == ((1, 10), (2, 15))
    assert kernel.catalog.read_table(temp, "t_a").rows == ((1, 11), (2, 16))
    assert kernel.catalog.read_table(temp, "t_b").rows == ((1, 22), (2, 32))


def test_fail_after_must_name_a_node(kernel):
    seed_raw(kernel)
    with pytest.raises(UnknownInput):
        kernel.run(PIPE, "main", RunOptions(principal="alice", fail_after="nope"))


def test_report_json_roundtrip(kernel):
    seed_raw(kernel)
    report = kernel.run(PIPE, "main",
                        RunOptions(principal="alice", fail_after="t_a"))
    raw = (kernel.data_dir / "runs" / f"{report.run_id}.json").read_text()
    assert RunReport.from_json(json.loads(raw)) == report
    assert kernel.get_run(report.run_id) == report


def test_list_runs_and_unknown(kernel):
    seed_raw(kernel)
    assert kernel.list_runs() == []
    kernel.run(PIPE, "main", RunOptions(principal="alice"))
    assert len(kernel.list_runs()) == 1
    with pytest.raises(UnknownRun):
        kernel.get_run("11111111-2222-3333-4444-555555555555")


def test_reproducible_outputs_from_same_head(kernel):
    seed_raw(kernel)
    kernel.create_branch("left", "main", "alice")
    kernel.create_branch("right", "main", "alice")
    r1 = kernel.run(PIPE, "left", RunOptions(principal="alice"))
    r2 = kernel.run(PIPE, "right", RunOptions(principal="alice"))
    m1 = kernel.catalog.table_map("left")
    m2 = kernel.catalog.table_map("right")
    assert m1["t_a"] == m2["t_a"] and m1["t_b"] == m2["t_b"]
    assert r1.outcome.kind == r2.outcome.kind == MERGED


def test_skip_merge_leaves_verified_branch_open(kernel):
    seed_raw(kernel)
    before = kernel.catalog.head("main")
    report = kernel.run(PIPE, "main",
                        RunOptions(principal="alice", skip_merge=True))
    assert report.outcome.kind == SUCCEEDED_OPEN
    assert kernel.catalog.head("main") == before
    assert kernel.catalog.branch_exists(report.temp_branch)


def test_cleanup_temp(kernel):
    seed_raw(kernel)
    report = kernel.run(PIPE, "main",
                        RunOptions(principal="alice", fail_after="t_a"))
    temp_head = kernel.catalog.resolve(report.temp_branch)
    assert kernel.cleanup_temp(report.run_id, "alice") is True
    assert not kernel.catalog.branch_exists(report.temp_branch)
    # commits stay resolvable by id: the store is append-only
    assert kernel.catalog.get_commit(temp_head).tables["t_a"]
    assert kernel.cleanup_temp(report.run_id, "alice") is False  # tolerant


def test_cleanup_requires_authorization(kernel, tmp_path):
    seed_raw(kernel)
    report = kernel.run(PIPE, "main",
                        RunOptions(principal="alice", fail_after="t_a"))
    restricted = parse_policy(
        '[[role]]\nname = "ro"\npermissions = ["ReadTable:*:*"]\n'
        '[[principal]]\nname = "intern"\nroles = ["ro"]\n')
    kernel.governor.reload(restricted)
    with pytest.raises(Denied):
        kernel.cleanup_temp(report.run_id, "intern")


def test_run_without_merge_permission_leaves_branch_open(tmp_path):
    policy = parse_policy("""\
whitelist = ["pandas==2.0", "polars==0.88"]
[[role]]
name = "maker"
permissions = ["ReadTable:*:*", "CreateBranch:run/*", "WriteBranch:run/*", "RunPipeline:*"]
[[principal]]
name = "limited"
roles = ["maker"]
""")
    kernel = make_kernel(tmp_path / "lake", policy=policy)
    table = TableData.build(["k:int64", "x:int64"], [(1, 10)])
    sid = kernel.store.put_snapshot(table)
    kernel.catalog.commit_tables("main", {"raw": sid}, kernel.catalog.head("main"),
                                 "system", "seed")
    before = kernel.catalog.head("main")
    report = kernel.run(PIPE, "main", RunOptions(principal="limited"))
    assert report.outcome.kind == DENIED
    assert "MergeInto" in report.outcome.reason
    assert kernel.catalog.head("main") == before
    assert kernel.catalog.branch_exists(report.temp_branch)
    # every node still ran and was committed on the temp branch
    assert all(r.status == "succeeded" for r in report.node_results)


def test_atomic_publication_polling_observer(kernel):
    """An observer polling main and pinning a session never sees
    some-but-not-all outputs of any run."""
    seed_raw(kernel)
    seen_heads = []
    stop = threading.Event()

    def poll():
        while not stop.is_set():
            seen_heads.append(kernel.catalog.head("main"))

    thread = threading.Thread(target=poll)
    thread.start()
    reports = []
    try:
        for i in range(5):
            reports.append(kernel.run(PIPE, "main", RunOptions(principal="alice")))
    finally:
        stop.set()
        thread.join()
    run_outputs = []
    for report in reports:
        outputs = {}
        for result in report.node_results:
            commit = kernel.catalog.get_commit(result.commit_id)
            outputs[result.node] = commit.tables[result.node]
        run_outputs.append(outputs)
    for head in set(seen_heads):
        table_map = kernel.catalog.table_map(head)
        for outputs in run_outputs:
            hits = sum(1 for t, sid in outputs.items() if table_map.get(t) == sid)
            assert hits in (0, len(outputs)), (head, outputs)


def test_concurrent_runs_serialize_on_cas(kernel):
    seed_raw(kernel)
    results = [None] * 4

    def worker(i):
        results[i] = kernel.run(PIPE, "main", RunOptions(principal="alice"))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # all runs produced identical outputs (same inputs), so every merge
    # either lands or fast-forwards; the final map holds those outputs
    final = kernel.catalog.table_map("main")
    sample = results[0]
    for result in sample.node_results:
        commit = kernel.catalog.get_commit(result.commit_id)
        assert final[result.node] == commit.tables[result.node]


def test_audit_trail_per_run_is_documented_composite(kernel):
    seed_raw(kernel)
    base = len(kernel.governor.records)
    kernel.run(PIPE, "main", RunOptions(principal="alice"))
    new = kernel.governor.records[base:]
    actions = [r.action for r in new]
    assert actions[0].startswith("RunPipeline:duo")
    assert sum(1 for a in actions if a.startswith("CreateBranch:run/duo/")) == 1
    assert sum(1 for a in actions if a.startswith("WriteBranch:run/duo/")) == 2
    assert sum(1 for a in actions if a == "MergeInto:main") == 1
    assert len(actions) == 5  # one record per governed call, nothing hidden
