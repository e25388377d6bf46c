import json
import threading
from dataclasses import replace

import pytest

import lakekernel.runner
from conftest import count_journal_reads, make_kernel, stored_snapshots
from lakekernel.catalog import CONFLICT, MergeResult
from lakekernel.engine import EnvSpec, PipelineSpec, parse_pipeline, parse_query
from lakekernel.errors import Denied, DuplicateName, ParseError, UnknownInput, UnknownRun
from lakekernel.governance import parse_policy
from lakekernel.runner import (
    DENIED,
    DRY_RUN,
    FAILED,
    FAILED_OPEN,
    MERGED,
    NodeResult,
    Outcome,
    RunOptions,
    RunReport,
    SKIPPED,
    SUCCEEDED_OPEN,
)
from lakekernel.store import TableData
from lakekernel.util import decoder

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


def test_merged_run_reads_refs_at_most_six_times(kernel, monkeypatch):
    """The runner passes on the heads it holds instead of re-reading refs, and
    a commit id resolves without them: one read of the target head, one per
    ref move (temp branch, two nodes, publish) and one per merge attempt."""
    seed_raw(kernel)
    kernel.register_verifier("nonempty", "duo",
                             "SELECT count(*) > 0 AS ok FROM t_b", "alice")
    reads = count_journal_reads(monkeypatch, "refs.log")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == MERGED
    assert len(report.verdicts) == 1
    assert len(reads) <= 6


def test_foreign_commit_on_temp_branch_fails_the_run(kernel, monkeypatch):
    """A commit another writer puts on the run's temp branch between two
    nodes is never built on or published: the next node's CAS fails."""
    seed_raw(kernel)
    before = kernel.catalog.head("main")
    real_execute = lakekernel.runner.execute_plan
    calls = []

    def intrude_then_execute(plan, tables):
        calls.append(plan)
        if len(calls) == 2:  # node 1 has committed, node 2 has not
            temp, = [b for b in kernel.catalog.branches() if b.startswith("run/")]
            intruder = TableData.build(["v:int64"], [(1,)])
            kernel.catalog.commit_tables(temp, {"intruder": intruder},
                                         kernel.catalog.head(temp), "bob", "foreign")
        return real_execute(plan, tables)

    monkeypatch.setattr(lakekernel.runner, "execute_plan", intrude_then_execute)
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == FAILED_OPEN
    t_b = report.node_results[1]
    assert t_b.status == FAILED and t_b.error.startswith("StaleHead")
    assert kernel.catalog.head("main") == before


def test_fail_after_must_name_a_node(kernel):
    seed_raw(kernel)
    with pytest.raises(UnknownInput):
        kernel.run(PIPE, "main", RunOptions(principal="alice", fail_after="nope"))


def test_report_json_roundtrip(kernel):
    seed_raw(kernel)
    report = kernel.run(PIPE, "main",
                        RunOptions(principal="alice", fail_after="t_a"))
    key, raw = (kernel.data_dir / "runs.log").read_text().rstrip("\n").split(" ", 1)
    assert key == report.run_id
    assert decoder(RunReport)(json.loads(raw)) == report
    assert kernel.get_run(report.run_id) == report


def test_report_from_json_defaults_absent_keys():
    """A report body that omits optional keys decodes to the record's defaults."""
    report = decoder(RunReport)({
        "run_id": "r", "pipeline": "p", "pipeline_text": "", "target_branch": "main",
        "temp_branch": None, "base_commit": None, "timings": {},
        "node_results": [{"node": "n", "status": "skipped"}],
        "outcome": {"kind": "merged",
                    "merge": {"kind": "conflict", "commit_id": None, "conflicts": ["t"]}}})
    assert report.node_results == (NodeResult("n", "skipped"),)
    assert report.outcome == Outcome(MERGED, MergeResult(CONFLICT, conflicts=("t",)))
    assert report.verdicts == ()


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


def test_a_run_denied_its_node_write_stores_no_snapshot(tmp_path):
    """The node's output is stored only after WriteBranch on the temp branch
    is allowed: a principal without it ends failed_open, and the store holds
    no more than before."""
    policy = parse_policy("""\
whitelist = ["pandas==2.0", "polars==0.88"]
[[role]]
name = "reader"
permissions = ["ReadTable:*:*", "CreateBranch:run/*", "RunPipeline:*"]
[[principal]]
name = "nowrite"
roles = ["reader"]
""")
    kernel = make_kernel(tmp_path / "lake", policy=policy)
    seed_raw(kernel)
    before = stored_snapshots(kernel.data_dir)
    assert before  # seed_raw stored the source table
    report = kernel.run(PIPE, "main", RunOptions(principal="nowrite"))
    assert report.outcome.kind == FAILED_OPEN
    assert report.node_results[0].error.startswith("Denied: ")
    assert stored_snapshots(kernel.data_dir) == before


def _lake_state(kernel):
    def read(name):
        path = kernel.data_dir / name
        return path.read_bytes() if path.exists() else None
    return read("audit.log"), kernel.catalog.branches(), read("runs.log")


@pytest.mark.parametrize("bad", [
    lambda node: replace(node, name="Bad Name!"),
    lambda node: replace(node, env=EnvSpec("python 3.11", ("pandas==2.0",))),
    lambda node: replace(node, query=parse_query("SELECT k, 'a\nb' AS s FROM raw")),
], ids=["node-name", "runtime-with-a-space", "literal-with-a-line-break"])
def test_a_spec_runs_only_as_text_the_parser_accepts(kernel, bad):
    """A spec runs as its canonical text: one whose text the parser refuses
    is refused with ParseError before any audit record, branch or report."""
    seed_raw(kernel)
    spec = parse_pipeline(PIPE)
    spec = PipelineSpec(spec.name, (bad(spec.nodes[0]),))
    before = _lake_state(kernel)
    with pytest.raises(ParseError):
        kernel.run(spec, "main", RunOptions(principal="alice"))
    assert _lake_state(kernel) == before


def test_run_cannot_copy_a_table_its_principal_may_not_read(tmp_path):
    """A principal who may run pipelines and read only run branches cannot
    copy `secret` off main with an unmerged run: the source read is
    checked and audited as ReadTable on the target before any branch exists."""
    policy = parse_policy("""\
whitelist = ["pandas==2.0"]
[[role]]
name = "runner"
permissions = ["RunPipeline:*", "CreateBranch:run/*", "WriteBranch:run/*", "ReadTable:run/*:*"]
[[principal]]
name = "mole"
roles = ["runner"]
""")
    kernel = make_kernel(tmp_path / "lake", policy=policy)
    sid = kernel.store.put_snapshot(TableData.build(["k:int64", "x:int64"], [(1, 42)]))
    kernel.catalog.commit_tables("main", {"secret": sid}, kernel.catalog.head("main"),
                                 "system", "seed")
    with pytest.raises(Denied):
        kernel.read_table(kernel.open_session("main"), "secret", "mole")
    copy = ("pipeline leak\nnode copied:\n  inputs: secret\n"
            "  env: runtime=python3.11 packages=[pandas==2.0]\n"
            "  materialize: REPLACE\n  query: SELECT k, x FROM secret\n")
    with pytest.raises(Denied):
        kernel.run(copy, "main", RunOptions(principal="mole", skip_merge=True))
    assert list(kernel.catalog.branches()) == ["main"]
    last = kernel.governor.records[-1]
    assert (last.action, last.allowed) == ("ReadTable:main:secret", False)


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
    assert sum(1 for a in actions if a == "ReadTable:main:raw") == 1
    assert sum(1 for a in actions if a == "MergeInto:main") == 1
    assert len(actions) == 6  # one record per governed call, nothing hidden


def _chain(bad: int | None) -> str:
    """A 3-node chain raw -> n0 -> n1 -> n2; node `bad` divides by zero."""
    lines, source = ["pipeline tri"], "raw"
    for i in range(3):
        expr = "x / (k - 1)" if i == bad else "x + 1"
        lines += [f"node n{i}:", f"  inputs: {source}",
                  "  env: runtime=python3.10 packages=[pandas==2.0]",
                  "  materialize: REPLACE", f"  query: SELECT k, {expr} AS x FROM {source}"]
        source = f"n{i}"
    return "\n".join(lines) + "\n"


# (fail_after, dividing node, outcome, node statuses); every node that ran is timed
_LOOP_CASES = {
    "clean": (None, None, MERGED, ["succeeded"] * 3),
    **{f"fail_after_n{i}": (f"n{i}", None, FAILED_OPEN,
                            ["succeeded"] * (i + 1) + ["skipped"] * (2 - i))
       for i in range(3)},
    **{f"div0_at_n{i}": (None, i, FAILED_OPEN,
                         ["succeeded"] * i + ["failed"] + ["skipped"] * (2 - i))
       for i in range(3)},
}


@pytest.mark.parametrize("case", list(_LOOP_CASES))
def test_node_loop_stops_at_the_first_failure(kernel, case):
    fail_after, bad, outcome, statuses = _LOOP_CASES[case]
    seed_raw(kernel)
    report = kernel.run(_chain(bad), "main",
                        RunOptions(principal="alice", fail_after=fail_after))
    assert report.outcome.kind == outcome
    assert [r.node for r in report.node_results] == ["n0", "n1", "n2"]
    assert [r.status for r in report.node_results] == statuses
    ran = [r.node for r in report.node_results if r.status != SKIPPED]
    assert list(report.timings) == ran
    chain = [c.id for c in kernel.catalog.log(kernel.catalog.resolve(report.temp_branch))]
    assert chain.index(report.base_commit) == statuses.count("succeeded")


def test_a_repeated_run_id_hides_no_report(tmp_path):
    """Two kernels on one data dir drawing run ids from the same seed give
    their first runs one id: the second run is refused with DuplicateName
    before it opens a branch or publishes, and the first report stays the
    one runs.log serves."""
    first = make_kernel(tmp_path / "lake", seed=5)
    seed_raw(first)
    report = first.run(PIPE, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == MERGED
    second = make_kernel(tmp_path / "lake", seed=5)
    branches = second.catalog.branches()
    with pytest.raises(DuplicateName, match=report.run_id):
        second.run(PIPE.replace("pipeline duo", "pipeline other"), "main",
                   RunOptions(principal="alice"))
    assert second.catalog.branches() == branches
    assert (tmp_path / "lake" / "runs.log").read_bytes().count(b"\n") == 1
    assert make_kernel(tmp_path / "lake").get_run(report.run_id) == report
