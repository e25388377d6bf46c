import sys
import threading
from pathlib import Path

import pytest

from lakekernel.engine import parse_query
from lakekernel.errors import Denied, DuplicateName, LakeError, MergeRefused, ShapeError
from lakekernel.governance import parse_policy
from lakekernel.runner import MERGED, RunOptions, VERIFIER_REJECTED
from lakekernel.store import TableData
from lakekernel.verify import VerifierRegistry, VerifierSpec

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


def seed_raw(kernel, rows=((1, 10), (2, 15))):
    table = TableData.build(["k:int64", "x:int64"], list(rows))
    sid = kernel.store.put_snapshot(table)
    kernel.catalog.commit_tables("main", {"raw": sid}, kernel.catalog.head("main"),
                                 "alice", "seed raw")


def test_register_and_list(kernel):
    spec = kernel.register_verifier("nonempty", "duo",
                                    "SELECT count(*) > 0 AS ok FROM t_b", "alice")
    assert spec.name == "nonempty"
    names = [v.name for v in kernel.verifiers.list_verifiers()]
    assert names == ["nonempty"]


def test_register_shape_errors(kernel):
    with pytest.raises(ShapeError):
        kernel.register_verifier("two_cols", "duo",
                                 "SELECT k, x FROM t_b", "alice")
    with pytest.raises(ShapeError):
        kernel.register_verifier("not_bool", "duo",
                                 "SELECT count(*) AS n FROM t_b", "alice")


def test_register_duplicate_name(kernel):
    kernel.register_verifier("v1", "duo", "SELECT count(*) > 0 AS ok FROM t_b",
                             "alice")
    with pytest.raises(DuplicateName):
        kernel.register_verifier("v1", "*", "SELECT true AS ok FROM t_b", "alice")


@pytest.mark.parametrize("name", ["../../escaped", "a/b", "..", "Upper", "", "v1\n"])
def test_register_refuses_names_that_are_not_plain_file_names(kernel, name):
    """A verifier's name becomes its file name, so one holding a path could
    write outside verifiers/; such names are refused and nothing is written."""
    def files():  # everything under the test's directory but the audit log
        return sorted(p for p in kernel.data_dir.parent.rglob("*") if p.name != "audit.log")

    before = files()
    with pytest.raises(LakeError, match="bad verifier name"):
        kernel.register_verifier(name, "duo", "SELECT true AS ok FROM t_b", "alice")
    assert files() == before
    assert kernel.verifiers.list_verifiers() == []


def test_register_requires_permission(kernel):
    kernel.governor.reload(parse_policy(
        '[[role]]\nname = "ro"\npermissions = ["ReadTable:*:*"]\n'
        '[[principal]]\nname = "intern"\nroles = ["ro"]\n'))
    with pytest.raises(Denied):
        kernel.register_verifier("v", "duo", "SELECT true AS ok FROM t", "intern")


def test_passing_verifier_gates_merge_through(kernel):
    seed_raw(kernel)
    kernel.register_verifier("nonempty", "duo",
                             "SELECT count(*) > 0 AS ok FROM t_b", "alice")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == MERGED
    assert [v.verdict for v in report.verdicts] == ["pass"]
    assert report.verdicts[0].evaluated_at == report.final_commit()


def test_failing_verifier_blocks_merge(kernel):
    seed_raw(kernel)
    kernel.register_verifier("impossible", "duo",
                             "SELECT count(*) > 100 AS ok FROM t_b", "alice")
    before = kernel.catalog.head("main")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == VERIFIER_REJECTED
    assert report.outcome.rejected == ("impossible",)
    assert kernel.catalog.head("main") == before
    assert kernel.catalog.branch_exists(report.temp_branch)


def test_verifier_error_blocks_merge(kernel):
    seed_raw(kernel)
    kernel.register_verifier("ghost_table", "duo",
                             "SELECT count(*) > 0 AS ok FROM never_made", "alice")
    before = kernel.catalog.head("main")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == VERIFIER_REJECTED
    verdict = report.verdicts[0]
    assert verdict.verdict == "error"
    assert "UnknownTable" in verdict.detail
    assert kernel.catalog.head("main") == before


def test_multi_row_check_fails(kernel):
    seed_raw(kernel)
    kernel.register_verifier("per_row", "duo",
                             "SELECT x > 0 AS ok FROM t_b", "alice")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == VERIFIER_REJECTED
    assert "expected exactly 1 row" in report.verdicts[0].detail


def test_glob_scopes_verifiers_to_pipelines(kernel):
    seed_raw(kernel)
    kernel.register_verifier("other_only", "other_*",
                             "SELECT count(*) > 100 AS ok FROM t_b", "alice")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == MERGED  # verifier does not match 'duo'
    assert report.verdicts == ()


def test_verdict_reproducibility(kernel):
    seed_raw(kernel)
    kernel.register_verifier("nonempty", "duo",
                             "SELECT count(*) > 0 AS ok FROM t_b", "alice")
    report = kernel.run(PIPE, "main",
                        RunOptions(principal="alice", skip_merge=True))
    again = kernel.run_verifiers(report.run_id)
    assert [(v.verifier, v.verdict, v.evaluated_at) for v in again] == \
        [(v.verifier, v.verdict, v.evaluated_at) for v in report.verdicts]


def test_manual_merge_never_overrides_recorded_fail(kernel):
    seed_raw(kernel)
    kernel.register_verifier("impossible", "duo",
                             "SELECT count(*) > 100 AS ok FROM t_b", "alice")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    assert report.outcome.kind == VERIFIER_REJECTED
    with pytest.raises(MergeRefused):
        kernel.merge(report.temp_branch, "main", "alice")


def test_manual_merge_allowed_without_verifier_run(kernel):
    """A missing verifier run may be overridden by a privileged principal."""
    seed_raw(kernel)
    kernel.create_branch("feature", "main", "alice")
    table = TableData.build(["v:int64"], [(1,)])
    sid = kernel.store.put_snapshot(table)
    kernel.commit_tables("feature", {"extra": sid},
                         kernel.catalog.head("feature"), "alice", "extra")
    result = kernel.merge("feature", "main", "alice")
    assert result.ok


def test_verdicts_persisted_per_run(kernel):
    seed_raw(kernel)
    kernel.register_verifier("nonempty", "duo",
                             "SELECT count(*) > 0 AS ok FROM t_b", "alice")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    stored = kernel.verifiers.verdicts_for_run(report.run_id)
    assert stored == list(report.verdicts)
    at_commit = kernel.verifiers.verdicts_at_commit(report.final_commit())
    assert len(at_commit) == 1


def test_register_race_across_processes_keeps_the_first(kernel, monkeypatch):
    """Two registries on one data dir stand for two processes: the second's
    existence check can run before the first's file lands, and still only
    one verifier of the name may be published."""
    registries = [VerifierRegistry(kernel.data_dir, kernel.catalog) for _ in range(2)]
    specs = [VerifierSpec("v1", "duo", parse_query("SELECT true AS ok FROM t_b"), "alice"),
             VerifierSpec("v1", "*", parse_query("SELECT false AS ok FROM t_b"), "bob")]
    path = kernel.data_dir / "verifiers" / "v1.json"
    registries[0].register(specs[0])
    first_body = path.read_bytes()

    real_exists = Path.exists
    missed = []

    def exists_misses_once(self, *args, **kwargs):
        if self == path and not missed:
            missed.append(self)
            return False
        return real_exists(self, *args, **kwargs)

    monkeypatch.setattr(Path, "exists", exists_misses_once)
    with pytest.raises(DuplicateName):
        registries[1].register(specs[1])
    assert path.read_bytes() == first_body
    assert [p.name for p in path.parent.iterdir()] == ["v1.json"]  # no temp left


def test_concurrent_registrations_of_one_name_exactly_one_wins(kernel):
    registries = [VerifierRegistry(kernel.data_dir, kernel.catalog) for _ in range(2)]
    check = parse_query("SELECT true AS ok FROM t_b")
    outcomes = []
    start = threading.Barrier(8)

    def register(i):
        start.wait(timeout=10)
        try:
            registries[i % 2].register(VerifierSpec("v1", f"p{i}", check, "alice"))
            outcomes.append(i)
        except DuplicateName:
            outcomes.append(None)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=register, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    winners = [i for i in outcomes if i is not None]
    assert len(outcomes) == 8 and len(winners) == 1
    [spec] = kernel.verifiers.list_verifiers()
    assert spec.pipeline == f"p{winners[0]}"
    assert [p.name for p in (kernel.data_dir / "verifiers").iterdir()] == ["v1.json"]
