import json
import subprocess
import sys
import threading

import pytest

from conftest import child_env, count_journal_reads, make_kernel
from lakekernel import verify as verify_module
from lakekernel.engine import parse_query
from lakekernel.errors import (CorruptRecord, Denied, DuplicateName, LakeError, MergeRefused,
                               ShapeError)
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
    """A verifier's name is its verifiers.log key, so one holding a space or
    a newline could forge a line; only [a-z0-9_-]+ names are taken, and a
    refused name writes nothing."""
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


def test_a_misshapen_verdict_for_another_commit_refuses_every_merge(kernel):
    """A verdict file holding a body that is not a verdict is CorruptRecord
    for every merge, whichever commit the bad body names; a failing one at
    the source head does not reach the refusal's message."""
    seed_raw(kernel)
    kernel.create_branch("feature", "main", "alice")
    sid = kernel.store.put_snapshot(TableData.build(["v:int64"], [(1,)]))
    head = kernel.commit_tables("feature", {"extra": sid}, kernel.catalog.head("feature"),
                                "alice", "extra").id
    verdict = {"run_id": "r", "verifier": "v", "verdict": "pass", "detail": "",
               "evaluated_at": "0" * 64}
    main = kernel.catalog.head("main")
    (kernel.data_dir / "verdicts").mkdir()
    for bad in ({**verdict, "extra": 1},
                {**verdict, "verifier": 5, "verdict": "fail", "evaluated_at": head}):
        (kernel.data_dir / "verdicts" / "r.json").write_text(json.dumps([bad]))
        with pytest.raises(CorruptRecord, match="r.json"):
            kernel.merge("feature", "main", "alice")
    assert kernel.catalog.head("main") == main


def test_verdicts_persisted_per_run(kernel):
    seed_raw(kernel)
    kernel.register_verifier("nonempty", "duo",
                             "SELECT count(*) > 0 AS ok FROM t_b", "alice")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    stored = kernel.verifiers.verdicts_for_run(report.run_id)
    assert stored == list(report.verdicts)
    at_commit = kernel.verifiers.verdicts_at_commit(report.final_commit())
    assert len(at_commit) == 1


def test_two_kernels_on_one_data_dir_keep_each_others_verdicts(kernel, monkeypatch):
    """Kernel A pauses inside its verdict append, between reading the run's
    file and writing it, until kernel B's append returns (or a timeout):
    both appends land, with the run's own verdict, in one file of 3."""
    seed_raw(kernel)
    kernel.register_verifier("nonempty", "duo",
                             "SELECT count(*) > 0 AS ok FROM t_b", "alice")
    report = kernel.run(PIPE, "main", RunOptions(principal="alice", skip_merge=True))
    other = make_kernel(kernel.data_dir, principals=("alice",))
    inside, b_returned = threading.Event(), threading.Event()
    real_write = verify_module.atomic_write

    def paused_write(path, data):
        if threading.current_thread() is a:
            inside.set()
            b_returned.wait(timeout=1.0)
        real_write(path, data)

    monkeypatch.setattr(verify_module, "atomic_write", paused_write)
    a = threading.Thread(target=kernel.run_verifiers, args=(report.run_id,))
    a.start()
    try:
        assert inside.wait(timeout=10)
        other.run_verifiers(report.run_id)
    finally:
        b_returned.set()
        a.join(timeout=10)
    assert not a.is_alive()
    assert len(kernel.verifiers.verdicts_for_run(report.run_id)) == 3


_REGISTER = r"""
import sys
from lakekernel.engine import parse_query
from lakekernel.errors import DuplicateName
from lakekernel.verify import VerifierRegistry, VerifierSpec

root, tag, count = sys.argv[1], sys.argv[2], int(sys.argv[3])
registry = VerifierRegistry(root, None)
check = parse_query("SELECT true AS ok FROM t_b")
print("ready", flush=True)
sys.stdin.readline()  # both children start registering together
won = []
for i in range(count):
    try:
        registry.register(VerifierSpec(f"v{i}", tag, check, tag))
        won.append(f"v{i}")
    except DuplicateName:
        pass
print(" ".join(won))
"""


def test_register_race_across_two_processes_one_winner_per_name(kernel):
    """Two processes register the same 200 names at once: each name has
    exactly one winner, whose line is the only one for the name, and every
    name is listed with the winner's body."""
    count = 200
    procs = [subprocess.Popen([sys.executable, "-c", _REGISTER, str(kernel.data_dir),
                               tag, str(count)], env=child_env(), text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for tag in ("p0", "p1")]
    outs = []
    try:
        for proc in procs:
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        outs = [proc.communicate(timeout=60)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait(timeout=10)
    assert [proc.returncode for proc in procs] == [0, 0]
    won = {}
    for tag, out in zip(("p0", "p1"), outs):
        for name in out.split():
            assert name not in won
            won[name] = tag
    assert sorted(won) == sorted(f"v{i}" for i in range(count))
    lines = (kernel.data_dir / "verifiers.log").read_bytes().splitlines()
    assert sorted(line.split(b" ", 1)[0].decode() for line in lines) == sorted(won)
    specs = VerifierRegistry(kernel.data_dir, kernel.catalog).list_verifiers()
    assert {s.name: (s.pipeline, s.registered_by) for s in specs} == \
        {name: (tag, tag) for name, tag in won.items()}


def test_warm_registry_reads_only_appended_bytes(kernel, monkeypatch):
    """Once a registry has parsed its verifiers, listing them again reads no
    verifiers.log byte; a verifier another process registers costs that
    one line and its body."""
    check = parse_query("SELECT true AS ok FROM t_b")
    kernel.register_verifier("v1", "duo", "SELECT true AS ok FROM t_b", "alice")
    assert [v.name for v in kernel.verifiers.matching("duo")] == ["v1"]
    reads = count_journal_reads(monkeypatch, "verifiers.log")
    for _ in range(3):
        assert [v.name for v in kernel.verifiers.matching("duo")] == ["v1"]
    assert reads == [0, 0, 0]  # each list catches up, and finds nothing new
    log = kernel.data_dir / "verifiers.log"
    before = log.stat().st_size
    other = VerifierRegistry(kernel.data_dir, kernel.catalog)  # another process's view
    other.register(VerifierSpec("v2", "duo", check, "bob"))
    line = log.stat().st_size - before
    del reads[:]
    assert [v.name for v in kernel.verifiers.matching("duo")] == ["v1", "v2"]
    assert reads == [line, line - len(b"v2 \n")]  # the new line, then v2's body


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
    assert (kernel.data_dir / "verifiers.log").read_bytes().count(b"\n") == 1
    assert not (kernel.data_dir / "verifiers").exists()
