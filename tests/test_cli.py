import contextlib
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from conftest import child_env, make_kernel
from lakekernel import cli
from lakekernel.cli import main
from lakekernel.runner import RunOptions, Runner
from lakekernel.store import TableData

POLICY = """\
whitelist = ["pandas==2.0", "polars==0.88"]
[[role]]
name = "engineer"
permissions = ["ReadTable:*:*", "WriteBranch:*", "CreateBranch:*", "MergeInto:*", "RunPipeline:*", "RegisterVerifier"]
[[role]]
name = "reporter"
permissions = ["ReadTable:main:*"]
[[principal]]
name = "dana"
roles = ["engineer"]
[[principal]]
name = "intern"
roles = ["reporter"]
"""

RAW = "k:int64,x:int64\n1,10\n2,20\n"

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


@pytest.fixture
def env(tmp_path):
    data = tmp_path / "lake"
    policy = tmp_path / "policy.toml"
    policy.write_text(POLICY)
    csv = tmp_path / "raw.csv"
    csv.write_text(RAW)
    pipe = tmp_path / "duo.pipe"
    pipe.write_text(PIPE)
    assert main(["--data-dir", str(data), "init", "--policy", str(policy)]) == 0
    assert main(["--data-dir", str(data), "table", "import", "raw",
                 "--csv", str(csv), "--as", "dana"]) == 0
    return {"data": str(data), "pipe": str(pipe), "tmp": tmp_path}


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out.strip().split("\n")[-1]
    return code, json.loads(out)


def test_init_is_idempotent(env, capsys):
    code, body = run_json(capsys, ["--data-dir", env["data"], "init"])
    assert code == 0 and len(body["root"]) == 64


def test_usage_error_exits_2(env):
    with pytest.raises(SystemExit) as exc:
        main(["--data-dir", env["data"], "branch"])  # missing action
    assert exc.value.code == 2


def test_mutating_command_requires_principal(env):
    with pytest.raises(SystemExit) as exc:
        main(["--data-dir", env["data"], "branch", "create", "dev"])
    assert exc.value.code == 2


def test_branch_create_list_delete(env, capsys):
    code, body = run_json(capsys, ["--data-dir", env["data"], "branch", "create",
                                   "dev", "--from", "main", "--as", "dana"])
    assert code == 0
    code, body = run_json(capsys, ["--data-dir", env["data"], "branch", "list"])
    assert code == 0 and set(body["branches"]) == {"main", "dev"}
    code, body = run_json(capsys, ["--data-dir", env["data"], "branch", "delete",
                                   "dev", "--as", "dana"])
    assert code == 0 and body["deleted"] is True


def test_query_json_schema(env, capsys):
    code, body = run_json(capsys, [
        "--data-dir", env["data"], "query",
        "SELECT count(*) AS n FROM raw", "--ref", "main", "--as", "dana"])
    assert code == 0
    assert body == {"columns": [["n", "int64"]], "rows": [[2]]}


def test_query_denied_for_unknown_principal(env, capsys):
    code, body = run_json(capsys, [
        "--data-dir", env["data"], "query", "SELECT k FROM raw",
        "--as", "nobody"])
    assert code == 1
    assert body["error"] == "Denied"


def test_run_success_and_fault(env, capsys):
    code, body = run_json(capsys, ["--data-dir", env["data"], "run", env["pipe"],
                                   "--branch", "main", "--as", "dana"])
    assert code == 0
    assert body["outcome"]["kind"] == "merged"

    code, head_before = run_json(capsys, ["--data-dir", env["data"], "log", "main"])
    code, body = run_json(capsys, ["--data-dir", env["data"], "run", env["pipe"],
                                   "--branch", "main", "--fail-after", "t_a",
                                   "--as", "dana"])
    assert code == 1
    assert body["outcome"]["kind"] == "failed_open"
    _, head_after = run_json(capsys, ["--data-dir", env["data"], "log", "main"])
    assert head_before["commits"][0]["id"] == head_after["commits"][0]["id"]


def test_dry_run(env, capsys):
    code, body = run_json(capsys, ["--data-dir", env["data"], "run", env["pipe"],
                                   "--dry-run", "--as", "dana"])
    assert code == 0
    assert body["outcome"]["kind"] == "dry_run"
    assert body["outcome"]["node_order"] == ["t_a", "t_b"]


def test_merge_denied_exit_1(env, capsys):
    main(["--data-dir", env["data"], "branch", "create", "feature",
          "--as", "dana"])
    code, body = run_json(capsys, ["--data-dir", env["data"], "merge", "feature",
                                   "--into", "main", "--as", "intern"])
    assert code == 1
    assert body["error"] == "Denied"
    assert "MergeInto" in body["reason"]


def test_verifier_cli_flow(env, capsys):
    assert main(["--data-dir", env["data"], "verifier", "register",
                 "--name", "nonempty", "--pipeline", "duo",
                 "--check", "SELECT count(*) > 0 AS ok FROM t_b",
                 "--as", "dana"]) == 0
    code, body = run_json(capsys, ["--data-dir", env["data"], "verifier", "list"])
    assert code == 0 and body["verifiers"][0]["name"] == "nonempty"
    code, body = run_json(capsys, ["--data-dir", env["data"], "run", env["pipe"],
                                   "--no-merge", "--as", "dana"])
    assert code == 0 and body["outcome"]["kind"] == "succeeded_open"
    run_id = body["run_id"]
    code, body = run_json(capsys, ["--data-dir", env["data"], "verifier", "run",
                                   "--run-id", run_id])
    assert code == 0
    assert body["verdicts"][0]["verdict"] == "pass"


def test_runs_list_show_cleanup(env, capsys):
    code, body = run_json(capsys, ["--data-dir", env["data"], "run", env["pipe"],
                                   "--fail-after", "t_a", "--as", "dana"])
    run_id = body["run_id"]
    code, body = run_json(capsys, ["--data-dir", env["data"], "runs", "list"])
    assert code == 0 and body["runs"][0]["run_id"] == run_id
    code, body = run_json(capsys, ["--data-dir", env["data"], "runs", "show", run_id])
    assert code == 0 and body["outcome"]["kind"] == "failed_open"
    code, body = run_json(capsys, ["--data-dir", env["data"], "runs", "cleanup",
                                   run_id, "--as", "dana"])
    assert code == 0 and body["deleted_branch"] is True


def test_bad_run_ids_are_unknown_and_open_no_file(env, capsys, monkeypatch):
    """A run id that is not a lowercase UUID never becomes a path: every
    command that looks a run up ends UnknownRun, and the lookup opens no
    file at all."""
    data = env["data"]
    assert main(["--data-dir", data, "verifier", "register", "--name", "x",
                 "--pipeline", "duo", "--check", "SELECT count(*) > 0 AS ok FROM t_b",
                 "--as", "dana"]) == 0
    (env["tmp"] / "evil_run.json").write_text("{}")
    (env["tmp"] / "patches").mkdir()
    code, body = run_json(capsys, ["--data-dir", data, "run", env["pipe"],
                                   "--no-merge", "--as", "dana"])
    run_id = body["run_id"]

    opened, looking_up = [], []

    def hook(event, args):
        if event == "open" and looking_up and isinstance(args[0], (str, os.PathLike)):
            opened.append(Path(os.path.abspath(args[0])))

    sys.addaudithook(hook)  # stays installed; records only inside get_run below
    real_get_run = Runner.get_run

    def get_run(self, rid):
        looking_up.append(rid)
        try:
            return real_get_run(self, rid)
        finally:
            looking_up.pop()

    monkeypatch.setattr(Runner, "get_run", get_run)
    commands = (["runs", "show"], ["runs", "cleanup", "--as", "dana"],
                ["verifier", "run", "--run-id"],
                ["heal", "--patches", str(env["tmp"] / "patches"), "--as", "dana", "--run"])
    for name in ("../verifiers/x", "../../evil_run", "a/b", "..", run_id.upper(),
                 run_id + "\n", ""):
        for command in commands:
            code, body = run_json(capsys, ["--data-dir", data, *command, name])
            assert (code, body["error"]) == (1, "UnknownRun"), (command, name)
    assert opened == []
    code, body = run_json(capsys, ["--data-dir", data, "runs", "show", run_id])
    assert code == 0 and body["run_id"] == run_id
    assert opened == [Path(os.path.abspath(data)) / "runs" / f"{run_id}.json"]


def test_corrupt_run_reports_are_errors_that_name_the_run(env, capsys):
    """A report that is torn, not JSON or not shaped like a report ends
    `runs show` and `runs list` with exit 1 and a CorruptRun error naming
    the run, whose JSON object is the last line on stdout."""
    data = env["data"]
    code, body = run_json(capsys, ["--data-dir", data, "run", env["pipe"], "--as", "dana"])
    run_id = body["run_id"]
    path = Path(data) / "runs" / f"{run_id}.json"
    good = path.read_bytes()
    report = json.loads(good)
    wrong_types = [{**report, "outcome": 5}, {**report, "pipeline": 7},
                   {**report, "node_results": [{"node": "t_a", "status": None}]},
                   {**report, "outcome": {**report["outcome"], "merge": "x"}},
                   {**report, "verdicts": {}}, {**report, "extra": 1}]
    bodies = [b"{}", good[:len(good) // 2], b"\xff", b"[]",
              *(json.dumps(r).encode() for r in wrong_types)]
    for bad in bodies:
        path.write_bytes(bad)
        for command in (["runs", "show", run_id], ["runs", "list"]):
            code, body = run_json(capsys, ["--data-dir", data, *command])
            assert (code, body["error"]) == (1, "CorruptRun"), (command, bad)
            assert run_id in body["reason"]
        assert main(["--data-dir", data, "runs", "list"]) == 1
        assert "CorruptRun" in capsys.readouterr().err
    path.write_bytes(good)
    code, body = run_json(capsys, ["--data-dir", data, "runs", "list"])
    assert code == 0 and [r["run_id"] for r in body["runs"]] == [run_id]


def test_heal_and_approve_cli(env, capsys, tmp_path):
    bad = tmp_path / "bad.pipe"
    bad.write_text(PIPE.replace("x + 1", "x / (k - 1)"))
    patches = tmp_path / "patches"
    patches.mkdir()
    (patches / "01.pipe").write_text(
        PIPE.replace("x + 1", "x / (k - 1)")
            .replace("FROM raw", "FROM raw WHERE NOT (k = 1)"))
    code, body = run_json(capsys, ["--data-dir", env["data"], "run", str(bad),
                                   "--as", "dana"])
    assert code == 1
    run_id = body["run_id"]
    code, body = run_json(capsys, ["--data-dir", env["data"], "heal",
                                   "--run", run_id, "--patches", str(patches),
                                   "--budget", "2", "--as", "dana"])
    assert code == 0
    branch = body["proposal"]
    code, body = run_json(capsys, ["--data-dir", env["data"], "approve",
                                   "--proposal", branch, "--as", "intern"])
    assert code == 1 and body["error"] == "Denied"
    code, body = run_json(capsys, ["--data-dir", env["data"], "approve",
                                   "--proposal", branch, "--as", "dana"])
    assert code == 0 and body["kind"] in ("fast_forward", "merge_commit")


def test_simulate_and_check_cli(env, capsys, tmp_path):
    out = tmp_path / "trace.json"
    code, body = run_json(capsys, ["--data-dir", env["data"], "simulate",
                                   "--agents", "2", "--ops", "10", "--seed", "4",
                                   "--out", str(out)])
    assert code == 0
    assert body["isolation_violations"] == 0
    code, body = run_json(capsys, ["--data-dir", env["data"], "check",
                                   "--trace", str(out)])
    assert code == 0
    assert body["isolation"]["ok"] is True


def test_check_flags_torn_trace(env, capsys, tmp_path):
    from lakekernel.harness import Trace, TraceEvent
    torn = Trace({}, "main", {}, {}, {"c": {"a": "s1", "b": "s1"}},
                 [TraceEvent(1, 0, "scan", {"reads": [["a", "s1"], ["b", "s2"]]})])
    path = tmp_path / "torn.json"
    torn.save(path)
    code, body = run_json(capsys, ["--data-dir", env["data"], "check",
                                   "--trace", str(path)])
    assert code == 1
    assert body["isolation"]["ok"] is False


def test_domain_error_json_shape(env, capsys):
    code, body = run_json(capsys, ["--data-dir", env["data"], "log", "nope"])
    assert code == 1
    assert set(body) == {"error", "reason"}
    assert body["error"] == "UnknownRef"


def test_console_entry_point_subprocess(env):
    proc = subprocess.run(
        [sys.executable, "-m", "lakekernel.cli", "--data-dir", env["data"],
         "--json", "branch", "list"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "main" in json.loads(proc.stdout)["branches"]


def test_audit_seq_rises_without_gaps_across_processes(env):
    """Two processes each issue eight governed CLI calls at once; every
    audit line's seq is its line number in the shared log."""
    script = r"""
import sys
from lakekernel.cli import main

data, worker = sys.argv[1], sys.argv[2]
for i in range(8):
    assert main(["--data-dir", data, "branch", "create", f"w{worker}-{i}",
                 "--as", "dana"]) == 0
"""
    procs = [subprocess.Popen([sys.executable, "-c", script, env["data"], str(n)],
                              env=child_env(), stdout=subprocess.DEVNULL)
             for n in (1, 2)]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    lines = (Path(env["data"]) / "audit.log").read_text("utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert [r["seq"] for r in records] == list(range(1, len(records) + 1))
    assert sum(r["action"].startswith("CreateBranch:w") for r in records) == 16


def test_env_var_principal(env, capsys, monkeypatch):
    monkeypatch.setenv("LAKE_PRINCIPAL", "dana")
    code, body = run_json(capsys, ["--data-dir", env["data"], "query",
                                   "SELECT k FROM raw"])
    assert code == 0
    assert body["rows"] == [[1], [2]]


class _Discard:
    """A stdout that keeps nothing it is given."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _lake_with_runs(path, runs: int) -> str:
    kernel = make_kernel(path)
    table = TableData.build(["k:int64", "x:int64"], [(1, 10), (2, 20)])
    kernel.commit_tables("main", {"raw": kernel.store.put_snapshot(table)},
                         kernel.catalog.head("main"), "alice", "seed raw")
    for _ in range(runs):
        assert kernel.run(PIPE, "main", RunOptions("alice")).outcome.kind == "merged"
    return str(path)


def _peak_bytes(argv) -> int:
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_log_and_runs_list_memory_does_not_grow_with_history(tmp_path):
    """`log` and `runs list` hold one commit or one report at a time: with
    10x the history, the traced peak of either stays under twice the 1x one."""
    small = _lake_with_runs(tmp_path / "small", 20)
    large = _lake_with_runs(tmp_path / "large", 200)
    for argv in (["log", "main", "--json"], ["runs", "list", "--json"]):
        _peak_bytes(["--data-dir", small, *argv])  # warm lazy imports and caches
        base = _peak_bytes(["--data-dir", small, *argv])
        deep = _peak_bytes(["--data-dir", large, *argv])
        assert deep < 2 * base, (argv, base, deep)


def test_dropped_kernel_is_freed_by_reference_counting(tmp_path, monkeypatch):
    """No reference cycle keeps a kernel, and so its commit cache, alive
    after its last user drops it: not one that ran a pipeline and a
    governed merge, nor one that `cli.main` opened."""
    opened = []
    real_kernel = cli.LakeKernel

    def kernel(*args, **kwargs):
        k = real_kernel(*args, **kwargs)
        opened.append(weakref.ref(k))
        return k

    monkeypatch.setattr(cli, "LakeKernel", kernel)
    gc.collect()
    gc.disable()
    try:
        k = make_kernel(tmp_path / "lake")
        table = TableData.build(["k:int64", "x:int64"], [(1, 10), (2, 20)])
        k.commit_tables("main", {"raw": k.store.put_snapshot(table)},
                        k.catalog.head("main"), "alice", "seed raw")
        assert k.run(PIPE, "main", RunOptions("alice")).outcome.kind == "merged"
        k.create_branch("dev", "main", "alice")
        assert k.merge("dev", "main", "alice").ok
        dropped = weakref.ref(k)
        del k
        assert dropped() is None
        data = tmp_path / "lake"
        (data / "policy.toml").write_text(POLICY.replace("dana", "alice"))
        (tmp_path / "duo.pipe").write_text(PIPE)
        with contextlib.redirect_stdout(_Discard()):
            for argv in (["log", "main"], ["runs", "list"],
                         ["run", str(tmp_path / "duo.pipe"), "--as", "alice"]):
                assert main(["--data-dir", str(data), *argv, "--json"]) == 0
        assert len(opened) == 3 and all(ref() is None for ref in opened)
    finally:
        gc.enable()
