import contextlib
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from conftest import child_env, make_kernel, stored_snapshots
from lakekernel import cli
from lakekernel.cli import main
from lakekernel.runner import RunOptions, Runner
from lakekernel.store import PACK_MAX_BYTES, TableData
from lakekernel.verify import VerifierRegistry

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
OTHER_RUN = "00000000-0000-4000-8000-000000000000"  # a run id no lake here makes

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


def test_init_with_a_bad_policy_file_creates_no_data_dir(tmp_path, capsys):
    policy = tmp_path / "policy.toml"
    data = tmp_path / "lake"
    for bad in ('whitelist = ["pandas==2.0"\n', '[[role]]\npermissions = []\n'):
        policy.write_text(bad)
        code, body = run_json(capsys, ["--data-dir", str(data), "init",
                                       "--policy", str(policy)])
        assert code == 1 and body["error"] in ("ParseError", "InvalidPolicy"), bad
        assert not data.exists()


def test_usage_error_exits_2(env):
    with pytest.raises(SystemExit) as exc:
        main(["--data-dir", env["data"], "branch"])  # missing action
    assert exc.value.code == 2


def test_mutating_command_requires_principal(env):
    with pytest.raises(SystemExit) as exc:
        main(["--data-dir", env["data"], "branch", "create", "dev"])
    assert exc.value.code == 2


EVIL_POLICY = """\
whitelist = []
[[role]]
name = "root"
permissions = ["CreateBranch:*"]
[[principal]]
name = "intern"
roles = ["root"]
"""


@pytest.mark.parametrize("place", ["before-command", "after-command"])
def test_no_caller_picks_the_policy_that_judges_them(env, capsys, place):
    """Only init installs a policy: `--policy` on any other command is a
    usage error, so a principal granted only ReadTable cannot bring a
    policy that grants them CreateBranch."""
    evil = env["tmp"] / "evil.toml"
    evil.write_text(EVIL_POLICY)
    create = ["branch", "create", "evil", "--as", "intern"]
    code, body = run_json(capsys, ["--data-dir", env["data"], *create])
    assert (code, body["error"]) == (1, "Denied")
    flag = ["--policy", str(evil)]
    argv = [*flag, *create] if place == "before-command" else [*create, *flag]
    with pytest.raises(SystemExit) as exc:
        main(["--data-dir", env["data"], *argv])
    assert exc.value.code == 2
    code, body = run_json(capsys, ["--data-dir", env["data"], "branch", "list"])
    assert code == 0 and "evil" not in body["branches"]


@pytest.mark.parametrize("action", ["create", "delete"])
def test_branch_create_and_delete_without_a_name_are_usage_errors(env, capsys, action):
    with pytest.raises(SystemExit) as exc:
        main(["--data-dir", env["data"], "branch", action, "--as", "dana"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: branch {action} needs a branch name\n"


def test_branch_create_list_delete(env, capsys):
    code, body = run_json(capsys, ["--data-dir", env["data"], "branch", "create",
                                   "dev", "--from", "main", "--as", "dana"])
    assert code == 0
    code, body = run_json(capsys, ["--data-dir", env["data"], "branch", "list"])
    assert code == 0 and set(body["branches"]) == {"main", "dev"}
    code, body = run_json(capsys, ["--data-dir", env["data"], "branch", "delete",
                                   "dev", "--as", "dana"])
    assert code == 0 and body["deleted"] is True


@pytest.mark.parametrize("body, canonical", [
    (b"v:int64\n1_0\n", b"v:int64\n10\n"),
    ("v:int64\n \u0661 \n".encode(), b"v:int64\n1\n"),  # an Arabic-Indic one
    (b"v:int64\n01\n", b"v:int64\n1\n"),
    (b"v:float64\n1e3\n", b"v:float64\n1000.0\n"),
    (b"v:float64\n-0.0\n", b"v:float64\n0.0\n"),
    (b'v:string\n"a"\n', b"v:string\na\n"),
    (b"v:float64\nnan\n", None),
    (b"v:float64\ninf\n", None),
    (b"v:int64\n9223372036854775808\n", None),
    (b"v:string\n\xff\n", None),
])
def test_table_import_takes_only_canonical_bytes(env, capsys, body, canonical):
    """A snapshot's id is its file's SHA-256, so `table import` refuses a
    file unless re-encoding what was decoded gives back the file's bytes."""
    data, csv = env["data"], env["tmp"] / "t.csv"
    head = run_json(capsys, ["--data-dir", data, "branch", "list"])[1]["branches"]["main"]
    csv.write_bytes(body)
    code, out = run_json(capsys, ["--data-dir", data, "table", "import", "t",
                                  "--csv", str(csv), "--as", "dana"])
    assert (code, out["error"]) == (1, "CorruptSnapshot")
    assert run_json(capsys, ["--data-dir", data, "branch", "list"])[1]["branches"]["main"] == head
    if canonical is not None:
        csv.write_bytes(canonical)
        code, out = run_json(capsys, ["--data-dir", data, "table", "import", "t",
                                      "--csv", str(csv), "--as", "dana"])
        assert code == 0 and out["snapshot"] == hashlib.sha256(canonical).hexdigest()


def test_a_denied_import_leaves_the_store_empty(tmp_path, capsys):
    """`table import` stores the snapshot only after WriteBranch is allowed,
    so neither a principal without it nor one the policy does not know can
    add to snapshots.log or objects/."""
    data, policy, csv = tmp_path / "lake", tmp_path / "policy.toml", tmp_path / "raw.csv"
    policy.write_text(POLICY)
    csv.write_text(RAW)
    assert main(["--data-dir", str(data), "init", "--policy", str(policy)]) == 0
    for principal in ("intern", "nobody"):
        code, body = run_json(capsys, ["--data-dir", str(data), "table", "import", "raw",
                                       "--csv", str(csv), "--as", principal])
        assert (code, body["error"]) == (1, "Denied")
    assert stored_snapshots(data) == {}


@pytest.mark.parametrize("command", [["branch", "list"], ["runs", "list"],
                                     ["log", "main"], ["verifier", "list"]])
def test_a_read_of_a_missing_data_dir_creates_no_directory(tmp_path, capsys, command):
    """A mistyped --data-dir is read as an empty lake, and nothing is made."""
    data = tmp_path / "typo"
    code = main(["--data-dir", str(data), *command, "--json"])
    assert code in (0, 1)  # `log main` has no main to resolve
    assert not data.exists()


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


def test_data_dir_layout_matches_readme(env, capsys):
    """The top-level entries of a lake with a merged run, a verdict and a
    table over PACK_MAX_BYTES are the names in README's "Data layout" block,
    so adding or dropping a kind of file means updating the README too."""
    data = env["data"]
    big = Path(data).parent / "big.csv"  # the one snapshot that is a file
    big.write_text("k:int64,x:int64\n" + "".join(f"{i},{i * 10}\n" for i in range(100)))
    assert big.stat().st_size > PACK_MAX_BYTES
    assert main(["--data-dir", data, "table", "import", "big", "--csv", str(big),
                 "--as", "dana"]) == 0
    assert main(["--data-dir", data, "verifier", "register", "--name", "nonempty",
                 "--pipeline", "duo", "--check", "SELECT count(*) > 0 AS ok FROM t_b",
                 "--as", "dana"]) == 0
    code, body = run_json(capsys, ["--data-dir", data, "run", env["pipe"], "--as", "dana"])
    assert code == 0 and body["outcome"]["kind"] == "merged"
    assert [v["verdict"] for v in body["verdicts"]] == ["pass"]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## Data layout", 1)[1].split("```")[1]
    lines = block.strip("\n").splitlines()
    assert lines[0] == ".lakekernel/"
    documented = {line.split()[0].split("/")[0] for line in lines[1:]}
    assert {p.name for p in Path(data).iterdir()} == documented


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
    # a fresh runner catches up runs.log, then reads the report's body from it
    assert opened == [Path(os.path.abspath(data)) / "runs.log"] * 2


def test_corrupt_run_reports_are_errors_that_name_the_run(env, capsys):
    """A report that is torn, not JSON, not shaped like a report or about
    another run than its line's key ends `runs show` and `runs list` with
    exit 1 and a CorruptRun error naming the run, whose JSON object is the
    last line on stdout."""
    data = env["data"]
    code, body = run_json(capsys, ["--data-dir", data, "run", env["pipe"], "--as", "dana"])
    run_id = body["run_id"]
    path = Path(data) / "runs.log"
    key = run_id.encode() + b" "
    line = path.read_bytes()
    assert line.startswith(key) and line.endswith(b"\n")
    good = line[len(key):-1]
    report = json.loads(good)
    wrong_types = [{**report, "outcome": 5}, {**report, "pipeline": 7},
                   {**report, "node_results": [{"node": "t_a", "status": None}]},
                   {**report, "outcome": {**report["outcome"], "merge": "x"}},
                   {**report, "verdicts": {}}, {**report, "extra": 1},
                   {**report, "timings": {"t_a": "slow"}},
                   {**report, "run_id": OTHER_RUN}]
    bodies = [b"{}", good[:len(good) // 2], b"\xff", b"[]",
              *(json.dumps(r).encode() for r in wrong_types)]
    for bad in bodies:
        path.write_bytes(key + bad + b"\n")
        for command in (["runs", "show", run_id], ["runs", "list"]):
            code, body = run_json(capsys, ["--data-dir", data, *command])
            assert (code, body["error"]) == (1, "CorruptRun"), (command, bad)
            assert run_id in body["reason"]
            assert main(["--data-dir", data, *command]) == 1
            assert "CorruptRun" in capsys.readouterr().err
    path.write_bytes(line)
    code, body = run_json(capsys, ["--data-dir", data, "runs", "list"])
    assert code == 0 and [r["run_id"] for r in body["runs"]] == [run_id]


_NONEMPTY = ["verifier", "register", "--name", "nonempty", "--pipeline", "duo",
             "--check", "SELECT count(*) > 0 AS ok FROM t_b", "--as", "dana"]


def test_corrupt_verdict_files_refuse_every_merge(env, capsys):
    """One torn, non-JSON or misshapen verdict file ends every governed
    merge, a run's publish included, with a CorruptRecord error naming the
    file: the gate fails closed and main does not move."""
    data = env["data"]
    assert main(["--data-dir", data, *_NONEMPTY]) == 0
    code, body = run_json(capsys, ["--data-dir", data, "run", env["pipe"],
                                   "--no-merge", "--as", "dana"])
    assert code == 0
    temp, path = body["temp_branch"], Path(data) / "verdicts" / f"{body['run_id']}.json"
    good = path.read_bytes()
    head = run_json(capsys, ["--data-dir", data, "branch", "list"])[1]["branches"]["main"]
    for bad in (good[:len(good) // 2], b"\xff", b"{}", b"7", b'["x"]', b"[{}]",
                good.replace(b'"verdict"', b'"extra": 1, "verdict"')):
        path.write_bytes(bad)
        code, body = run_json(capsys, ["--data-dir", data, "merge", temp,
                                       "--into", "main", "--as", "dana"])
        assert (code, body["error"]) == (1, "CorruptRecord"), bad
        assert str(path) in body["reason"]
        code, body = run_json(capsys, ["--data-dir", data, "run", env["pipe"], "--as", "dana"])
        assert (code, body["outcome"]["kind"]) == (1, "denied"), bad
        assert str(path) in body["outcome"]["reason"]
        branches = run_json(capsys, ["--data-dir", data, "branch", "list"])[1]["branches"]
        assert branches["main"] == head
    path.write_bytes(good)
    code, body = run_json(capsys, ["--data-dir", data, "merge", temp,
                                   "--into", "main", "--as", "dana"])
    assert code == 0 and body["kind"] == "fast_forward"


def test_corrupt_verifier_files_are_errors_that_name_the_file(env, capsys):
    """A verifiers.log line whose body is not JSON, or not a verifier's (a
    field missing or not a string), ends `verifier list` with a
    CorruptRecord error naming the verifier and the file, and ends every
    run's verifier step `denied` with a reason naming them: the run is
    reported, its temp branch stays open, and it publishes nothing."""
    data = env["data"]
    assert main(["--data-dir", data, *_NONEMPTY]) == 0
    path, key = Path(data) / "verifiers.log", b"nonempty "
    line = path.read_bytes()
    assert line.startswith(key) and line.endswith(b"\n")
    good = line[len(key):-1]
    body = json.loads(good)
    wrong_types = [{**body, "pipeline": 5}, {**body, "check": None},
                   {k: v for k, v in body.items() if k != "registered_by"}]
    head = run_json(capsys, ["--data-dir", data, "branch", "list"])[1]["branches"]["main"]
    for bad in (good[:len(good) // 2], b"\xff", b"[]", b"{}",
                good.replace(b"SELECT", b"SELEKT"),
                *(json.dumps(w).encode() for w in wrong_types)):
        path.write_bytes(key + bad + b"\n")
        code, body = run_json(capsys, ["--data-dir", data, "verifier", "list"])
        assert (code, body["error"]) == (1, "CorruptRecord"), bad
        assert str(path) in body["reason"] and "'nonempty'" in body["reason"]
        code, report = run_json(capsys, ["--data-dir", data, "run", env["pipe"],
                                         "--as", "dana"])
        assert (code, report["outcome"]["kind"]) == (1, "denied"), bad
        assert report["outcome"]["reason"].startswith("CorruptRecord: ")
        assert str(path) in report["outcome"]["reason"]
        runs = run_json(capsys, ["--data-dir", data, "runs", "list"])[1]["runs"]
        assert report["run_id"] in [r["run_id"] for r in runs]
        branches = run_json(capsys, ["--data-dir", data, "branch", "list"])[1]["branches"]
        assert branches["main"] == head
        assert report["temp_branch"] in branches
    path.write_bytes(line)
    code, body = run_json(capsys, ["--data-dir", data, "verifier", "list"])
    assert code == 0 and [v["name"] for v in body["verifiers"]] == ["nonempty"]


def test_a_leftover_verifiers_directory_fails_closed(env, capsys):
    """A data dir that still holds a verifiers/ directory (one file per
    verifier, before verifiers.log) is never run ungated: `verifier list`
    exits 1 with CorruptRecord, and `run` ends `denied` and publishes
    nothing; no command creates or removes the directory."""
    data = env["data"]
    old = Path(data) / "verifiers"
    old.mkdir()
    (old / "nonempty.json").write_text(json.dumps(
        {"name": "nonempty", "pipeline": "duo", "registered_by": "dana",
         "check": "SELECT count(*) > 0 AS ok FROM t_b"}))
    head = run_json(capsys, ["--data-dir", data, "branch", "list"])[1]["branches"]["main"]
    code, body = run_json(capsys, ["--data-dir", data, "verifier", "list"])
    assert (code, body["error"]) == (1, "CorruptRecord") and str(old) in body["reason"]
    assert main(["--data-dir", data, *_NONEMPTY]) == 0
    code, report = run_json(capsys, ["--data-dir", data, "run", env["pipe"], "--as", "dana"])
    assert (code, report["outcome"]["kind"]) == (1, "denied")
    assert str(old) in report["outcome"]["reason"]
    branches = run_json(capsys, ["--data-dir", data, "branch", "list"])[1]["branches"]
    assert branches["main"] == head and report["temp_branch"] in branches
    assert [p.name for p in old.iterdir()] == ["nonempty.json"]


def _commit_lines(data) -> dict:
    """{commit id: its commits.log line}, in file order."""
    lines = (Path(data) / "commits.log").read_bytes().splitlines(keepends=True)
    return {line[:64].decode(): line for line in lines}


def test_a_misshapen_commit_body_is_corrupt(env, capsys):
    """A commits.log body that hashes to its id but is not a commit's (a
    field missing or extra, or of the wrong type) is CorruptRecord, not a crash."""
    data, path = env["data"], Path(env["data"]) / "commits.log"
    real = json.loads(next(iter(_commit_lines(data).values()))[65:])
    for body in ({"author": "x"}, {**real, "parents": "ab"}, {**real, "tables": [["a", "b"]]},
                 {**real, "timestamp": "0"}, {**real, "tables": {"a": 5}}, [real],
                 {**real, "extra": 1}):
        data_bytes = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        commit_id = hashlib.sha256(data_bytes).hexdigest()
        with open(path, "ab") as f:
            f.write(commit_id.encode() + b" " + data_bytes + b"\n")
        code, out = run_json(capsys, ["--data-dir", data, "log", commit_id])
        assert (code, out["error"]) == (1, "CorruptRecord"), body
        assert commit_id in out["reason"]


@pytest.mark.parametrize("bad", [b"garbage\n", b"\n", b"- \xff main\n", b"- a b c\n"],
                         ids=["one-field", "empty", "non-utf8", "four-fields"])
def test_a_malformed_refs_log_line_is_one_corrupt_record_line(env, capsys, bad):
    path = Path(env["data"]) / "refs.log"
    with open(path, "ab") as f:
        f.write(bad)
    assert main(["--data-dir", env["data"], "branch", "list"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CorruptRecord: ") and err.count("\n") == 1
    assert str(path) in err


def test_a_commit_body_under_another_commits_id_is_corrupt(env, capsys):
    """A body that does not hash to its line's id is CorruptRecord: neither
    a misshapen body under main's head id nor a whole commit's body under
    the root's id is served as that commit."""
    data, path = env["data"], Path(env["data"]) / "commits.log"
    intact = path.read_bytes()
    lines = _commit_lines(data)
    root, head = list(lines)
    code, out = run_json(capsys, ["--data-dir", data, "log", "main"])
    assert code == 0 and [c["id"] for c in out["commits"]] == [head, root]
    for victim, body in ((head, b'{"author":"x"}'), (root, lines[head][65:-1])):
        path.write_bytes(b"".join(line if cid != victim else
                                  victim.encode() + b" " + body + b"\n"
                                  for cid, line in lines.items()))
        for ref in ("main", victim):
            code, out = run_json(capsys, ["--data-dir", data, "log", ref])
            assert (code, out["error"]) == (1, "CorruptRecord"), (victim, ref)
            assert victim in out["reason"]
    path.write_bytes(intact)
    code, out = run_json(capsys, ["--data-dir", data, "log", "main"])
    assert code == 0 and [c["id"] for c in out["commits"]] == [head, root]


def test_conflicting_publish_ends_conflict_with_its_branch_open(env, capsys, monkeypatch):
    """main gains its own t_a while the run's verifier step runs: the publish
    conflicts, so the run ends `conflict`, not `merged`; nothing lands, the
    temp branch stays open and `run` exits 1."""
    data = env["data"]
    real_evaluate = VerifierRegistry.evaluate

    def commit_then_evaluate(self, pipeline, commit_id, run_id):
        sid = self.catalog.store.put_snapshot(TableData.build(["v:int64"], [(7,)]))
        self.catalog.commit_tables("main", {"t_a": sid}, self.catalog.head("main"),
                                   "dana", "race")
        return real_evaluate(self, pipeline, commit_id, run_id)

    monkeypatch.setattr(VerifierRegistry, "evaluate", commit_then_evaluate)
    code, report = run_json(capsys, ["--data-dir", data, "run", env["pipe"], "--as", "dana"])
    assert code == 1
    assert report["outcome"]["kind"] == "conflict"
    assert report["outcome"]["merge"] == {"kind": "conflict", "commit_id": None,
                                          "conflicts": ["t_a"]}
    branches = run_json(capsys, ["--data-dir", data, "branch", "list"])[1]["branches"]
    assert report["temp_branch"] in branches
    log = run_json(capsys, ["--data-dir", data, "log", "main"])[1]["commits"]
    assert log[0]["message"] == "race"  # the race's commit, and no publish after it
    code, shown = run_json(capsys, ["--data-dir", data, "runs", "show", report["run_id"]])
    assert (code, shown) == (0, report)


def _merged_run(capsys, env) -> str:
    code, body = run_json(capsys, ["--data-dir", env["data"], "run", env["pipe"], "--as", "dana"])
    assert code == 0
    return body["run_id"]


def test_torn_runs_log_tail_is_invisible_then_cut_off(env, capsys):
    """A last line with no newline (a writer that died mid-append) is no
    run to `runs list` or `runs show`, even when it holds a whole report;
    the next run's append cuts it off."""
    data, run_id = env["data"], _merged_run(capsys, env)
    path = Path(data) / "runs.log"
    line = path.read_bytes()
    torn = {**json.loads(line.split(b" ", 1)[1]), "run_id": OTHER_RUN}
    with open(path, "ab") as f:
        f.write(OTHER_RUN.encode() + b" " + json.dumps(torn).encode())
    code, out = run_json(capsys, ["--data-dir", data, "runs", "list"])
    assert code == 0 and [r["run_id"] for r in out["runs"]] == [run_id]
    code, out = run_json(capsys, ["--data-dir", data, "runs", "show", OTHER_RUN])
    assert (code, out["error"]) == (1, "UnknownRun")
    second = _merged_run(capsys, env)
    lines = path.read_bytes().split(b"\n")
    assert lines[0] + b"\n" == line and lines[1].startswith(second.encode() + b" ")
    assert lines[2:] == [b""]
    code, out = run_json(capsys, ["--data-dir", data, "runs", "list"])
    assert sorted(r["run_id"] for r in out["runs"]) == sorted([run_id, second])


def test_a_later_runs_log_line_for_a_run_wins(env, capsys):
    data, run_id = env["data"], _merged_run(capsys, env)
    path = Path(data) / "runs.log"
    later = {**json.loads(path.read_bytes().split(b" ", 1)[1]), "pipeline": "later"}
    with open(path, "ab") as f:
        f.write(run_id.encode() + b" " + json.dumps(later).encode() + b"\n")
    code, out = run_json(capsys, ["--data-dir", data, "runs", "show", run_id])
    assert code == 0 and out["pipeline"] == "later"
    code, out = run_json(capsys, ["--data-dir", data, "runs", "list"])
    assert [(r["run_id"], r["pipeline"]) for r in out["runs"]] == [(run_id, "later")]


def test_runs_from_two_processes_each_append_one_line(env, capsys):
    """Two processes each make four `run` calls on one data dir at once:
    runs.log ends with one line per run, and every report reads back."""
    script = r"""
import sys
from lakekernel.cli import main

data, pipe = sys.argv[1], sys.argv[2]
for _ in range(4):
    assert main(["--data-dir", data, "run", pipe, "--no-merge", "--as", "dana"]) == 0
"""
    procs = [subprocess.Popen([sys.executable, "-c", script, env["data"], env["pipe"]],
                              env=child_env(), stdout=subprocess.DEVNULL)
             for _ in range(2)]
    for proc in procs:
        assert proc.wait(timeout=60) == 0
    assert len((Path(env["data"]) / "runs.log").read_bytes().splitlines()) == 8
    code, out = run_json(capsys, ["--data-dir", env["data"], "runs", "list"])
    ids = [r["run_id"] for r in out["runs"]]
    assert code == 0 and len(set(ids)) == 8
    for run_id in ids:
        code, out = run_json(capsys, ["--data-dir", env["data"], "runs", "show", run_id])
        assert code == 0 and out["run_id"] == run_id
        assert out["outcome"]["kind"] == "succeeded_open"


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


def test_heal_that_gives_up_exits_1_with_its_history(env, capsys, tmp_path):
    bad = tmp_path / "bad.pipe"
    bad.write_text(PIPE.replace("x + 1", "x / (k - 1)"))
    patches = tmp_path / "patches"
    patches.mkdir()
    (patches / "01.pipe").write_text(PIPE.replace("x + 1", "x / (k - k)"))
    code, body = run_json(capsys, ["--data-dir", env["data"], "run", str(bad),
                                   "--as", "dana"])
    assert code == 1
    argv = ["--data-dir", env["data"], "heal", "--run", body["run_id"],
            "--patches", str(patches), "--budget", "3", "--as", "dana"]
    code, body = run_json(capsys, argv)
    assert code == 1 and body["gave_up"] is True
    assert [(a["attempt"], a["result"]) for a in body["history"]] == \
        [(0, "failed_open"), (1, "gave_up")]
    assert body["history"][0]["detail"].startswith("node t_a: EvalError")
    assert main(argv) == 1
    assert capsys.readouterr().out.startswith("gave up; attempts:\n  0: failed_open node t_a")


def test_diff_cli(env, capsys):
    data = ["--data-dir", env["data"]]
    assert main(data + ["branch", "create", "dev", "--from", "main", "--as", "dana"]) == 0
    capsys.readouterr()
    assert run_json(capsys, data + ["diff", "main", "dev"]) == (0, {"diff": []})
    assert main(data + ["diff", "main", "dev"]) == 0
    assert capsys.readouterr().out == "no changes\n"
    extra = env["tmp"] / "extra.csv"
    extra.write_text("v:int64\n1\n")
    assert main(data + ["table", "import", "extra", "--csv", str(extra),
                        "--branch", "dev", "--as", "dana"]) == 0
    capsys.readouterr()
    assert run_json(capsys, data + ["diff", "main", "dev"]) == (0, {"diff": [["extra", "Added"]]})
    assert main(data + ["diff", "dev", "main"]) == 0
    assert capsys.readouterr().out == "Removed  extra\n"
    code, body = run_json(capsys, data + ["diff", "main", "nope"])
    assert code == 1 and body["error"] == "UnknownRef"


def test_simulate_and_check_cli(env, capsys, tmp_path):
    from lakekernel.harness import Trace
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
    # the merge count varies with how the agents' threads interleave
    merges = [e.seq for e in Trace.load(out).events if e.fields.get("published_delta")]
    assert body["serializability"]["ok"] is True
    assert sorted(body["serializability"]["witness"]) == merges


def test_check_flags_unserializable_trace(env, capsys, tmp_path):
    from lakekernel.harness import Trace, TraceEvent
    # both merges wrote t, but the final map holds a value neither wrote
    trace = Trace({}, "main", {"t": "s0"}, {"t": "s9"}, {},
                  [TraceEvent(1, 0, "merge", {"published_delta": {"t": "s1"}}),
                   TraceEvent(2, 1, "merge", {"published_delta": {"t": "s2"}})])
    path = tmp_path / "unserializable.json"
    trace.save(path)
    code, body = run_json(capsys, ["--data-dir", env["data"], "check",
                                   "--trace", str(path)])
    assert code == 1
    assert body["isolation"]["ok"] is True
    assert body["serializability"] == {"ok": False, "witness": None}


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


def test_check_refuses_a_file_that_is_not_a_trace(env, capsys, tmp_path):
    from lakekernel.harness import Trace

    path = tmp_path / "trace.json"
    Trace({}, "main", {}, {}).save(path)
    whole = path.read_bytes()
    for bad in (b"", b"\xff", whole[:len(whole) // 2], b"[]", b"{}", b'{"events": []}',
                whole.replace(b'"events": []', b'"events": [{"seq": 1}]'),
                whole.replace(b'"commits": {}', b'"commits": 5'),
                whole.replace(b'"initial_map": {}', b'"initial_map": 5'),
                whole.replace(b'"events": []', b'"events": [{"agent": 0, "fields": 5, '
                                                b'"op": "scan", "seq": 1}]'),
                *(whole.replace(b'"events": []', b'"events": [{"agent": 0, "fields": %s, '
                                                 b'"op": "scan", "seq": 1}]' % fields)
                  for fields in (b'{"reads": 5}', b'{"published_delta": 5}',
                                 b'{"reads": [["t", "s", "u"]]}'))):
        path.write_bytes(bad)
        code, body = run_json(capsys, ["--data-dir", env["data"], "check",
                                       "--trace", str(path)])
        assert (code, body["error"]) == (1, "CorruptRecord"), bad
        assert str(path) in body["reason"]


@pytest.mark.parametrize("case", ["run-a-directory", "import-a-directory",
                                  "run-non-utf8", "init-policy-non-utf8",
                                  "policy-non-utf8", "heal-patch-non-utf8",
                                  "heal-patches-missing", "heal-patches-a-file"])
def test_an_input_file_that_cannot_be_read_is_one_error_line(env, capsys, case):
    data, tmp = env["data"], env["tmp"]
    patches = tmp / "patches"
    patches.mkdir()
    garbled = patches / "garbled"
    garbled.write_bytes(b"\xff\xfe")
    if case == "policy-non-utf8":
        (Path(data) / "policy.toml").write_bytes(b"\xff\xfe")
    argv, named = {
        "run-a-directory": (["run", str(tmp), "--as", "dana"], tmp),
        "import-a-directory": (["table", "import", "raw2", "--csv", str(tmp), "--as", "dana"],
                               tmp),
        "run-non-utf8": (["run", str(garbled), "--as", "dana"], garbled),
        "init-policy-non-utf8": (["init", "--policy", str(garbled)], garbled),
        "policy-non-utf8": (["branch", "list"], Path(data) / "policy.toml"),
        "heal-patch-non-utf8": (["heal", "--run", "r", "--patches", str(patches),
                                 "--as", "dana"], garbled),
        "heal-patches-missing": (["heal", "--run", "r", "--patches", str(tmp / "none"),
                                  "--as", "dana"], tmp / "none"),
        "heal-patches-a-file": (["heal", "--run", "r", "--patches", str(garbled),
                                 "--as", "dana"], garbled)}[case]
    assert main(["--data-dir", data, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(named) in err


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
