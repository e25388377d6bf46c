"""Byte pins for every persisted or printed record: run reports of each
outcome kind, verdict files, audit lines, a saved trace, and the `run`,
`runs show`, `log` and `merge` JSON of the CLI. The expected strings are
frozen, so any change to how a record is encoded shows here first."""
import contextlib
import io
import itertools
from types import SimpleNamespace

import pytest

from conftest import make_kernel
from lakekernel import kernel as kernel_module
from lakekernel import runner
from lakekernel.cli import main
from lakekernel.governance import parse_policy
from lakekernel.harness import Trace
from lakekernel.harness.trace import TraceEvent
from lakekernel.runner import RunOptions
from lakekernel.store import TableData
from lakekernel.util import DeterministicIds, FixedClock

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
pipeline duo
node bad:
  inputs: raw
  env: runtime=python3.10 packages=[pandas==2.0]
  materialize: REPLACE
  query: SELECT k, x / (k - 1) AS r FROM raw
"""

# alice may do everything but merge
NO_MERGE_POLICY = """\
whitelist = ["pandas==2.0", "polars==0.88"]
[[role]]
name = "maker"
permissions = ["ReadTable:*:*", "WriteBranch:*", "CreateBranch:*", "RunPipeline:*", "RegisterVerifier"]
[[principal]]
name = "alice"
roles = ["maker"]
"""

# the ids every run below produces, and the formatted pipeline texts
NAMES = {
    "@RUN@": "6258cbe0-7c1f-4081-be54-a4883a969e54",
    "@BASE@": "84679b6032614ea13c0503634daf50282e28e38b97182d41cab3ff9d0dbb4235",
    "@T_A@": "b08462d231c56cc5ec05eeaf33718179e70b1ae7b1d7b56b59e376e997027e9b",
    "@T_B@": "1de2c742104aa0ed2a5d3f70f0fafd67e48e359fe046ec3b1e587ea0571ba099",
    "@DUO@": r"pipeline duo\nnode t_a:\n  inputs: raw\n  env: runtime=python3.10 "
             r"packages=[pandas==2.0]\n  materialize: REPLACE\n  query: SELECT k, "
             r"(x + 1) AS x FROM raw\nnode t_b:\n  inputs: t_a\n  env: "
             r"runtime=python3.11 packages=[polars==0.88]\n  materialize: REPLACE\n"
             r"  query: SELECT k, (x * 2) AS x FROM t_a\n",
    "@DIV0@": r"pipeline duo\nnode bad:\n  inputs: raw\n  env: runtime=python3.10 "
              r"packages=[pandas==2.0]\n  materialize: REPLACE\n  query: SELECT k, "
              r"(x / (k - 1)) AS r FROM raw\n",
}


def _expand(text: str) -> str:
    for name, value in NAMES.items():
        text = text.replace(name, value)
    return text


PASSED = ('[{"detail": "", "evaluated_at": "@T_B@", "run_id": "@RUN@", '
          '"verdict": "pass", "verifier": "nonempty"}]')
REJECTED = ('[{"detail": "check returned false", "evaluated_at": "@T_B@", '
            '"run_id": "@RUN@", "verdict": "fail", "verifier": "nonempty"}]')
BOTH_NODES = ('[{"commit_id": "@T_A@", "error": null, "node": "t_a", "status": "succeeded"}, '
              '{"commit_id": "@T_B@", "error": null, "node": "t_b", "status": "succeeded"}]')

# kind -> (persisted report, verdict file or None, last audit line)
PINNED = {
    "merged": (
        '{"base_commit": "@BASE@", "node_results": ' + BOTH_NODES + ', "outcome": '
        '{"kind": "merged", "merge": {"commit_id": "@T_B@", "conflicts": [], '
        '"kind": "fast_forward"}, "node_order": [], "reason": null, "rejected": [], '
        '"temp_branch": "run/duo/@RUN@"}, "pipeline": "duo", "pipeline_text": "@DUO@", '
        '"run_id": "@RUN@", "target_branch": "main", "temp_branch": "run/duo/@RUN@", '
        '"timings": {"t_a": 1000.0, "t_b": 1000.0}, "verdicts": ' + PASSED + '}',
        PASSED,
        '{"action": "MergeInto:main", "allowed": true, "principal": "alice", '
        '"reason": "granted by MergeInto:*", "seq": 7}'),
    "failed_open": (
        '{"base_commit": "@BASE@", "node_results": [{"commit_id": "@T_A@", "error": null, '
        '"node": "t_a", "status": "succeeded"}, {"commit_id": null, "error": null, '
        '"node": "t_b", "status": "skipped"}], "outcome": {"kind": "failed_open", '
        '"merge": null, "node_order": [], "reason": null, "rejected": [], '
        '"temp_branch": "run/duo/@RUN@"}, "pipeline": "duo", "pipeline_text": "@DUO@", '
        '"run_id": "@RUN@", "target_branch": "main", "temp_branch": "run/duo/@RUN@", '
        '"timings": {"t_a": 1000.0}, "verdicts": []}',
        None,
        '{"action": "WriteBranch:run/duo/@RUN@", "allowed": true, "principal": "alice", '
        '"reason": "granted by WriteBranch:*", "seq": 5}'),
    "failed_node": (
        '{"base_commit": "@BASE@", "node_results": [{"commit_id": null, '
        '"error": "EvalError: division by zero", "node": "bad", "status": "failed"}], '
        '"outcome": {"kind": "failed_open", "merge": null, "node_order": [], '
        '"reason": null, "rejected": [], "temp_branch": "run/duo/@RUN@"}, '
        '"pipeline": "duo", "pipeline_text": "@DIV0@", "run_id": "@RUN@", '
        '"target_branch": "main", "temp_branch": "run/duo/@RUN@", '
        '"timings": {"bad": 1000.0}, "verdicts": []}',
        None,
        '{"action": "CreateBranch:run/duo/@RUN@", "allowed": true, "principal": "alice", '
        '"reason": "granted by CreateBranch:*", "seq": 4}'),
    "verifier_rejected": (
        '{"base_commit": "@BASE@", "node_results": ' + BOTH_NODES + ', "outcome": '
        '{"kind": "verifier_rejected", "merge": null, "node_order": [], "reason": null, '
        '"rejected": ["nonempty"], "temp_branch": "run/duo/@RUN@"}, "pipeline": "duo", '
        '"pipeline_text": "@DUO@", "run_id": "@RUN@", "target_branch": "main", '
        '"temp_branch": "run/duo/@RUN@", "timings": {"t_a": 1000.0, "t_b": 1000.0}, '
        '"verdicts": ' + REJECTED + '}',
        REJECTED,
        '{"action": "WriteBranch:run/duo/@RUN@", "allowed": true, "principal": "alice", '
        '"reason": "granted by WriteBranch:*", "seq": 6}'),
    "denied": (
        '{"base_commit": "@BASE@", "node_results": ' + BOTH_NODES + ', "outcome": '
        '{"kind": "denied", "merge": null, "node_order": [], "reason": '
        '"\'alice\' holds no permission matching MergeInto:main", "rejected": [], '
        '"temp_branch": "run/duo/@RUN@"}, "pipeline": "duo", "pipeline_text": "@DUO@", '
        '"run_id": "@RUN@", "target_branch": "main", "temp_branch": "run/duo/@RUN@", '
        '"timings": {"t_a": 1000.0, "t_b": 1000.0}, "verdicts": ' + PASSED + '}',
        PASSED,
        '{"action": "MergeInto:main", "allowed": false, "principal": "alice", '
        '"reason": "\'alice\' holds no permission matching MergeInto:main", "seq": 7}'),
    "succeeded_open": (
        '{"base_commit": "@BASE@", "node_results": ' + BOTH_NODES + ', "outcome": '
        '{"kind": "succeeded_open", "merge": null, "node_order": [], "reason": null, '
        '"rejected": [], "temp_branch": "run/duo/@RUN@"}, "pipeline": "duo", '
        '"pipeline_text": "@DUO@", "run_id": "@RUN@", "target_branch": "main", '
        '"temp_branch": "run/duo/@RUN@", "timings": {"t_a": 1000.0, "t_b": 1000.0}, '
        '"verdicts": ' + PASSED + '}',
        PASSED,
        '{"action": "WriteBranch:run/duo/@RUN@", "allowed": true, "principal": "alice", '
        '"reason": "granted by WriteBranch:*", "seq": 6}'),
}


def _ticks():
    """perf_counter stand-in: whole seconds, so every node timing is 1000.0 ms."""
    clock = iter(range(10_000))
    return SimpleNamespace(perf_counter=lambda: float(next(clock)))


def _run(tmp_path, monkeypatch, kind):
    policy = parse_policy(NO_MERGE_POLICY) if kind == "denied" else None
    kernel = make_kernel(tmp_path / kind, policy=policy, clock=FixedClock(0))
    monkeypatch.setattr(runner, "time", _ticks())
    table = TableData.build(["k:int64", "x:int64"], [(1, 10), (2, 15)])
    kernel.catalog.commit_tables("main", {"raw": kernel.store.put_snapshot(table)},
                                 kernel.catalog.head("main"), "alice", "seed raw")
    least = 5 if kind == "verifier_rejected" else 0
    kernel.register_verifier("nonempty", "duo",
                             f"SELECT count(*) > {least} AS ok FROM t_b", "alice")
    opts = {"failed_open": {"fail_after": "t_a"},
            "succeeded_open": {"skip_merge": True}}.get(kind, {})
    report = kernel.run(DIV0 if kind == "failed_node" else PIPE, "main",
                        RunOptions(principal="alice", **opts))
    assert report.outcome.kind == ("failed_open" if kind == "failed_node" else kind)
    return kernel, report


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_run_report_verdict_and_audit_bytes(tmp_path, monkeypatch, capsys, kind):
    kernel, report = _run(tmp_path, monkeypatch, kind)
    want_report, want_verdicts, want_audit = PINNED[kind]
    data = kernel.data_dir
    assert (data / "runs.log").read_text("utf-8") == \
        report.run_id + " " + _expand(want_report) + "\n"
    verdicts = data / "verdicts" / f"{report.run_id}.json"
    if want_verdicts is None:
        assert not verdicts.exists()
    else:
        assert verdicts.read_text("utf-8") == _expand(want_verdicts)
    assert (data / "audit.log").read_text("utf-8").splitlines()[-1] == _expand(want_audit)
    # `runs show --json` prints the persisted bytes
    assert main(["--data-dir", str(data), "runs", "show", report.run_id, "--json"]) == 0
    assert capsys.readouterr().out == _expand(want_report) + "\n"


SAVED_TRACE = """\
{
  "commits": {
    "c1": {
      "raw": "s1"
    },
    "c2": {
      "out": "s3",
      "raw": "s2"
    }
  },
  "events": [
    {
      "agent": 0,
      "fields": {
        "pinned": "c1",
        "ref": "main"
      },
      "op": "session_open",
      "seq": 1
    },
    {
      "agent": 0,
      "fields": {
        "kind": "fast_forward",
        "new_head": "c2",
        "tables": [
          "raw",
          "out"
        ]
      },
      "op": "merge",
      "seq": 2
    }
  ],
  "final_map": {
    "out": "s3",
    "raw": "s2"
  },
  "initial_map": {
    "raw": "s1"
  },
  "target": "main",
  "workload": {
    "mix": {
      "a": 0.5,
      "b": 1.0
    },
    "n_agents": 1,
    "ops_per_agent": 2,
    "seed": 3
  }
}"""


def test_saved_trace_bytes(tmp_path):
    trace = Trace({"n_agents": 1, "ops_per_agent": 2, "seed": 3,
                   "mix": {"b": 1.0, "a": 0.5}},
                  "main", {"raw": "s1"}, {"raw": "s2", "out": "s3"},
                  {"c1": {"raw": "s1"}, "c2": {"raw": "s2", "out": "s3"}},
                  [TraceEvent(1, 0, "session_open", {"pinned": "c1", "ref": "main"}),
                   TraceEvent(2, 0, "merge", {"kind": "fast_forward", "new_head": "c2",
                                              "tables": ["raw", "out"]})])
    trace.save(tmp_path / "t.json")
    assert (tmp_path / "t.json").read_text("utf-8") == SAVED_TRACE


CLI_POLICY = """\
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

ROOT = "41d1726479c16bbc4fe8a37e1605a6886fc0b32089c070304533f3ae510c9f1c"
C_RAW = "e0cb3a4db86fff5410cc0d4943ea2169f306edec3e61d064844522130a5d055e"
C_EXTRA = "74e87cf039a02403511b90b98795868e596cdb6750cd06cd27228e754cf9acb1"
C_SIDE = "1f8178b9e2cf86cb2ed6a6eb177dd4df66658107bb5a395e646a8ba57a8435f0"
C_MERGE = "5089ab6713b24d651dff9f8e0e5c2a7b24bd3995b0e353b92da3ea8b843febd7"
C_RAW2 = "77061eb338335ffa6dc583e6fe88e827474267cab54d58c2845c91b12313c99a"
S_RAW = "f639b8cd150267182cfc4936cb90888079daf0395514ef4cd019d70300f61549"
S_EXTRA = "e57436844301e6f4f40361d6a41e6d6d18e1ea805de2f92602a7a76b9b2aa69c"
S_SIDE = "74763908eee2858708be272b7868ff2c6650fae326bf443cc4a0be23db9ab38d"
S_RAW2 = "eb389f4a09727e08ad6e21e6c6bef01a6294063378d8223c65d5566b5d941990"


def test_cli_json_bytes_of_a_fixed_clock_lake(tmp_path, monkeypatch):
    """A lake driven only through the CLI, with the kernel's clock fixed at 0
    and its run ids seeded, prints the same bytes every time."""
    monkeypatch.setattr(kernel_module, "SystemClock", FixedClock)
    monkeypatch.setattr(kernel_module, "RandomIds", lambda: DeterministicIds(77))
    data = str(tmp_path / "lake")
    (tmp_path / "policy.toml").write_text(CLI_POLICY)
    (tmp_path / "duo.pipe").write_text(PIPE)

    def csv(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    def cli(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--data-dir", data, *argv, "--json"])
        return code, out.getvalue()

    assert cli("init", "--policy", str(tmp_path / "policy.toml"))[0] == 0
    raw = csv("raw.csv", "k:int64,x:int64\n1,10\n2,20\n")
    assert cli("table", "import", "raw", "--csv", raw, "--as", "dana")[0] == 0
    assert cli("run", str(tmp_path / "duo.pipe"), "--dry-run", "--as", "dana") == (0, (
        '{"base_commit": "' + C_RAW + '", "node_results": [], "outcome": '
        '{"kind": "dry_run", "merge": null, "node_order": ["t_a", "t_b"], '
        '"reason": null, "rejected": [], "temp_branch": null}, "pipeline": "duo", '
        '"pipeline_text": "' + NAMES["@DUO@"] + '", "run_id": "' + NAMES["@RUN@"] + '", '
        '"target_branch": "main", "temp_branch": null, "timings": {}, "verdicts": []}\n'))
    assert cli("branch", "create", "dev", "--as", "dana")[0] == 0
    assert cli("table", "import", "extra", "--csv", csv("e.csv", "v:int64\n7\n"),
               "--branch", "dev", "--as", "dana")[0] == 0
    assert cli("table", "import", "side", "--csv", csv("s.csv", "v:int64\n8\n"),
               "--as", "dana")[0] == 0
    assert cli("merge", "dev", "--into", "main", "--as", "dana") == (0, (
        '{"commit_id": "' + C_MERGE + '", "conflicts": [], "kind": "merge_commit"}\n'))
    assert cli("branch", "create", "b1", "--as", "dana")[0] == 0
    assert cli("table", "import", "raw", "--csv", csv("r1.csv", "k:int64,x:int64\n1,11\n"),
               "--branch", "b1", "--as", "dana")[0] == 0
    assert cli("table", "import", "raw", "--csv", csv("r2.csv", "k:int64,x:int64\n1,12\n"),
               "--as", "dana")[0] == 0
    assert cli("merge", "b1", "--into", "main", "--as", "dana") == (1, (
        '{"commit_id": null, "conflicts": ["raw"], "kind": "conflict"}\n'))
    assert cli("merge", "b1", "--into", "main", "--as", "intern")[0] == 1
    assert cli("log", "main") == (0, (
        '{"commits": ['
        '{"author": "dana", "id": "' + C_RAW2 + '", "message": "import raw", '
        '"parents": ["' + C_MERGE + '"], "tables": {"extra": "' + S_EXTRA + '", '
        '"raw": "' + S_RAW2 + '", "side": "' + S_SIDE + '"}, "timestamp": 0}, '
        '{"author": "dana", "id": "' + C_MERGE + '", "message": "merge into main", '
        '"parents": ["' + C_SIDE + '", "' + C_EXTRA + '"], "tables": {"extra": "'
        + S_EXTRA + '", "raw": "' + S_RAW + '", "side": "' + S_SIDE + '"}, '
        '"timestamp": 0}, '
        '{"author": "dana", "id": "' + C_SIDE + '", "message": "import side", '
        '"parents": ["' + C_RAW + '"], "tables": {"raw": "' + S_RAW + '", '
        '"side": "' + S_SIDE + '"}, "timestamp": 0}, '
        '{"author": "dana", "id": "' + C_RAW + '", "message": "import raw", '
        '"parents": ["' + ROOT + '"], "tables": {"raw": "' + S_RAW + '"}, '
        '"timestamp": 0}, '
        '{"author": "system", "id": "' + ROOT + '", "message": "root", '
        '"parents": [], "tables": {}, "timestamp": 0}]}\n'))
    audit = (tmp_path / "lake" / "audit.log").read_text("utf-8").splitlines()
    assert audit[-2:] == [
        '{"action": "MergeInto:main", "allowed": true, "principal": "dana", '
        '"reason": "granted by MergeInto:*", "seq": 11}',
        '{"action": "MergeInto:main", "allowed": false, "principal": "intern", '
        '"reason": "\'intern\' holds no permission matching MergeInto:main", "seq": 12}']


def _fixed_clock_lake(tmp_path, monkeypatch):
    """The lake of the test above, rebuilt through the CLI; each kernel the
    CLI opens draws its run ids from the next seed. Returns the CLI caller."""
    monkeypatch.setattr(kernel_module, "SystemClock", FixedClock)
    seeds = itertools.count(77)
    monkeypatch.setattr(kernel_module, "RandomIds", lambda: DeterministicIds(next(seeds)))
    data = str(tmp_path / "lake")
    (tmp_path / "policy.toml").write_text(CLI_POLICY)

    def cli(*argv, as_json=True):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--data-dir", data, *argv] + (["--json"] if as_json else []))
        return code, out.getvalue()

    def csv(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    assert cli("init", "--policy", str(tmp_path / "policy.toml"))[0] == 0
    for argv in (["table", "import", "raw", "--csv", csv("raw.csv", "k:int64,x:int64\n1,10\n2,20\n")],
                 ["branch", "create", "dev"],
                 ["table", "import", "extra", "--csv", csv("e.csv", "v:int64\n7\n"), "--branch", "dev"],
                 ["table", "import", "side", "--csv", csv("s.csv", "v:int64\n8\n")],
                 ["merge", "dev", "--into", "main"],
                 ["branch", "create", "b1"],
                 ["table", "import", "raw", "--csv", csv("r1.csv", "k:int64,x:int64\n1,11\n"),
                  "--branch", "b1"],
                 ["table", "import", "raw", "--csv", csv("r2.csv", "k:int64,x:int64\n1,12\n")]):
        assert cli(*argv, "--as", "dana")[0] == 0
    return cli


def test_cli_runs_list_and_human_log_bytes(tmp_path, monkeypatch):
    """`runs list` in both forms, before and after three runs, and human
    `log`, on the fixed-clock lake."""
    cli = _fixed_clock_lake(tmp_path, monkeypatch)
    assert cli("runs", "list") == (0, '{"runs": []}\n')
    assert cli("runs", "list", as_json=False) == (0, "no runs\n")
    assert cli("log", "main", as_json=False) == (0, (
        C_RAW2[:12] + " dana       import raw\n"
        + C_MERGE[:12] + " dana       merge into main\n"
        + C_SIDE[:12] + " dana       import side\n"
        + C_RAW[:12] + " dana       import raw\n"
        + ROOT[:12] + " system     root\n"))
    (tmp_path / "duo.pipe").write_text(PIPE)
    for flags, code in (([], 0), (["--no-merge"], 0), (["--fail-after", "t_a"], 1)):
        assert cli("run", str(tmp_path / "duo.pipe"), *flags, "--as", "dana")[0] == code
    merged, review, failed = ("d0f82525-7762-4d86-b6ac-9c29bc9e2b39",
                              "ef96e022-e649-4ec6-b95d-a216f8efc151",
                              "f85507da-4c69-49d2-909a-a85ead7bf074")
    assert cli("runs", "list") == (0, (
        '{"runs": [{"outcome": "merged", "pipeline": "duo", "run_id": "' + merged + '"}, '
        '{"outcome": "succeeded_open", "pipeline": "duo", "run_id": "' + review + '"}, '
        '{"outcome": "failed_open", "pipeline": "duo", "run_id": "' + failed + '"}]}\n'))
    assert cli("runs", "list", as_json=False) == (0, (
        merged + " duo              merged\n"
        + review + " duo              succeeded_open\n"
        + failed + " duo              failed_open\n"))
    assert cli("log", "main", as_json=False)[1].split("\n")[:3] == [
        "b71361e0d4a0 dana       materialize t_b",
        "2beab32a663d dana       materialize t_a",
        C_RAW2[:12] + " dana       import raw"]
