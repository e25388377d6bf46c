"""Git-style command surface over the kernel.

Exit codes: 0 success, 1 domain error (Denied, Conflict, FailedOpen, ...),
2 usage error. Every command takes --json for machine-readable output;
no command ever prompts.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from . import governance, healer
from .engine import parse_pipeline
from .errors import CorruptSnapshot, LakeError
from .harness import Trace, WorkloadSpec, check_isolation, check_serializability, simulate
from .kernel import LakeKernel
from .runner import DRY_RUN, MERGED, RunOptions, SUCCEEDED_OPEN
from .store import TableData, decode_table, encode_table
from .util import atomic_write

DEFAULT_DATA_DIR = ".lakekernel"


class _Ctx:
    def __init__(self, args):
        self.args = args
        self.data_dir = Path(args.data_dir)
        self.as_json = args.json
        self._kernel = None

    @property
    def principal(self) -> str | None:
        return self.args.principal or os.environ.get("LAKE_PRINCIPAL")

    def require_principal(self) -> str:
        return self.principal or _usage_error(
            "this command needs --as <principal> or LAKE_PRINCIPAL")

    def kernel(self) -> LakeKernel:
        if self._kernel is None:
            # only init writes the policy: no caller picks the one that judges them
            policy = governance.EMPTY_POLICY
            path = self.data_dir / "policy.toml"
            if path.exists():
                policy = governance.parse_policy(_read_text(path))
            self._kernel = LakeKernel(self.data_dir, policy=policy)
        return self._kernel

    def emit(self, payload: dict, human: str) -> None:
        if self.as_json:
            print(json.dumps(payload, sort_keys=True))
        elif human:
            print(human)

    def emit_each(self, key: str, items, payload, human, empty: str = "") -> None:
        """emit({key: [payload(i), ...]}, the human(i) lines or `empty`),
        written one item at a time: no list or string of all items is built."""
        out = sys.stdout
        sep = ""
        if self.as_json:
            out.write(f'{{"{key}": [')
        try:
            for item in items:
                out.write(sep + json.dumps(payload(item), sort_keys=True) if self.as_json
                          else human(item) + "\n")
                sep = ", "
        except LakeError:
            if self.as_json:
                out.write("\n")  # the error object goes on a line of its own
            raise
        if self.as_json:
            out.write("]}\n")
        elif not sep and empty:
            print(empty)


def _usage_error(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _render_table(table: TableData) -> str:
    names = table.schema.names()
    cells = [names] + [[_cell(v) for v in row] for row in table.rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(names))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _table_json(table: TableData) -> dict:
    return {"columns": [list(c) for c in table.schema.columns],
            "rows": [list(r) for r in table.rows]}


def _read_text(path) -> str:
    """An input file's text. A file that is not UTF-8 is an OSError that
    names it, as a missing file's is."""
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None


# --- commands ---------------------------------------------------------------

def cmd_init(ctx: _Ctx) -> int:
    if ctx.args.policy:  # the kernel creates the data dir when there is none
        text = _read_text(ctx.args.policy)
        governance.parse_policy(text)  # reject bad files before creating anything
        ctx.data_dir.mkdir(parents=True, exist_ok=True)
        atomic_write(ctx.data_dir / "policy.toml", text.encode("utf-8"))
    root = ctx.kernel().init()
    ctx.emit({"root": root.id, "data_dir": str(ctx.data_dir)},
             f"initialized {ctx.data_dir} (root {root.id[:12]})")
    return 0


def cmd_branch(ctx: _Ctx) -> int:
    kernel = ctx.kernel()
    action = ctx.args.action
    if action == "list":
        refs = kernel.catalog.branches()
        human = "\n".join(f"{name} {head[:12]}" for name, head in sorted(refs.items()))
        ctx.emit({"branches": refs}, human)
        return 0
    if ctx.args.name is None:
        _usage_error(f"branch {action} needs a branch name")
    principal = ctx.require_principal()
    if action == "create":
        head = kernel.create_branch(ctx.args.name, ctx.args.from_ref, principal)
        ctx.emit({"branch": ctx.args.name, "head": head},
                 f"created {ctx.args.name} at {head[:12]}")
        return 0
    deleted = kernel.delete_branch(ctx.args.name, principal)
    ctx.emit({"branch": ctx.args.name, "deleted": deleted},
             f"deleted {ctx.args.name}" if deleted else f"no branch {ctx.args.name}")
    return 0


def cmd_log(ctx: _Ctx) -> int:
    catalog = ctx.kernel().catalog
    # resolve first, so an unknown ref prints the error alone
    commits = catalog.walk(catalog.resolve(ctx.args.ref))
    ctx.emit_each("commits", commits, asdict,
                  lambda c: f"{c.id[:12]} {c.author:<10} {c.message}")
    return 0


def cmd_diff(ctx: _Ctx) -> int:
    entries = ctx.kernel().catalog.diff(ctx.args.ref_a, ctx.args.ref_b)
    human = "\n".join(f"{status:<8} {name}" for name, status in entries) or "no changes"
    ctx.emit({"diff": [[n, s] for n, s in entries]}, human)
    return 0


def cmd_table_import(ctx: _Ctx) -> int:
    principal = ctx.require_principal()
    kernel = ctx.kernel()
    data = Path(ctx.args.csv).read_bytes()
    table = decode_table(data)
    if encode_table(table) != data:  # the file's SHA-256 must be the snapshot id
        raise CorruptSnapshot(f"{ctx.args.csv} is not in canonical snapshot form")
    head = kernel.catalog.head(ctx.args.branch)
    commit = kernel.commit_tables(ctx.args.branch, {ctx.args.name: table}, head,
                                  principal, f"import {ctx.args.name}")
    sid = commit.tables[ctx.args.name]
    ctx.emit({"table": ctx.args.name, "snapshot": sid, "commit": commit.id,
              "rows": table.num_rows()},
             f"imported {ctx.args.name} ({table.num_rows()} rows) as {sid[:12]}")
    return 0


def cmd_query(ctx: _Ctx) -> int:
    principal = ctx.require_principal()
    result = ctx.kernel().query(ctx.args.sql, ctx.args.ref, principal)
    ctx.emit(_table_json(result), _render_table(result))
    return 0


def _report_human(report) -> str:
    lines = [f"run {report.run_id} pipeline={report.pipeline} "
             f"target={report.target_branch} outcome={report.outcome.kind}"]
    for r in report.node_results:
        ms = report.timings.get(r.node)
        timing = f" ({ms:.1f} ms)" if ms is not None else ""
        detail = r.commit_id[:12] if r.commit_id else (r.error or "")
        lines.append(f"  {r.node:<16} {r.status:<10} {detail}{timing}")
    if report.outcome.merge is not None:
        m = report.outcome.merge
        lines.append(f"  merge: {m.kind} {m.commit_id[:12] if m.commit_id else ''}"
                     f"{' conflicts=' + ','.join(m.conflicts) if m.conflicts else ''}")
    if report.outcome.kind == "failed_open":
        lines.append(f"  temp branch left open: {report.temp_branch}")
    if report.outcome.rejected:
        lines.append(f"  rejected by verifiers: {', '.join(report.outcome.rejected)}")
    if report.outcome.reason:
        lines.append(f"  reason: {report.outcome.reason}")
    return "\n".join(lines)


def _run_exit_code(report) -> int:
    return 0 if report.outcome.kind in (DRY_RUN, MERGED, SUCCEEDED_OPEN) else 1


def cmd_run(ctx: _Ctx) -> int:
    principal = ctx.require_principal()
    text = _read_text(ctx.args.pipeline)
    opts = RunOptions(principal=principal, fail_after=ctx.args.fail_after,
                      dry_run=ctx.args.dry_run, skip_merge=ctx.args.no_merge)
    report = ctx.kernel().run(text, ctx.args.branch, opts)
    ctx.emit(asdict(report), _report_human(report))
    return _run_exit_code(report)


def cmd_merge(ctx: _Ctx) -> int:
    principal = ctx.require_principal()
    result = ctx.kernel().merge(ctx.args.source, ctx.args.into, principal)
    human = f"merge: {result.kind}"
    if result.commit_id:
        human += f" {result.commit_id[:12]}"
    if result.conflicts:
        human += " conflicts=" + ",".join(result.conflicts)
    ctx.emit(asdict(result), human)
    return 0 if result.ok else 1


def cmd_verifier(ctx: _Ctx) -> int:
    kernel = ctx.kernel()
    action = ctx.args.action
    if action == "register":
        principal = ctx.require_principal()
        spec = kernel.register_verifier(ctx.args.name, ctx.args.pipeline,
                                        ctx.args.check, principal)
        ctx.emit({"verifier": spec.name, "pipeline": spec.pipeline},
                 f"registered verifier {spec.name}")
        return 0
    if action == "list":
        specs = kernel.verifiers.list_verifiers()
        payload = [{"name": s.name, "pipeline": s.pipeline,
                    "registered_by": s.registered_by} for s in specs]
        human = "\n".join(f"{s.name} (pipeline {s.pipeline}, "
                          f"by {s.registered_by})" for s in specs)
        ctx.emit({"verifiers": payload}, human or "no verifiers")
        return 0
    records = kernel.run_verifiers(ctx.args.run_id)
    human = "\n".join(f"{r.verifier}: {r.verdict} {r.detail}".rstrip()
                      for r in records)
    ctx.emit({"verdicts": [asdict(r) for r in records]}, human or "no matching verifiers")
    return 0 if all(r.verdict == "pass" for r in records) else 1


def cmd_runs(ctx: _Ctx) -> int:
    kernel = ctx.kernel()
    action = ctx.args.action
    if action == "list":
        ctx.emit_each("runs", (kernel.get_run(i) for i in kernel.runner.run_ids()),
                      lambda r: {"run_id": r.run_id, "pipeline": r.pipeline,
                                 "outcome": r.outcome.kind},
                      lambda r: f"{r.run_id} {r.pipeline:<16} {r.outcome.kind}",
                      empty="no runs")
        return 0
    if action == "show":
        report = kernel.get_run(ctx.args.run_id)
        ctx.emit(asdict(report), _report_human(report))
        return 0
    principal = ctx.require_principal()
    deleted = kernel.cleanup_temp(ctx.args.run_id, principal)
    ctx.emit({"run_id": ctx.args.run_id, "deleted_branch": deleted},
             "temp branch deleted" if deleted else "nothing to delete")
    return 0


def cmd_simulate(ctx: _Ctx) -> int:
    spec = WorkloadSpec(ctx.args.agents, ctx.args.ops, ctx.args.seed)
    sim_dir = tempfile.mkdtemp(prefix="lakekernel-sim-")
    trace = simulate(sim_dir, spec)
    trace.save(ctx.args.out)
    violations = check_isolation(trace)
    payload = {"events": len(trace.events), "out": ctx.args.out,
               "isolation_violations": len(violations), "data_dir": sim_dir}
    ctx.emit(payload, f"simulated {spec.n_agents} agents x {spec.ops_per_agent} ops "
                      f"(seed {spec.seed}): {len(trace.events)} events, "
                      f"{len(violations)} isolation violations -> {ctx.args.out}")
    return 0 if not violations else 1


def cmd_check(ctx: _Ctx) -> int:
    trace = Trace.load(ctx.args.trace)
    violations = check_isolation(trace)
    ok, witness = check_serializability(trace)
    payload = {"isolation": {"ok": not violations, "violations": violations},
               "serializability": {"ok": ok, "witness": witness}}
    human = (f"isolation: {'ok' if not violations else f'{len(violations)} violations'}\n"
             f"serializability: {'ok' if ok else 'VIOLATION'}")
    ctx.emit(payload, human)
    return 0 if not violations and ok else 1


def cmd_heal(ctx: _Ctx) -> int:
    principal = ctx.require_principal()
    kernel = ctx.kernel()
    patches = []
    for path in sorted(Path(ctx.args.patches).iterdir()):
        if path.is_file():
            patches.append(parse_pipeline(_read_text(path)))
    agent = healer.BaselineAgent(patches)
    result = healer.heal(kernel, ctx.args.run_id, agent, ctx.args.budget, principal)
    report = result.proposal
    if report is not None:
        diff = kernel.catalog.diff(report.target_branch, report.temp_branch)
        payload = {"proposal": report.temp_branch, "attempts": len(result.history),
                   "diff": [[n, s] for n, s in diff], "run_id": report.run_id}
        human = (f"proposal ready on {report.temp_branch} after "
                 f"{len(result.history)} attempt(s); diff vs {report.target_branch}: "
                 + ", ".join(f"{n}({s})" for n, s in diff))
        ctx.emit(payload, human)
        return 0
    payload = {"gave_up": True,
               "history": [{"attempt": a.index, "result": a.result,
                            "detail": a.detail} for a in result.history]}
    human = "gave up; attempts:\n" + "\n".join(
        f"  {a.index}: {a.result} {a.detail}" for a in result.history)
    ctx.emit(payload, human)
    return 1


def cmd_approve(ctx: _Ctx) -> int:
    principal = ctx.require_principal()
    kernel = ctx.kernel()
    report = healer.find_proposal(kernel, ctx.args.proposal)
    result = healer.approve(kernel, report, principal)
    ctx.emit(asdict(result), f"approve: {result.kind} "
                             f"{result.commit_id[:12] if result.commit_id else ''}")
    return 0 if result.ok else 1


# --- argument wiring ------------------------------------------------------------

_GLOBAL_DEFAULTS = {"data_dir": DEFAULT_DATA_DIR, "principal": None, "json": False}


def _common_flags() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from clobbering a value parsed before the
    # subcommand; main() fills in the defaults afterwards
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--data-dir", default=argparse.SUPPRESS)
    common.add_argument("--as", dest="principal", default=argparse.SUPPRESS,
                        help="acting principal (or LAKE_PRINCIPAL env)")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(prog="lakekernel", parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name):
        return sub.add_parser(name, parents=[common])

    p = add_parser("init")
    p.add_argument("--policy", help="policy.toml to install as <data-dir>/policy.toml")
    p.set_defaults(fn=cmd_init)

    p = add_parser("branch")
    p.add_argument("action", choices=["create", "list", "delete"])
    p.add_argument("name", nargs="?")
    p.add_argument("--from", dest="from_ref", default="main")
    p.set_defaults(fn=cmd_branch)

    p = add_parser("log")
    p.add_argument("ref")
    p.set_defaults(fn=cmd_log)

    p = add_parser("diff")
    p.add_argument("ref_a")
    p.add_argument("ref_b")
    p.set_defaults(fn=cmd_diff)

    p = add_parser("table")
    tsub = p.add_subparsers(dest="action", required=True)
    t = tsub.add_parser("import", parents=[_common_flags()])
    t.add_argument("name")
    t.add_argument("--csv", required=True)
    t.add_argument("--branch", default="main")
    t.set_defaults(fn=cmd_table_import)

    p = add_parser("query")
    p.add_argument("sql")
    p.add_argument("--ref", default="main")
    p.set_defaults(fn=cmd_query)

    p = add_parser("run")
    p.add_argument("pipeline")
    p.add_argument("--branch", default="main")
    p.add_argument("--fail-after", default=None)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--no-merge", action="store_true",
                   help="leave the verified temp branch open for review")
    p.set_defaults(fn=cmd_run)

    p = add_parser("merge")
    p.add_argument("source")
    p.add_argument("--into", required=True)
    p.set_defaults(fn=cmd_merge)

    p = add_parser("verifier")
    vsub = p.add_subparsers(dest="action", required=True)
    v = vsub.add_parser("register", parents=[_common_flags()])
    v.add_argument("--name", required=True)
    v.add_argument("--pipeline", required=True)
    v.add_argument("--check", required=True)
    v.set_defaults(fn=cmd_verifier)
    v = vsub.add_parser("list", parents=[_common_flags()])
    v.set_defaults(fn=cmd_verifier)
    v = vsub.add_parser("run", parents=[_common_flags()])
    v.add_argument("--run-id", required=True)
    v.set_defaults(fn=cmd_verifier)

    p = add_parser("runs")
    rsub = p.add_subparsers(dest="action", required=True)
    r = rsub.add_parser("list", parents=[_common_flags()])
    r.set_defaults(fn=cmd_runs)
    r = rsub.add_parser("show", parents=[_common_flags()])
    r.add_argument("run_id")
    r.set_defaults(fn=cmd_runs)
    r = rsub.add_parser("cleanup", parents=[_common_flags()])
    r.add_argument("run_id")
    r.set_defaults(fn=cmd_runs)

    p = add_parser("simulate")
    p.add_argument("--agents", type=int, required=True)
    p.add_argument("--ops", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = add_parser("check")
    p.add_argument("--trace", required=True)
    p.set_defaults(fn=cmd_check)

    p = add_parser("heal")
    p.add_argument("--run", dest="run_id", required=True)
    p.add_argument("--patches", required=True)
    p.add_argument("--budget", type=int, default=3)
    p.set_defaults(fn=cmd_heal)

    p = add_parser("approve")
    p.add_argument("--proposal", required=True)
    p.set_defaults(fn=cmd_approve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for name, default in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, name):
            setattr(args, name, default)
    ctx = _Ctx(args)
    try:
        return args.fn(ctx)
    except LakeError as exc:
        if ctx.as_json:
            print(json.dumps({"error": type(exc).__name__, "reason": str(exc)},
                             sort_keys=True))
        else:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:  # an input file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
