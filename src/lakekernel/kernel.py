"""The narrow API surface binding store, catalog, governance, runner and
verifiers together.

Every public entry point that touches data or refs performs exactly one
authorization check for its own action and appends exactly one audit
record; composite operations (run) are built from these governed calls,
so the audit log accounts for every ref mutation and read.
"""
from __future__ import annotations

from pathlib import Path

from . import governance
from .catalog import Catalog, MergeResult, ReadSession
from .engine import PipelineSpec, execute_query, parse_pipeline, parse_query
from .errors import Denied, MergeRefused
from .governance import Governor, Policy
from .runner import Runner, RunOptions, RunReport
from .store import SnapshotStore, TableData
from .util import RandomIds, SystemClock
from .verify import VerifierRegistry, VerifierSpec


class LakeKernel:
    def __init__(self, data_dir, policy: Policy | None = None,
                 clock=None, ids=None):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.clock = clock or SystemClock()
        self.ids = ids or RandomIds()
        self.store = SnapshotStore(self.data_dir)
        self.catalog = Catalog(self.data_dir, self.store, self.clock)
        self.governor = Governor(policy or governance.EMPTY_POLICY,
                                 audit_path=self.data_dir / "audit.log")
        self.verifiers = VerifierRegistry(self.data_dir, self.catalog)
        self.runner = Runner(self, self.data_dir / "runs")

    def init(self, author: str = "system"):
        return self.catalog.init(author)

    def io_counters(self) -> tuple[int, int]:
        return self.store.io_counters()

    # -- policy ---------------------------------------------------------------

    def reload_policy(self, policy: Policy, principal: str) -> None:
        self.governor.require(principal, governance.MANAGE_POLICY)
        self.governor.reload(policy)

    # -- branches ---------------------------------------------------------------

    def create_branch(self, name: str, from_ref: str, principal: str) -> str:
        self.governor.require(principal, governance.create_branch(name))
        return self.catalog.create_branch(name, from_ref)

    def delete_branch(self, name: str, principal: str) -> bool:
        self.governor.require(principal, governance.write_branch(name))
        return self.catalog.delete_branch(name)

    def commit_tables(self, branch: str, changes: dict, expected_head: str,
                      principal: str, message: str):
        self.governor.require(principal, governance.write_branch(branch))
        return self.catalog.commit_tables(branch, changes, expected_head,
                                          principal, message)

    def merge(self, source: str, target: str, principal: str,
              message: str | None = None) -> MergeResult:
        """Governed merge. A recorded verifier failure bound to the source
        head always blocks, even for principals holding MergeInto."""
        self.governor.require(principal, governance.merge_into(target))
        source_head = self.catalog.resolve(source)
        bad = [v for v in self.verifiers.verdicts_at_commit(source_head)
               if v.verdict != "pass"]
        if bad:
            names = sorted({v.verifier for v in bad})
            raise MergeRefused(f"verifier failure(s) recorded at source head: "
                               f"{', '.join(names)}")
        return self.catalog.merge(source_head, target, principal, message)

    # -- reads ----------------------------------------------------------------

    def open_session(self, ref: str) -> ReadSession:
        return self.catalog.open_session(ref)

    def read_table(self, session: ReadSession, table: str,
                   principal: str) -> TableData:
        self.governor.require(principal,
                              governance.read_table(session.ref, table))
        return self.catalog.read_table(session, table)

    def query(self, sql: str, ref: str, principal: str) -> TableData:
        """Parse, open a pinned session, read each referenced table under
        ReadTable, execute purely over those bindings."""
        ast = parse_query(sql)
        session = self.open_session(ref)
        return execute_query(ast, {t: self.read_table(session, t, principal)
                                   for t in ast.tables()})

    # -- runs -----------------------------------------------------------------

    def run(self, spec: PipelineSpec | str, target: str,
            opts: RunOptions) -> RunReport:
        if isinstance(spec, str):
            spec = parse_pipeline(spec)
        self.governor.require(opts.principal,
                              governance.run_pipeline(spec.name))
        violations = []
        for node in spec.nodes:
            violations.extend(governance.check_env(node.env,
                                                   self.governor.policy.whitelist))
        if violations:
            raise Denied("environment violation, packages not whitelisted: "
                         + ", ".join(sorted(set(violations))))
        return self.runner.run(spec, target, opts)

    def list_runs(self) -> list[RunReport]:
        return self.runner.list_runs()

    def get_run(self, run_id: str) -> RunReport:
        return self.runner.get_run(run_id)

    def cleanup_temp(self, run_id: str, principal: str) -> bool:
        return self.runner.cleanup_temp(run_id, principal)

    # -- verifiers ----------------------------------------------------------------

    def register_verifier(self, name: str, pipeline_glob: str, check_sql: str,
                          principal: str) -> VerifierSpec:
        self.governor.require(principal, governance.REGISTER_VERIFIER)
        spec = VerifierSpec(name, pipeline_glob, parse_query(check_sql), principal)
        self.verifiers.register(spec)
        return spec

    def run_verifiers(self, run_id: str):
        """Re-evaluate all matching verifiers at the run's current temp head."""
        report = self.get_run(run_id)
        if report.temp_branch is None:
            raise Denied("dry runs have no branch to verify")
        head = self.catalog.resolve(report.temp_branch)
        return self.verifiers.evaluate(report.pipeline, head, run_id)
