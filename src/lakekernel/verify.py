"""Registry and executor of verifiers: acceptance checks that gate merges.

A verifier is a query over post-run tables whose output must be exactly
one row of one bool column, true. Verdicts are immutable and bound to the
exact commit they evaluated, so any new commit on a branch invalidates
prior verdicts.
"""
from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path

from .catalog import Catalog
from .engine import (
    Aggregate,
    BinaryOp,
    ColumnRef,
    Literal,
    NotOp,
    QueryAst,
    analyze_query,
    execute_plan,
    format_query,
    parse_query,
)
from .errors import DuplicateName, LakeError, ShapeError
from .governance import glob_match
from .util import atomic_write

PASS = "pass"
FAIL = "fail"
ERROR = "error"


@dataclass(frozen=True)
class VerifierSpec:
    name: str
    pipeline: str  # glob over pipeline names
    check: QueryAst
    registered_by: str


@dataclass(frozen=True)
class VerdictRecord:
    run_id: str
    verifier: str
    verdict: str  # pass | fail | error
    detail: str
    evaluated_at: str  # commit id

    def to_json(self) -> dict:
        return {"run_id": self.run_id, "verifier": self.verifier,
                "verdict": self.verdict, "detail": self.detail,
                "evaluated_at": self.evaluated_at}

    @staticmethod
    def from_json(body: dict) -> "VerdictRecord":
        return VerdictRecord(body["run_id"], body["verifier"], body["verdict"],
                             body["detail"], body["evaluated_at"])


def _static_type(node) -> str | None:
    """Type of an expression derivable without schemas; None if unknown."""
    if isinstance(node, Literal):
        return node.type
    if isinstance(node, NotOp):
        return "bool"
    if isinstance(node, BinaryOp):
        if node.op in ("and", "or", "=", "!=", "<", "<=", ">", ">="):
            return "bool"
        return "numeric"
    if isinstance(node, Aggregate):
        return {"count": "int64", "avg": "float64"}.get(node.func, None)
    return None  # column ref: depends on schema


def check_shape(ast: QueryAst) -> None:
    """Registration-time shape check: one select item that can be bool."""
    if len(ast.select) != 1:
        raise ShapeError(f"verifier check must select exactly one column, "
                         f"got {len(ast.select)}")
    static = _static_type(ast.select[0].expr)
    if static is not None and static != "bool":
        raise ShapeError(f"verifier check must yield bool, got {static}")


class VerifierRegistry:
    """Verifiers persisted one JSON file per name under verifiers/;
    verdicts persisted per run under verdicts/."""

    def __init__(self, root: Path, catalog: Catalog):
        self.catalog = catalog
        self._dir = Path(root) / "verifiers"
        self._verdicts_dir = Path(root) / "verdicts"
        self._dir.mkdir(parents=True, exist_ok=True)
        self._verdicts_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    # -- registration ------------------------------------------------------

    def register(self, spec: VerifierSpec) -> None:
        check_shape(spec.check)
        path = self._dir / f"{spec.name}.json"
        with self._lock:
            if path.exists():
                raise DuplicateName(f"verifier {spec.name!r} exists")
            body = {"name": spec.name, "pipeline": spec.pipeline,
                    "check": format_query(spec.check),
                    "registered_by": spec.registered_by}
            atomic_write(path, json.dumps(body, sort_keys=True).encode("utf-8"))

    def list_verifiers(self) -> list[VerifierSpec]:
        out = []
        for path in sorted(self._dir.glob("*.json")):
            body = json.loads(path.read_text("utf-8"))
            out.append(VerifierSpec(body["name"], body["pipeline"],
                                    parse_query(body["check"]),
                                    body["registered_by"]))
        return out

    def matching(self, pipeline_name: str) -> list[VerifierSpec]:
        return [v for v in self.list_verifiers()
                if glob_match(v.pipeline, pipeline_name)]

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, pipeline_name: str, commit_id: str,
                 run_id: str) -> list[VerdictRecord]:
        """Run every matching verifier against the tables of one commit and
        persist the verdicts."""
        session = self.catalog.open_session(commit_id)
        records = []
        for spec in self.matching(pipeline_name):
            records.append(self._evaluate_one(spec, session, run_id, commit_id))
        if records:
            self._append_verdicts(run_id, records)
        return records

    def _evaluate_one(self, spec: VerifierSpec, session, run_id: str,
                      commit_id: str) -> VerdictRecord:
        try:
            bindings = {t: self.catalog.read_table(session, t)
                        for t in spec.check.tables()}
            plan = analyze_query(spec.check, {t: b.schema for t, b in bindings.items()})
            cols = plan.output_schema.columns
            if len(cols) != 1 or cols[0][1] != "bool":
                raise ShapeError(f"check must yield one bool column, "
                                 f"got {[t for _, t in cols]}")
            result = execute_plan(plan, bindings)
        except LakeError as exc:
            return VerdictRecord(run_id, spec.name, ERROR,
                                 f"{type(exc).__name__}: {exc}", commit_id)
        if result.num_rows() != 1:
            return VerdictRecord(run_id, spec.name, FAIL,
                                 f"expected exactly 1 row, got {result.num_rows()}",
                                 commit_id)
        if result.rows[0][0] is not True:
            return VerdictRecord(run_id, spec.name, FAIL, "check returned false",
                                 commit_id)
        return VerdictRecord(run_id, spec.name, PASS, "", commit_id)

    # -- verdict storage ---------------------------------------------------------

    def _verdict_path(self, run_id: str) -> Path:
        return self._verdicts_dir / f"{run_id}.json"

    def _append_verdicts(self, run_id: str, records: list[VerdictRecord]) -> None:
        with self._lock:
            existing = self.verdicts_for_run(run_id)
            body = [r.to_json() for r in existing + records]
            atomic_write(self._verdict_path(run_id),
                         json.dumps(body, sort_keys=True).encode("utf-8"))

    def verdicts_for_run(self, run_id: str) -> list[VerdictRecord]:
        path = self._verdict_path(run_id)
        if not path.exists():
            return []
        return [VerdictRecord.from_json(b) for b in json.loads(path.read_text("utf-8"))]

    def verdicts_at_commit(self, commit_id: str) -> list[VerdictRecord]:
        out = []
        for path in self._verdicts_dir.glob("*.json"):
            for body in json.loads(path.read_text("utf-8")):
                if body["evaluated_at"] == commit_id:
                    out.append(VerdictRecord.from_json(body))
        return out
