"""Registry and executor of verifiers: acceptance checks that gate merges.

A verifier is a query over post-run tables whose output must be exactly
one row of one bool column, true. Verdicts are immutable and bound to the
exact commit they evaluated, so any new commit on a branch invalidates
prior verdicts.
"""
from __future__ import annotations

import fcntl
import json
import os
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from .catalog import Catalog
from .engine import (
    Aggregate,
    BinaryOp,
    Literal,
    NotOp,
    QueryAst,
    analyze_query,
    execute_plan,
    format_query,
    parse_query,
)
from .errors import CorruptRecord, DuplicateName, LakeError, ShapeError
from .governance import glob_match
from .util import Records, atomic_write, decoder

PASS = "pass"
FAIL = "fail"
ERROR = "error"

_NAME_RE = re.compile(r"[a-z0-9_\-]+")


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
    """Verifiers persisted as `<name> <JSON>` lines of verifiers.log;
    verdicts persisted per run under verdicts/."""

    def __init__(self, root: Path, catalog: Catalog):
        self.catalog = catalog
        self._records = Records(Path(root) / "verifiers.log")
        self._specs: dict[str, VerifierSpec] = {}  # a name is registered once
        self._old_dir = Path(root) / "verifiers"  # a file per verifier, before verifiers.log
        self._verdicts_dir = Path(root) / "verdicts"  # made by the first verdict

    # -- registration ------------------------------------------------------

    def register(self, spec: VerifierSpec) -> None:
        """Append the verifier's line, keyed by its name (so holding no space):
        of two registrations of one name, in any processes, the first wins."""
        if not _NAME_RE.fullmatch(spec.name):
            raise LakeError(f"bad verifier name {spec.name!r}")
        check_shape(spec.check)
        body = {"pipeline": spec.pipeline, "check": format_query(spec.check),
                "registered_by": spec.registered_by}
        if not self._records.put(spec.name, json.dumps(body, sort_keys=True).encode("utf-8")):
            raise DuplicateName(f"verifier {spec.name!r} exists")

    def list_verifiers(self) -> list[VerifierSpec]:
        """Every verifier, by name, each parsed once. A data dir that still
        holds verifier files is CorruptRecord: no run goes ungated by them."""
        if self._old_dir.is_dir():
            raise CorruptRecord(f"{self._old_dir} holds verifier files of an older layout")
        names = self._records.keys()
        for name in sorted(set(names) - self._specs.keys()):
            try:
                body = decoder(dict[str, str])(json.loads(self._records.get(name)))
                self._specs[name] = VerifierSpec(name, body["pipeline"],
                                                 parse_query(body["check"]),
                                                 body["registered_by"])
            except (ValueError, TypeError, KeyError, LakeError) as exc:
                raise CorruptRecord(f"verifier {name!r} in {self._records.path} "
                                    f"is corrupt: {exc!r}") from None
        return [self._specs[name] for name in sorted(names)]

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
        """Rewrite the run's file with `records` appended, under the flock of
        the verdicts directory, so no kernel, thread or process loses another's."""
        self._verdicts_dir.mkdir(exist_ok=True)
        fd = os.open(self._verdicts_dir, os.O_RDONLY)
        try:  # closing the descriptor releases the flock
            fcntl.flock(fd, fcntl.LOCK_EX)
            existing = self.verdicts_for_run(run_id)
            body = [asdict(r) for r in existing + records]
            atomic_write(self._verdict_path(run_id),
                         json.dumps(body, sort_keys=True).encode("utf-8"))
        finally:
            os.close(fd)

    def verdicts_for_run(self, run_id: str) -> list[VerdictRecord]:
        path = self._verdict_path(run_id)
        return _verdicts_in([path]) if path.exists() else []

    def verdicts_at_commit(self, commit_id: str) -> list[VerdictRecord]:
        return _verdicts_in(self._verdicts_dir.glob("*.json"), commit_id)


def _verdicts_in(paths, commit_id: str | None = None) -> list[VerdictRecord]:
    """The verdicts in the files at `paths` (bound to `commit_id`, if given).
    A torn, non-JSON or misshapen file is CorruptRecord, so a merge fails closed."""
    out, decode = [], decoder(list[VerdictRecord])
    try:
        for path in paths:  # every verdict is decoded, so no merge ignores a bad one
            out += (v for v in decode(json.loads(path.read_text("utf-8")))
                    if commit_id is None or v.evaluated_at == commit_id)
    except (ValueError, TypeError) as exc:
        raise CorruptRecord(f"{path} is corrupt: {exc!r}") from None
    return out
