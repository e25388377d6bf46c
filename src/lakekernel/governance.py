"""RBAC over the narrow API plus declarative-environment whitelisting.

Principals hold roles; roles grant pattern-scoped permissions; authorize
is default-deny and pure given a loaded policy. Every authorization
decision made through the Governor lands in an append-only audit log, one
record per governed call, numbered by `seq` across every process that
shares the log.
"""
from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import Denied, InvalidPolicy
from .errors import ParseError as PolicyParseError
from .util import Journal

# permission kind -> number of glob arguments
PERMISSION_KINDS = {
    "ReadTable": 2,      # branch glob, table glob
    "WriteBranch": 1,
    "CreateBranch": 1,
    "MergeInto": 1,
    "RunPipeline": 1,
    "RegisterVerifier": 0,
    "ManagePolicy": 0,
}

# a package pin, as pipelines declare it and whitelists allow it
PKG_PIN_RE = re.compile(r"[A-Za-z0-9_.\-]+==[A-Za-z0-9_.\-]+")


def glob_match(pattern: str, text: str) -> bool:
    """Glob with `*` (any run of chars) and `?` (exactly one char)."""
    regex = []
    for ch in pattern:
        if ch == "*":
            regex.append(".*")
        elif ch == "?":
            regex.append(".")
        else:
            regex.append(re.escape(ch))
    return re.fullmatch("".join(regex), text) is not None


@dataclass(frozen=True)
class Permission:
    kind: str
    args: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in PERMISSION_KINDS:
            raise InvalidPolicy(f"unknown permission kind {self.kind!r}")
        want = PERMISSION_KINDS[self.kind]
        if len(self.args) != want:
            raise InvalidPolicy(
                f"{self.kind} takes {want} argument(s), got {len(self.args)}")

    @classmethod
    def parse(cls, text: str) -> "Permission":
        parts = text.split(":")
        return cls(parts[0], tuple(parts[1:]))

    def text(self) -> str:
        return ":".join((self.kind,) + self.args)

    def grants(self, action: "Permission") -> bool:
        if self.kind != action.kind:
            return False
        return all(glob_match(pat, arg) for pat, arg in zip(self.args, action.args))


# convenience constructors used by the kernel
def read_table(branch: str, table: str) -> Permission:
    return Permission("ReadTable", (branch, table))


def write_branch(branch: str) -> Permission:
    return Permission("WriteBranch", (branch,))


def create_branch(branch: str) -> Permission:
    return Permission("CreateBranch", (branch,))


def merge_into(branch: str) -> Permission:
    return Permission("MergeInto", (branch,))


def run_pipeline(name: str) -> Permission:
    return Permission("RunPipeline", (name,))


REGISTER_VERIFIER = Permission("RegisterVerifier")
MANAGE_POLICY = Permission("ManagePolicy")


@dataclass(frozen=True)
class Role:
    name: str
    permissions: tuple[Permission, ...]


@dataclass(frozen=True)
class Principal:
    name: str
    roles: tuple[str, ...]


@dataclass(frozen=True)
class Policy:
    principals: tuple[Principal, ...]
    roles: tuple[Role, ...]
    whitelist: tuple[str, ...]

    def __post_init__(self):
        role_names = {r.name for r in self.roles}
        if len(role_names) != len(self.roles):
            raise InvalidPolicy("duplicate role name")
        names = [p.name for p in self.principals]
        if len(set(names)) != len(names):
            raise InvalidPolicy("duplicate principal name")
        for principal in self.principals:
            for role in principal.roles:
                if role not in role_names:
                    raise InvalidPolicy(
                        f"principal {principal.name!r} references "
                        f"undefined role {role!r}")
        for pkg in self.whitelist:
            if not PKG_PIN_RE.fullmatch(pkg):
                raise InvalidPolicy(f"bad whitelist entry {pkg!r}")

    def permissions_of(self, principal: str) -> list[Permission]:
        by_name = {r.name: r for r in self.roles}
        out = []
        for p in self.principals:
            if p.name == principal:
                for role in p.roles:
                    out.extend(by_name[role].permissions)
        return out


EMPTY_POLICY = Policy((), (), ())


def permissive_policy(principals, whitelist=()) -> Policy:
    """Everyone-may-do-everything policy for harness and bootstrap use."""
    role = Role("everything", tuple(Permission.parse(p) for p in (
        "ReadTable:*:*", "WriteBranch:*", "CreateBranch:*", "MergeInto:*",
        "RunPipeline:*", "RegisterVerifier", "ManagePolicy")))
    return Policy(tuple(Principal(p, ("everything",)) for p in principals),
                  (role,), tuple(whitelist))


@dataclass(frozen=True)
class Decision:
    allowed: bool
    reason: str

    def __bool__(self):
        return self.allowed


def authorize(policy: Policy, principal: str, action: Permission) -> Decision:
    """Allow iff some role of the principal grants a matching permission.
    Default deny; unknown principals are denied."""
    known = any(p.name == principal for p in policy.principals)
    if not known:
        return Decision(False, f"unknown principal {principal!r}")
    for perm in policy.permissions_of(principal):
        if perm.grants(action):
            return Decision(True, f"granted by {perm.text()}")
    return Decision(False, f"{principal!r} holds no permission matching "
                           f"{action.text()}")


def check_env(env, whitelist) -> list[str]:
    """Misses of the exact-match package whitelist; empty list means Ok."""
    allowed = set(whitelist)
    return [pkg for pkg in env.packages if pkg not in allowed]


# --- policy file ------------------------------------------------------------

def _parse_value(raw: str, lineno: int):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(part, lineno) for part in inner.split(",")]
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    raise PolicyParseError(f"expected quoted string or list, got {raw!r}", lineno)


def parse_policy(text: str) -> Policy:
    principals = []
    roles = []
    whitelist: list[str] = []
    section = None  # None | dict being filled
    section_kind = None

    def close_section():
        nonlocal section, section_kind
        if section is None:
            return
        if "name" not in section:
            raise InvalidPolicy(f"{section_kind} block missing name")
        if section_kind == "principal":
            principals.append(Principal(section["name"],
                                        tuple(section.get("roles", []))))
        else:
            perms = tuple(Permission.parse(p) for p in section.get("permissions", []))
            roles.append(Role(section["name"], perms))
        section = None
        section_kind = None

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("[[principal]]", "[[role]]"):
            close_section()
            section = {}
            section_kind = line[2:-2]
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise PolicyParseError(f"expected key = value, got {line!r}", lineno)
        key = key.strip()
        parsed = _parse_value(value, lineno)
        if section is None:
            if key != "whitelist":
                raise PolicyParseError(
                    f"only 'whitelist' is allowed at top level, got {key!r}", lineno)
            whitelist = list(parsed)
        else:
            section[key] = parsed
    close_section()
    return Policy(tuple(principals), tuple(roles), tuple(whitelist))


def load_policy(path) -> Policy:
    """Parse and validate, rejecting invalid files wholesale."""
    return parse_policy(Path(path).read_text("utf-8"))


def format_policy(policy: Policy) -> str:
    lines = ["whitelist = [" + ", ".join(f'"{w}"' for w in policy.whitelist) + "]", ""]
    for role in policy.roles:
        lines.append("[[role]]")
        lines.append(f'name = "{role.name}"')
        perms = ", ".join(f'"{p.text()}"' for p in role.permissions)
        lines.append(f"permissions = [{perms}]")
        lines.append("")
    for principal in policy.principals:
        lines.append("[[principal]]")
        lines.append(f'name = "{principal.name}"')
        roles = ", ".join(f'"{r}"' for r in principal.roles)
        lines.append(f"roles = [{roles}]")
        lines.append("")
    return "\n".join(lines)


# --- governed decision point --------------------------------------------------


@dataclass(frozen=True)
class AuditRecord:
    seq: int
    principal: str
    action: str
    allowed: bool
    reason: str


@dataclass
class Governor:
    """Holds the active policy and appends one audit line per decision to
    the journal at `audit_path`. A line's `seq` is its line number in the
    file, allocated under the file's flock, so it rises without gaps across
    threads and processes.

    The policy reference is swapped atomically on reload, so concurrent
    authorize calls never observe a half-loaded policy.
    """

    policy: Policy
    audit_path: Path

    def __post_init__(self):
        self._journal = Journal(self.audit_path)

    def reload(self, policy: Policy) -> None:
        self.policy = policy

    def check(self, principal: str, action: Permission) -> Decision:
        decision = authorize(self.policy, principal, action)
        with self._journal.locked() as append:
            record = AuditRecord(self._journal.lines + 1, principal, action.text(),
                                 decision.allowed, decision.reason)
            append(json.dumps(asdict(record), sort_keys=True).encode("utf-8"))
        return decision

    def require(self, principal: str, action: Permission) -> None:
        decision = self.check(principal, action)
        if not decision.allowed:
            raise Denied(decision.reason)

    @property
    def records(self) -> list[AuditRecord]:
        """Every audit record in the file, in seq order."""
        return [AuditRecord(**json.loads(line)) for line in self._journal.entries()]

    def records_for(self, principal: str) -> list[AuditRecord]:
        return [r for r in self.records if r.principal == principal]
