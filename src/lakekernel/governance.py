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
import tomllib
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import CorruptRecord, Denied, InvalidPolicy
from .errors import ParseError as PolicyParseError
from .util import Journal, decoder

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
        for role in self.roles:  # Permission.text joins args with ':'
            if any(":" in arg for perm in role.permissions for arg in perm.args):
                raise InvalidPolicy(f"role {role.name!r} has a ':' in a permission glob")
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

def _list_of(item_type: type, value, what: str) -> tuple:
    if type(value) is not list or not all(type(v) is item_type for v in value):
        raise PolicyParseError(
            f"{what} must be a list of {item_type.__name__}, got {value!r}")
    return tuple(value)


def _blocks(doc: dict, kind: str, key: str):
    """(name, the strings under `key`) of each [[kind]] block."""
    for block in _list_of(dict, doc.get(kind, []), kind):
        if "name" not in block:
            raise InvalidPolicy(f"{kind} block missing name")
        if type(block["name"]) is not str:
            raise PolicyParseError(f"{kind} name must be a string, got {block['name']!r}")
        yield block["name"], _list_of(str, block.get(key, []), f"{kind} {key}")


def parse_policy(text: str) -> Policy:
    """The policy in a TOML text. Bad TOML, other top-level keys and values
    of the wrong type are ParseError; a block with no name, and what Policy
    rejects, are InvalidPolicy. Other keys in a block are ignored."""
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise PolicyParseError(f"bad policy TOML: {exc}") from None
    if doc.keys() - {"whitelist", "role", "principal"}:
        raise PolicyParseError(f"only whitelist, [[role]] and [[principal]] are "
                               f"allowed at top level, got {sorted(doc)}")
    roles = tuple(Role(name, tuple(map(Permission.parse, perms)))
                  for name, perms in _blocks(doc, "role", "permissions"))
    return Policy(tuple(Principal(*p) for p in _blocks(doc, "principal", "roles")),
                  roles, _list_of(str, doc.get("whitelist", []), "whitelist"))


def _toml_string(text: str) -> str:
    """`text` as a TOML basic string: each JSON string escape is a TOML one,
    TOML also escapes U+007F, and any other character is written as itself."""
    return json.dumps(text, ensure_ascii=False).replace("\x7f", "\\u007f")


def format_policy(policy: Policy) -> str:
    """The TOML text that parse_policy reads back as `policy`."""
    def array(items) -> str:
        return "[" + ", ".join(map(_toml_string, items)) + "]"
    lines = [f"whitelist = {array(policy.whitelist)}", ""]
    for role in policy.roles:
        lines += ["[[role]]", f"name = {_toml_string(role.name)}",
                  f"permissions = {array(p.text() for p in role.permissions)}", ""]
    for principal in policy.principals:
        lines += ["[[principal]]", f"name = {_toml_string(principal.name)}",
                  f"roles = {array(principal.roles)}", ""]
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
        """Every audit record in the file, in seq order; a line that is not
        one is CorruptRecord."""
        lines: list[bytes] = []
        Journal(self.audit_path,
                lambda chunk, offset: lines.extend(chunk.splitlines())).catch_up()
        decode = decoder(AuditRecord)
        try:
            return [decode(json.loads(line)) for line in lines]
        except (ValueError, TypeError) as exc:
            raise CorruptRecord(f"{self.audit_path} holds a corrupt record: {exc!r}") from None
