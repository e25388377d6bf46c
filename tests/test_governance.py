import random
import threading

import pytest

from lakekernel.engine import EnvSpec
from lakekernel.errors import CorruptRecord, Denied, InvalidPolicy, LakeError, ParseError
from lakekernel.governance import (
    EMPTY_POLICY,
    Governor,
    Permission,
    Policy,
    Principal,
    Role,
    authorize,
    check_env,
    format_policy,
    glob_match,
    parse_policy,
    permissive_policy,
)

ANALYST_POLICY = """\
# taxi-shop policy
whitelist = ["pandas==2.0"]

[[role]]
name = "analyst"
permissions = ["ReadTable:main:*"]

[[role]]
name = "engineer"
permissions = ["ReadTable:*:*", "WriteBranch:*", "CreateBranch:*", "MergeInto:main", "RunPipeline:*"]

[[role]]
name = "agent"
permissions = ["ReadTable:*:*", "CreateBranch:run/*", "WriteBranch:run/*", "RunPipeline:*"]

[[principal]]
name = "ana"
roles = ["analyst"]

[[principal]]
name = "eng"
roles = ["engineer"]

[[principal]]
name = "bot"
roles = ["agent"]
"""


def test_analyst_can_read_main():
    policy = parse_policy(ANALYST_POLICY)
    decision = authorize(policy, "ana", Permission("ReadTable", ("main", "taxi_trips")))
    assert decision.allowed


def test_agent_cannot_merge_into_main():
    policy = parse_policy(ANALYST_POLICY)
    decision = authorize(policy, "bot", Permission("MergeInto", ("main",)))
    assert not decision.allowed
    assert "bot" in decision.reason


def test_agent_confined_to_run_branches():
    policy = parse_policy(ANALYST_POLICY)
    assert authorize(policy, "bot", Permission("WriteBranch", ("run/taxi/x",)))
    assert not authorize(policy, "bot", Permission("WriteBranch", ("main",)))


def test_unknown_principal_denied():
    policy = parse_policy(ANALYST_POLICY)
    assert not authorize(policy, "stranger", Permission("ReadTable", ("main", "t")))


def test_default_deny_on_empty_policy():
    for action in [Permission("ReadTable", ("main", "t")),
                   Permission("WriteBranch", ("main",)),
                   Permission("MergeInto", ("main",)),
                   Permission("RunPipeline", ("p",)),
                   Permission("RegisterVerifier"),
                   Permission("ManagePolicy")]:
        assert not authorize(EMPTY_POLICY, "anyone", action)


# --- glob semantics ----------------------------------------------------------

def glob_oracle(pattern: str, text: str) -> bool:
    """Independent recursive matcher for * and ?."""
    if not pattern:
        return not text
    if pattern[0] == "*":
        return any(glob_oracle(pattern[1:], text[i:]) for i in range(len(text) + 1))
    if not text:
        return False
    if pattern[0] == "?" or pattern[0] == text[0]:
        return glob_oracle(pattern[1:], text[1:])
    return False


def test_glob_star_and_question():
    assert glob_match("run/*", "run/taxi/abc")
    assert not glob_match("run/*", "main")
    assert glob_match("t?xi", "taxi")
    assert not glob_match("t?xi", "txi")
    assert glob_match("*", "")
    assert not glob_match("?", "")
    assert glob_match("a.b", "a.b")
    assert not glob_match("a.b", "axb")  # '.' is literal, not regex


def test_glob_matches_oracle_randomized():
    rng = random.Random(8)
    alphabet = "ab/*?."
    for _ in range(500):
        pattern = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
        text = "".join(rng.choice("ab/.") for _ in range(rng.randint(0, 6)))
        assert glob_match(pattern, text) == glob_oracle(pattern, text), \
            (pattern, text)


# --- randomized policy evaluation oracle ------------------------------------------

_KINDS = [("ReadTable", 2), ("WriteBranch", 1), ("CreateBranch", 1),
          ("MergeInto", 1), ("RunPipeline", 1), ("RegisterVerifier", 0),
          ("ManagePolicy", 0)]
_ARGS = ["main", "dev", "run/x/1", "taxi", "zones"]
_GLOBS = ["*", "main", "dev", "run/*", "ta?i", "z*"]


def _random_policy(rng):
    roles = []
    for i in range(rng.randint(1, 4)):
        perms = []
        for _ in range(rng.randint(0, 4)):
            kind, arity = rng.choice(_KINDS)
            perms.append(Permission(kind, tuple(rng.choice(_GLOBS)
                                                for _ in range(arity))))
        roles.append(Role(f"r{i}", tuple(perms)))
    principals = []
    for i in range(rng.randint(1, 3)):
        names = rng.sample([r.name for r in roles],
                           rng.randint(0, len(roles)))
        principals.append(Principal(f"p{i}", tuple(names)))
    return Policy(tuple(principals), tuple(roles), ())


def test_authorize_matches_brute_force_oracle():
    rng = random.Random(616)
    for _ in range(200):
        policy = _random_policy(rng)
        kind, arity = rng.choice(_KINDS)
        action = Permission(kind, tuple(rng.choice(_ARGS) for _ in range(arity)))
        principal = rng.choice(["p0", "p1", "p2", "ghost"])
        got = authorize(policy, principal, action).allowed
        # oracle: scan every (principal, role, permission) triple
        expected = False
        for p in policy.principals:
            if p.name != principal:
                continue
            for role in policy.roles:
                if role.name not in p.roles:
                    continue
                for perm in role.permissions:
                    if perm.kind != action.kind:
                        continue
                    if all(glob_oracle(g, a)
                           for g, a in zip(perm.args, action.args)):
                        expected = True
        assert got == expected


# --- whitelist ------------------------------------------------------------------

def test_check_env_exact_match():
    wl = ("pandas==2.0",)
    assert check_env(EnvSpec("py", ("pandas==2.0",)), wl) == []
    assert check_env(EnvSpec("py", ("evilpkg==1.0",)), wl) == ["evilpkg==1.0"]
    assert check_env(EnvSpec("py", ("pandas==2.1",)), wl) == ["pandas==2.1"]
    assert check_env(EnvSpec("py", ()), ()) == []


# --- policy file -------------------------------------------------------------------

def test_load_minimal_policy(tmp_path):
    path = tmp_path / "policy.toml"
    path.write_text('[[role]]\nname = "admin"\npermissions = ["ManagePolicy"]\n'
                    '[[principal]]\nname = "root"\nroles = ["admin"]\n')
    policy = parse_policy(path.read_text("utf-8"))
    assert authorize(policy, "root", Permission("ManagePolicy")).allowed


def test_policy_rejects_undefined_role():
    with pytest.raises(InvalidPolicy):
        parse_policy('[[principal]]\nname = "x"\nroles = ["ghost"]\n')


def test_policy_rejects_unknown_permission_kind():
    with pytest.raises(InvalidPolicy):
        parse_policy('[[role]]\nname = "r"\npermissions = ["LaunchMissiles"]\n')


def test_policy_rejects_wrong_arity():
    with pytest.raises(InvalidPolicy):
        parse_policy('[[role]]\nname = "r"\npermissions = ["ReadTable:main"]\n')


def test_policy_rejects_bad_whitelist_entry():
    with pytest.raises(InvalidPolicy):
        parse_policy('whitelist = ["pandas"]\n')
    with pytest.raises(InvalidPolicy):
        Policy((), (), ("pandas==2.0\n",))


def test_policy_parse_error_on_bad_syntax():
    with pytest.raises(ParseError):
        parse_policy("just nonsense\n")


@pytest.mark.parametrize("text, error", [
    ('[[role]]\nname = 1\n', ParseError),
    ('[[role]]\nname = "admin"\npermissions = ["ManagePolicy"]\n'
     '[[principal]]\nname = "p"\nroles = "admin"\n', ParseError),
    ('[[role]]\nname = "r"\npermissions = "ManagePolicy"\n', ParseError),
    ('whitelist = "pandas==2.0"\n', ParseError),
    ('owner = "x"\n', ParseError),
    ('[owner]\nname = "x"\n', ParseError),
    ('[role]\nname = "r"\n', ParseError),
    ('[[role]]\nname = "a"\nname = "b"\n', ParseError),
    ('[[role]]\npermissions = ["ManagePolicy"]\n', InvalidPolicy),
    ('[[principal]]\nroles = []\n', InvalidPolicy),
    ('[[role]]\nname = "r"\n[[role]]\nname = "r"\n', InvalidPolicy),
    ('[[principal]]\nname = "p"\n[[principal]]\nname = "p"\n', InvalidPolicy),
], ids=["int-name", "string-roles", "string-permissions",
        "string-whitelist", "top-level-key", "top-level-table", "role-table",
        "duplicate-key", "role-without-name", "principal-without-name",
        "duplicate-role", "duplicate-principal"])
def test_policy_rejects_bad_files(text, error):
    with pytest.raises(error):
        parse_policy(text)


@pytest.mark.parametrize("text, policy", [
    ('whitelist = ["pandas==2.0"]  # pinned\n[[role]] # the admin\n'
     'name = "admin" # role name\npermissions = []\n',
     Policy((), (Role("admin", ()),), ("pandas==2.0",))),
    ('whitelist = [\n  "pandas==2.0",\n  "polars==0.88",\n]\n',
     Policy((), (), ("pandas==2.0", "polars==0.88"))),
    ("[[role]]\nname = 'C:\\admin'\npermissions = ['ReadTable:main:*']\n"
     "[[principal]]\nname = 'root'\nroles = ['C:\\admin']\n",
     Policy((Principal("root", ("C:\\admin",)),),
            (Role("C:\\admin", (Permission("ReadTable", ("main", "*")),)),), ())),
    ('[[role]]\nname = "r"\ncolour = "blue"\n', Policy((), (Role("r", ()),), ())),
], ids=["trailing-comments", "multi-line-array", "literal-strings", "unknown-block-key"])
def test_policy_reads_standard_toml(text, policy):
    assert parse_policy(text) == policy


_AWKWARD = ['"', "\\", ",", "#", "[", "\n", "\t", "\x7f", "\u00e9", "\U0001f600"]


def test_format_parse_roundtrip():
    for policy in [
        parse_policy(ANALYST_POLICY),
        permissive_policy(["a", "b"], ["pandas==2.0"]),
        Policy((Principal("p", ("r,s",)),), (Role("r,s", ()),), ()),
        Policy(tuple(Principal(f"p{c}q", (f"r{c}",)) for c in _AWKWARD),
               tuple(Role(f"r{c}", (Permission("ReadTable", (f"m{c}*", f"{c}?")),
                                    Permission("MergeInto", (c,))))
                     for c in _AWKWARD), ()),
    ]:
        assert parse_policy(format_policy(policy)) == policy


def test_policy_rejects_a_colon_inside_a_role_glob():
    """format_policy would write such a glob as more arguments than it has."""
    for perm in (Permission("WriteBranch", ("a:b",)), Permission("WriteBranch", (":",)),
                 Permission("ReadTable", ("main", "t:*"))):
        with pytest.raises(InvalidPolicy):
            Policy((), (Role("r", (perm,)),), ())


def test_create_branch_with_a_colon_is_audited_and_refused(kernel):
    """A kernel-built action may hold ':'; the catalog refuses the name."""
    with pytest.raises(LakeError, match="bad branch name"):
        kernel.create_branch("a:b", "main", "alice")
    last = kernel.governor.records[-1]
    assert (last.principal, last.action, last.allowed) == ("alice", "CreateBranch:a:b", True)
    assert "a:b" not in kernel.catalog.branches()


def test_format_policy_writes_toml_basic_strings():
    text = format_policy(Policy((), (Role('a"\\\x00\x1f\x7f\u00e9\U0001f600', ()),), ()))
    assert 'name = "a\\"\\\\\\u0000\\u001f\\u007f\u00e9\U0001f600"' in text


# --- governor / audit --------------------------------------------------------------

def test_governor_records_one_audit_record_per_check(tmp_path):
    gov = Governor(parse_policy(ANALYST_POLICY), audit_path=tmp_path / "audit.log")
    gov.check("ana", Permission("ReadTable", ("main", "t")))
    gov.check("bot", Permission("MergeInto", ("main",)))
    assert len(gov.records) == 2
    assert gov.records[0].allowed and not gov.records[1].allowed
    assert [r.seq for r in gov.records] == [1, 2]
    lines = (tmp_path / "audit.log").read_text().strip().split("\n")
    assert len(lines) == 2


@pytest.mark.parametrize("bad", [b"[]", b"7", b"not json", b'{"seq": 2}',
                                 b'{"action": "a", "allowed": 1, "principal": "p", '
                                 b'"reason": "r", "seq": 2}'],
                         ids=["a-list", "a-number", "not-json", "fields-missing", "int-for-bool"])
def test_an_audit_line_that_is_not_a_record_is_corrupt(tmp_path, bad):
    path = tmp_path / "audit.log"
    gov = Governor(EMPTY_POLICY, audit_path=path)
    gov.check("x", Permission("WriteBranch", ("main",)))
    with open(path, "ab") as f:
        f.write(bad + b"\n")
    with pytest.raises(CorruptRecord, match="audit.log"):
        gov.records


def test_governor_require_raises_denied(tmp_path):
    gov = Governor(EMPTY_POLICY, audit_path=tmp_path / "audit.log")
    with pytest.raises(Denied):
        gov.require("x", Permission("WriteBranch", ("main",)))
    assert len(gov.records) == 1


def test_reload_swaps_atomically(tmp_path):
    """Concurrent authorize calls see either the old or the new policy,
    never a half-loaded state."""
    allow = permissive_policy(["p"])
    deny = EMPTY_POLICY
    gov = Governor(allow, audit_path=tmp_path / "audit.log")
    action = Permission("WriteBranch", ("main",))
    stop = threading.Event()
    bad = []

    def hammer():
        while not stop.is_set():
            decision = gov.check("p", action)
            if decision.reason not in (
                    "granted by WriteBranch:*",
                    "unknown principal 'p'"):
                bad.append(decision.reason)

    thread = threading.Thread(target=hammer)
    thread.start()
    for _ in range(200):
        gov.reload(deny)
        gov.reload(allow)
    stop.set()
    thread.join()
    assert bad == []
