"""Acceptance gate: every criterion at its stated tolerance.

Each test is one criterion; the conftest hook prints a PASS/FAIL line per
criterion as the suite runs. Budgets (runtime bounds, trial counts, zero
tolerances) are pinned here, not deferred.
"""
import random
import time

import pytest

from conftest import make_kernel
from engine_oracle import OracleEvalError, gen_query, oracle_execute
from lakekernel.catalog import DELETE
from lakekernel.engine import parse_pipeline
from lakekernel.errors import Denied, EvalError, StaleProposal
from lakekernel.governance import (
    EMPTY_POLICY,
    parse_policy,
    permissive_policy,
)
from lakekernel.harness import (
    WorkloadSpec,
    check_isolation,
    check_serializability,
    scenario_pinned_read,
    scenario_atomic_publication,
    simulate,
)
from lakekernel.healer import BaselineAgent, approve, heal
from lakekernel.kernel import LakeKernel
from lakekernel.runner import FAILED_OPEN, MERGED, RunOptions
from lakekernel.store import TableData
from lakekernel.util import DeterministicIds, FixedClock
from test_catalog import lca_oracle, merge_oracle, snap

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

BROKEN = """\
pipeline metrics
node ratios:
  inputs: raw
  env: runtime=python3.10 packages=[pandas==2.0]
  materialize: REPLACE
  query: SELECT k, x / (k - 1) AS r FROM raw
"""

GUARDED = BROKEN.replace("FROM raw", "FROM raw WHERE NOT (k - 1 = 0)")


def seed_raw(kernel, author="alice"):
    table = TableData.build(["k:int64", "x:int64"], [(1, 10), (2, 20)])
    sid = kernel.store.put_snapshot(table)
    kernel.catalog.commit_tables("main", {"raw": sid},
                                 kernel.catalog.head("main"), author, "seed")


def test_criterion_01_transactional_publication(tmp_path):
    """Both halves of the atomic-publication scenario, in under 5 s:
    fault after node 1 leaves main byte-identical with exactly one temp
    commit; the success case publishes both outputs in a single ref move."""
    started = time.perf_counter()
    trace, verdict = scenario_atomic_publication(tmp_path / "pub", "transactional")
    assert verdict
    fault = [e for e in trace.events if e.op == "run_fault"][0]
    assert fault.fields["head_before"] == fault.fields["head_after"]
    success = [e for e in trace.events if e.op == "run_success"][0]
    assert set(success.fields["published_delta"]) == {"table_a", "table_b"}
    assert success.fields["head_before"] != success.fields["head_after"]
    assert time.perf_counter() - started < 5.0


def test_criterion_02_pinned_read_returns_500(tmp_path):
    """Pinned read returns exactly 500 despite a concurrent committed
    update."""
    trace, verdict = scenario_pinned_read(tmp_path / "pin")
    assert verdict
    pinned = [e for e in trace.events if e.op == "pinned_read"][0]
    assert pinned.fields["value"] == 500


def test_criterion_03_isolation_under_swarm(tmp_path):
    """agents x {2,4,8}, 50 ops each, 20 seeds: zero isolation violations
    in all 60 simulations, and all 60 traces serialize; the scripted naive
    double shows >= 1 violation. < 2 min."""
    started = time.perf_counter()
    total_violations = 0
    runs = 0
    for agents in (2, 4, 8):
        for seed in range(20):
            trace = simulate(tmp_path / f"sim_{agents}_{seed}",
                             WorkloadSpec(agents, 50, seed))
            total_violations += len(check_isolation(trace))
            assert check_serializability(trace)[0], (agents, seed)
            runs += 1
    assert runs == 60
    assert total_violations == 0
    naive_trace, naive_verdict = scenario_atomic_publication(tmp_path / "naive", "naive")
    assert naive_verdict
    assert len(check_isolation(naive_trace)) >= 1
    assert time.perf_counter() - started < 120.0


def test_criterion_04_serializability(tmp_path):
    """100 random traces with <= 6 merges each pass the permutation
    oracle; tolerance 0 failures."""
    failures = 0
    for seed in range(100):
        trace = simulate(tmp_path / f"w{seed}",
                         WorkloadSpec(n_agents=2, ops_per_agent=3, seed=seed))
        merges = sum(1 for e in trace.events if e.fields.get("published_delta"))
        assert merges <= 6
        ok, _ = check_serializability(trace)
        if not ok:
            failures += 1
    assert failures == 0


def test_criterion_05_copy_on_write(tmp_path):
    """Branching and merging over a catalog holding a 100k-row table do
    exactly zero snapshot-content I/O and finish in < 50 ms each."""
    kernel = make_kernel(tmp_path / "lake")
    big = TableData.build(["k:int64", "v:int64"],
                          [(i, i * 7) for i in range(100_000)])
    sid = kernel.store.put_snapshot(big)
    kernel.catalog.commit_tables("main", {"big": sid}, kernel.catalog.head("main"),
                                 "alice", "seed big")
    small = kernel.store.put_snapshot(TableData.build(["v:int64"], [(1,)]))

    io_before = kernel.io_counters()
    started = time.perf_counter()
    kernel.create_branch("dev", "main", "alice")
    create_ms = (time.perf_counter() - started) * 1000
    assert kernel.io_counters() == io_before
    assert create_ms < 50.0

    kernel.commit_tables("dev", {"note": small}, kernel.catalog.head("dev"),
                         "alice", "tiny change")
    io_before = kernel.io_counters()
    started = time.perf_counter()
    result = kernel.merge("dev", "main", "alice")
    merge_ms = (time.perf_counter() - started) * 1000
    assert result.ok
    assert kernel.io_counters() == io_before
    assert merge_ms < 50.0


def test_criterion_06_merge_oracle_equivalence(tmp_path):
    """500 randomized small histories: three-way merge equals the
    brute-force per-table oracle; 0 mismatches."""
    kernel = make_kernel(tmp_path / "lake")
    cat, store = kernel.catalog, kernel.store
    rng = random.Random(60606)
    sids = [snap(store, i) for i in range(30)]
    names = ["t1", "t2", "t3"]
    mismatches = 0
    for trial in range(500):
        base_map = {n: rng.choice(sids) for n in names if rng.random() < 0.7}
        changes = dict(base_map)
        for n in names:
            if n not in base_map and n in cat.table_map("main"):
                changes[n] = DELETE
        base = (cat.commit_tables("main", changes, cat.head("main"), "x",
                                  f"base{trial}")
                if changes else cat.get_commit(cat.head("main")))
        src, tgt = f"s{trial}", f"t{trial}"
        cat.create_branch(src, base.id)
        cat.create_branch(tgt, base.id)
        for branch in (src, tgt):
            mutation = {}
            for n in names:
                r = rng.random()
                if r < 0.3 and n in base_map:
                    mutation[n] = DELETE
                elif r < 0.6:
                    mutation[n] = rng.choice(sids)
            if mutation:
                cat.commit_tables(branch, mutation, cat.head(branch), "x", "mut")
        expected_map, expected_conflicts = merge_oracle(
            cat.table_map(base.id), cat.table_map(src), cat.table_map(tgt))
        before = cat.head(tgt)
        result = cat.merge(src, tgt, "x")
        if expected_conflicts:
            ok = (result.kind == "conflict"
                  and list(result.conflicts) == expected_conflicts
                  and cat.head(tgt) == before)
        else:
            ok = result.ok and cat.table_map(tgt) == expected_map
        if not ok:
            mismatches += 1
        cat.delete_branch(src)
        cat.delete_branch(tgt)
    assert mismatches == 0


def test_criterion_06b_merge_base_oracle(tmp_path):
    """merge_base agrees with the exhaustive ancestor-set oracle on random
    DAGs (supporting evidence for the merge criterion)."""
    from test_catalog import _random_dag, make_catalog
    cat, store = make_catalog(tmp_path)
    rng = random.Random(77)
    for _ in range(20):
        ids = _random_dag(cat, store, rng, rng.randint(3, 50))
        for _ in range(8):
            a, b = rng.choice(ids), rng.choice(ids)
            assert cat.merge_base(a, b) == lca_oracle(cat, a, b)


def test_criterion_07_engine_oracle_equivalence():
    """1000 randomized queries over tables <= 8 rows match the nested-loop
    and group-by brute-force oracles exactly."""
    from lakekernel.engine import execute_query
    rng = random.Random(70707)
    mismatches = 0
    executed = 0
    for _ in range(1000):
        ast, bindings = gen_query(rng)
        assert all(t.num_rows() <= 8 for t in bindings.values())
        try:
            names, _, expected_rows = oracle_execute(ast, bindings)
        except OracleEvalError:
            with pytest.raises(EvalError):
                execute_query(ast, bindings)
            continue
        out = execute_query(ast, bindings)
        if out.schema.names() != names or list(out.rows) != expected_rows:
            mismatches += 1
        executed += 1
    assert mismatches == 0
    assert executed >= 600


def test_criterion_08_governance(tmp_path):
    """Default deny blocks 100% of mutating calls; a whitelist violation
    aborts the run with zero side effects; the audit log carries exactly
    one record per governed call."""
    kernel = LakeKernel(tmp_path / "denied", policy=EMPTY_POLICY,
                        clock=FixedClock(0), ids=DeterministicIds(1))
    kernel.init()
    sid = kernel.store.put_snapshot(TableData.build(["v:int64"], [(1,)]))
    head = kernel.catalog.head("main")
    mutating_calls = [
        lambda: kernel.create_branch("dev", "main", "mallory"),
        lambda: kernel.commit_tables("main", {"t": sid}, head, "mallory", "x"),
        lambda: kernel.merge("main", "main", "mallory"),
        lambda: kernel.delete_branch("dev", "mallory"),
        lambda: kernel.run(PIPE, "main", RunOptions(principal="mallory")),
        lambda: kernel.register_verifier("v", "*", "SELECT true AS ok FROM t",
                                         "mallory"),
        lambda: kernel.reload_policy(EMPTY_POLICY, "mallory"),
    ]
    blocked = 0
    for call in mutating_calls:
        before = len(kernel.governor.records)
        with pytest.raises(Denied):
            call()
        blocked += 1
        assert len(kernel.governor.records) == before + 1  # exactly one record
        assert not kernel.governor.records[-1].allowed
    assert blocked == len(mutating_calls)
    assert kernel.catalog.branches() == {"main": head}

    # whitelist violation: reject before step (1), zero side effects
    kernel2 = make_kernel(tmp_path / "wl", whitelist=())  # nothing whitelisted
    seed_raw(kernel2)
    refs_before = kernel2.catalog.branches()
    io_before = kernel2.io_counters()
    with pytest.raises(Denied) as exc:
        kernel2.run(PIPE, "main", RunOptions(principal="alice"))
    assert "pandas==2.0" in str(exc.value)
    assert kernel2.catalog.branches() == refs_before  # no temp branch
    assert kernel2.io_counters()[1] == io_before[1]  # nothing written
    assert kernel2.list_runs() == []

    # one auth record per single-action API call on the allowed path
    kernel3 = make_kernel(tmp_path / "audit")
    seed_raw(kernel3)
    session = kernel3.open_session("main")
    single_calls = [
        lambda: kernel3.create_branch("dev", "main", "alice"),
        lambda: kernel3.read_table(session, "raw", "alice"),
        lambda: kernel3.commit_tables(
            "dev", {"raw": kernel3.catalog.table_map("main")["raw"]},
            kernel3.catalog.head("dev"), "alice", "noop"),
        lambda: kernel3.merge("dev", "main", "alice"),
        lambda: kernel3.register_verifier("v", "*",
                                          "SELECT count(*) > 0 AS ok FROM raw",
                                          "alice"),
        lambda: kernel3.delete_branch("dev", "alice"),
    ]
    for call in single_calls:
        before = len(kernel3.governor.records)
        call()
        assert len(kernel3.governor.records) == before + 1


def test_criterion_09_healer_end_to_end(tmp_path):
    """Scripted divide-by-zero repaired within the patch list; main
    unchanged until approve; unauthorized approve denied; StaleProposal
    after the proposal branch advances."""
    policy = parse_policy("""\
whitelist = ["pandas==2.0", "polars==0.88"]
[[role]]
name = "engineer"
permissions = ["ReadTable:*:*", "WriteBranch:*", "CreateBranch:*", "MergeInto:*", "RunPipeline:*", "RegisterVerifier"]
[[role]]
name = "repair"
permissions = ["ReadTable:*:*", "CreateBranch:run/*", "WriteBranch:run/*", "RunPipeline:*"]
[[principal]]
name = "dana"
roles = ["engineer"]
[[principal]]
name = "fixer"
roles = ["repair"]
""")
    kernel = make_kernel(tmp_path / "lake", policy=policy)
    seed_raw(kernel, author="dana")
    kernel.register_verifier("nonempty", "metrics",
                             "SELECT count(*) > 0 AS ok FROM ratios", "dana")
    failed = kernel.run(BROKEN, "main", RunOptions(principal="dana"))
    assert failed.outcome.kind == FAILED_OPEN

    patches = [parse_pipeline(GUARDED)]
    main_before = kernel.catalog.head("main")
    result = heal(kernel, failed.run_id, BaselineAgent(patches),
                  budget=len(patches), principal="fixer")
    assert result.proposal is not None
    assert len(result.history) <= len(patches)
    assert kernel.catalog.head("main") == main_before  # untouched until approve
    assert [v.verdict for v in result.proposal.verdicts] == ["pass"]

    with pytest.raises(Denied):
        approve(kernel, result.proposal, "fixer")  # unauthorized principal
    assert kernel.catalog.head("main") == main_before

    # verdict-commit binding: advancing the branch invalidates the proposal
    sid = kernel.store.put_snapshot(TableData.build(["v:int64"], [(9,)]))
    kernel.commit_tables(result.proposal.temp_branch, {"drift": sid},
                         kernel.catalog.resolve(result.proposal.temp_branch),
                         "dana", "advance")
    with pytest.raises(StaleProposal):
        approve(kernel, result.proposal, "dana")

    # a fresh heal produces an approvable proposal
    retry = heal(kernel, failed.run_id, BaselineAgent(patches),
                 budget=1, principal="fixer")
    merged = approve(kernel, retry.proposal, "dana")
    assert merged.ok
    out = kernel.query("SELECT k, r FROM ratios", "main", "dana")
    assert out.rows == ((2, 20),)

    # an exhausted budget honestly gives up: no proposal
    failed2 = kernel.run(BROKEN.replace("metrics", "metrics2"), "main",
                         RunOptions(principal="dana"))
    gave = heal(kernel, failed2.run_id, BaselineAgent([]), budget=2,
                principal="fixer")
    assert gave.proposal is None


def _deterministic_session(path, seed):
    kernel = make_kernel(path, seed=seed)
    seed_raw(kernel)
    merged = kernel.run(PIPE, "main", RunOptions(principal="alice"))
    faulted = kernel.run(PIPE, "main",
                         RunOptions(principal="alice", fail_after="t_a"))
    snapshot_ids = sorted(
        [p.parent.name + p.name for p in (path / "objects").glob("*/*")]
        + [line[:64] for line in
           (path / "snapshots.log").read_text("utf-8").splitlines()])
    assert len(snapshot_ids) == 3
    commit_ids = sorted(line[:64] for line in
                        (path / "commits.log").read_text("utf-8").splitlines())
    assert len(commit_ids) > 3
    outcomes = [merged.outcome.kind, merged.outcome.merge.kind,
                faulted.outcome.kind]
    node_commits = [r.commit_id for rep in (merged, faulted)
                    for r in rep.node_results]
    return snapshot_ids, commit_ids, outcomes, node_commits


def test_criterion_10_determinism(tmp_path):
    """Identical seeds and specs produce identical snapshot ids, commit
    ids and run outcomes across two consecutive executions."""
    first = _deterministic_session(tmp_path / "one", seed=123)
    second = _deterministic_session(tmp_path / "two", seed=123)
    assert first == second
    # and the harness: same workload seed, same trace, twice
    spec = WorkloadSpec(n_agents=1, ops_per_agent=20, seed=99)
    t1 = simulate(tmp_path / "h1", spec)
    t2 = simulate(tmp_path / "h2", spec)
    assert t1 == t2
