"""Scripted single-threaded replays of the two motivating scenarios.

The naive runner below commits node outputs straight to the target with
no temp branch and reads its sources at the live head; it exists only
here, as a test double — the public run API cannot express it.
"""
from __future__ import annotations

from ..engine import execute_plan, parse_pipeline, plan
from ..governance import permissive_policy
from ..kernel import LakeKernel
from ..runner import FAILED_OPEN, MERGED, RunOptions
from ..store import TableData
from ..util import DeterministicIds, FixedClock
from .checkers import check_isolation
from .trace import Trace, TraceRecorder, published_delta, served

TWO_NODE_PIPELINE = """\
pipeline two_node
node table_a:
  inputs: raw
  env: runtime=python3.10 packages=[pandas==2.0]
  materialize: REPLACE
  query: SELECT k, x + 1 AS x FROM raw
node table_b:
  inputs: table_a
  env: runtime=python3.11 packages=[polars==0.88]
  materialize: REPLACE
  query: SELECT k, x * 2 AS x FROM table_a
"""

_SCENARIO_PACKAGES = ("pandas==2.0", "polars==0.88")


def _fresh_kernel(data_dir, principals) -> LakeKernel:
    kernel = LakeKernel(data_dir, policy=permissive_policy(principals, _SCENARIO_PACKAGES),
                        clock=FixedClock(0), ids=DeterministicIds(7))
    kernel.init()
    return kernel


def _commit_table(kernel, branch, name, table, author) -> str:
    head = kernel.catalog.head(branch)
    sid = kernel.store.put_snapshot(table)
    kernel.catalog.commit_tables(branch, {name: sid}, head, author, f"set {name}")
    return sid


def _read(kernel, recorder, session, tables) -> tuple[list, list]:
    """Register the session's pin and read `tables` there as `reader`:
    returns the tables served and the read group to record."""
    recorder.register_commit(session.pinned, kernel.catalog.table_map(session.pinned))
    data = [kernel.read_table(session, t, "reader") for t in tables]
    return data, [served(t, d) for t, d in zip(tables, data)]


def _register_head(kernel, recorder) -> str:
    """Register main's head: the naive runner's unpinned reader may see it."""
    head = kernel.catalog.head("main")
    recorder.register_commit(head, kernel.catalog.table_map(head))
    return head


def scenario_pinned_read(data_dir) -> tuple[Trace, bool]:
    """Pinned read survives a concurrent committed update: the session
    opened when the balance was 500 keeps returning 500."""
    kernel = _fresh_kernel(data_dir, ["reader", "writer"])
    recorder = TraceRecorder({"scenario": "pinned_read"}, "main")
    _commit_table(kernel, "main", "balances",
                  TableData.build(["account:string", "amount:int64"], [("b", 500)]),
                  "writer")
    session = kernel.open_session("main")  # pinned while the update lands
    initial_map = kernel.catalog.table_map(session.pinned)
    _commit_table(kernel, "main", "balances",
                  TableData.build(["account:string", "amount:int64"], [("b", 300)]),
                  "writer")

    (pinned,), reads = _read(kernel, recorder, session, ["balances"])
    pinned_value = pinned.rows[0][1]
    recorder.record(0, "pinned_read", {"pinned": session.pinned, "reads": reads,
                                       "value": pinned_value})
    live = kernel.open_session("main")
    (current,), reads = _read(kernel, recorder, live, ["balances"])
    live_value = current.rows[0][1]
    recorder.record(0, "live_read", {"pinned": live.pinned, "reads": reads,
                                     "value": live_value})
    trace = recorder.finish(initial_map, kernel.catalog.table_map(live.pinned))
    return trace, pinned_value == 500 and live_value == 300


def _raw_table(x: int) -> TableData:
    return TableData.build(["k:int64", "x:int64"], [(1, x), (2, x + 1)])


def scenario_atomic_publication(data_dir, variant: str) -> tuple[Trace, bool]:
    """variant='transactional': the run API publishes both outputs in one
    ref move and leaves main untouched on an injected failure.
    variant='naive': per-node commits straight to main produce a torn
    multi-table read that check_isolation flags."""
    if variant == "transactional":
        return _transactional_variant(data_dir)
    if variant == "naive":
        return _naive_variant(data_dir)
    raise ValueError(f"unknown variant {variant!r}")


def _transactional_variant(data_dir) -> tuple[Trace, bool]:
    kernel = _fresh_kernel(data_dir, ["runner1", "reader"])
    recorder = TraceRecorder({"scenario": "atomic_publication",
                             "variant": "transactional"}, "main")
    _commit_table(kernel, "main", "raw", _raw_table(10), "runner1")

    # success path: one ref move publishes table_a and table_b together
    head_before = kernel.catalog.head("main")
    initial_map = kernel.catalog.table_map(head_before)
    report1 = kernel.run(TWO_NODE_PIPELINE, "main", RunOptions(principal="runner1"))
    head_after = kernel.catalog.head("main")
    recorder.record(0, "run_success", {
        "outcome": report1.outcome.kind, "head_before": head_before,
        "head_after": head_after,
        "published_delta": published_delta(kernel.catalog, report1)})
    published_atomically = (
        report1.outcome.kind == MERGED
        and set(kernel.catalog.diff(head_before, head_after))
        == {("table_a", "Added"), ("table_b", "Added")})

    session = kernel.open_session("main")
    _, reads = _read(kernel, recorder, session, ["table_a", "table_b"])
    recorder.record(1, "read_session_scan", {"pinned": session.pinned, "reads": reads})

    # failure path: injected crash after table_a leaves main untouched
    _commit_table(kernel, "main", "raw", _raw_table(20), "runner1")
    fault_head_before = kernel.catalog.head("main")
    report2 = kernel.run(TWO_NODE_PIPELINE, "main",
                         RunOptions(principal="runner1", fail_after="table_a"))
    fault_head_after = kernel.catalog.head("main")
    recorder.record(0, "run_fault", {
        "outcome": report2.outcome.kind, "head_before": fault_head_before,
        "head_after": fault_head_after, "temp_branch": report2.temp_branch})

    temp_head = kernel.catalog.resolve(report2.temp_branch)
    temp_commit = kernel.catalog.get_commit(temp_head)
    one_commit_on_temp = temp_commit.parents == (report2.base_commit,)

    trace = recorder.finish(initial_map, kernel.catalog.table_map(fault_head_after))
    verdict = (published_atomically
               and report2.outcome.kind == FAILED_OPEN
               and fault_head_before == fault_head_after
               and one_commit_on_temp
               and not check_isolation(trace))
    return trace, verdict


def _naive_run(kernel, text: str, principal: str, recorder, agent: int,
               fail_after: str | None = None) -> None:
    """BROKEN on purpose: no temp branch, no pinning, per-node main commits."""
    spec = parse_pipeline(text)
    head = kernel.catalog.head("main")
    session = kernel.catalog.open_session(head)
    schemas = {s: kernel.catalog.read_table(session, s).schema
               for s in spec.source_tables()}
    plans = plan(spec, schemas)
    outputs = {}
    for node in spec.nodes:
        live = kernel.catalog.open_session(kernel.catalog.head("main"))
        table = execute_plan(plans[node.name], {
            t: outputs[t] if t in outputs else kernel.catalog.read_table(live, t)
            for t in node.query.tables()})
        sid = kernel.store.put_snapshot(table)
        commit = kernel.catalog.commit_tables(
            "main", {node.name: sid}, kernel.catalog.head("main"),
            principal, f"naive {node.name}")
        recorder.register_commit(commit.id, commit.tables)
        recorder.record(agent, "naive_commit", {"node": node.name,
                                                "commit": commit.id})
        outputs[node.name] = table
        if fail_after == node.name:
            return  # simulated crash: later nodes never run


def _naive_variant(data_dir) -> tuple[Trace, bool]:
    kernel = _fresh_kernel(data_dir, ["runner2", "reader"])
    recorder = TraceRecorder({"scenario": "atomic_publication", "variant": "naive"},
                            "main")
    _commit_table(kernel, "main", "raw", _raw_table(10), "runner2")
    initial = _register_head(kernel, recorder)
    initial_map = kernel.catalog.table_map(initial)

    _naive_run(kernel, TWO_NODE_PIPELINE, "runner2", recorder, 0)
    _register_head(kernel, recorder)

    # a crash between the two node commits leaves main torn
    _commit_table(kernel, "main", "raw", _raw_table(20), "runner2")
    _register_head(kernel, recorder)
    _naive_run(kernel, TWO_NODE_PIPELINE, "runner2", recorder, 0,
               fail_after="table_a")
    _register_head(kernel, recorder)

    # reader joins table_a with table_b across an intervening repair run,
    # reading each at main's head of the moment
    _, (read_a,) = _read(kernel, recorder, kernel.open_session("main"), ["table_a"])
    _commit_table(kernel, "main", "raw", _raw_table(30), "runner2")
    _register_head(kernel, recorder)
    _naive_run(kernel, TWO_NODE_PIPELINE, "runner2", recorder, 0)
    final = _register_head(kernel, recorder)
    _, (read_b,) = _read(kernel, recorder, kernel.open_session("main"), ["table_b"])
    recorder.record(1, "naive_read_group", {"reads": [read_a, read_b]})

    trace = recorder.finish(initial_map, kernel.catalog.table_map(final))
    violations = check_isolation(trace)
    return trace, len(violations) >= 1
