"""The three lakekernel benchmark workloads.

Every workload drives one LakeKernel through its public API from one
process, in a closed loop: a client issues its next op only after the
previous one returned. Inputs come from SplitMix64 seeded by the
workload seed. Op latencies are recorded during the measured window;
every correctness check runs after the window, so checking costs no
measured time and leaves no spans.

- deep_history: one client, small tables, history that grows with every
  op. Loads the catalog (merge-base walk, refs.json re-reads), verdict
  scans, run reports and the CLI; the data plane is nearly idle.
- bulk_etl: one client, short history, a fact table large enough that
  the snapshot codec and the executor dominate.
- swarm: two client threads on one kernel issuing the harness op mix;
  the only workload with concurrent writers on the refs lock.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from lakekernel import LakeKernel, RunOptions, TableData, cli, governance
from lakekernel.harness import (
    DEFAULT_MIX,
    OPS,
    TraceRecorder,
    WorkloadSpec,
    check_isolation,
    seed_kernel,
)
# the harness agent implements the swarm ops; the benchmark times them one
# by one instead of calling its fixed-length run_ops loop
from lakekernel.harness.workload import _Agent
from lakekernel.util import DeterministicIds, SplitMix64, StepClock

PRINCIPAL = "bench"


class WrongResult(Exception):
    """An op returned, but not with the outcome the workload intends."""


class Measure:
    """Closed-loop window: each client issues ops until `seconds` have
    passed or it has issued its share of `max_ops` (one count per client)."""

    def __init__(self, seconds: float | None, max_ops: list[int] | None = None,
                 tracer=None):
        self.seconds = seconds
        self.max_ops = max_ops
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.counts: Counter = Counter()  # ops issued by kind, rows consumed, ...
        self.issued: list[int] = []
        self.errors: list[str] = []
        self.failed = 0
        self.op_wall_ns = 0
        self.wall_s = 0.0
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def sample(self, kind: str, ms: float) -> None:
        with self._lock:
            self.samples.setdefault(kind, []).append(ms)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)

    @property
    def attempted(self) -> int:
        return sum(self.issued)

    def drive(self, step, clients: int) -> None:
        """Run step(client) for each client until the window closes."""
        deadline = math.inf if self.seconds is None else time.perf_counter() + self.seconds
        self.issued = [0] * clients
        tracer = self.tracer

        def loop(client: int) -> None:
            limit = math.inf if self.max_ops is None else self.max_ops[client]
            while self.issued[client] < limit and time.perf_counter() < deadline:
                self.issued[client] += 1
                if tracer is not None:
                    tracer.begin_op(next(self._ids))
                started = time.perf_counter_ns()
                try:
                    step(client)
                except Exception as exc:  # any op that raises counts as failed
                    self.fail(f"{type(exc).__name__}: {exc}")
                finally:
                    elapsed = time.perf_counter_ns() - started
                    if tracer is not None:
                        tracer.end_op()
                    with self._lock:
                        self.op_wall_ns += elapsed

        started = time.perf_counter()
        if clients == 1:
            loop(0)
        else:
            threads = [threading.Thread(target=loop, args=(i,)) for i in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        self.wall_s = time.perf_counter() - started


def timed(fn, *args):
    """Call fn as (part of) a client op; returns (result, ms)."""
    started = time.perf_counter_ns()
    result = fn(*args)
    return result, (time.perf_counter_ns() - started) / 1e6


def _permissive_kernel(data_dir, seed: int) -> LakeKernel:
    kernel = LakeKernel(data_dir,
                        policy=governance.permissive_policy([PRINCIPAL], ()),
                        clock=StepClock(), ids=DeterministicIds(seed))
    kernel.init()
    return kernel


def _node(name: str, inputs: str, query: str) -> str:
    return (f"node {name}:\n  inputs: {inputs}\n"
            f"  env: runtime=python3.11 packages=[]\n"
            f"  materialize: REPLACE\n  query: {query}\n")


def _group(rows, key, aggs):
    """Plain-Python group-by: groups in first-occurrence order; each agg is
    (kind, value_fn). Sums run in row order."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    out = []
    for k, members in groups.items():
        values = []
        for kind, fn in aggs:
            if kind == "count":
                values.append(len(members))
                continue
            column = [fn(r) for r in members]
            total = column[0]
            for v in column[1:]:
                total = total + v
            if kind == "sum":
                values.append(total)
            elif kind == "avg":
                values.append(total / len(column))
            elif kind == "min":
                values.append(min(column))
            else:
                values.append(max(column))
        out.append(k + tuple(values))
    return out


def _published(kernel: LakeKernel, commit_id: str, table: str) -> tuple:
    sid = kernel.catalog.get_commit(commit_id).tables[table]
    return kernel.store.get_snapshot(sid).rows


def _run_record(report) -> tuple[str, str | None]:
    """(run id, published commit) if the run merged with every verdict
    pass; raises WrongResult otherwise."""
    kind = report.outcome.kind
    merge = report.outcome.merge
    if kind != "merged" or merge is None or not merge.ok:
        raise WrongResult(f"run {report.run_id} ended {kind}, expected merged")
    bad = [v.verifier for v in report.verdicts if v.verdict != "pass"]
    if bad:
        raise WrongResult(f"run {report.run_id}: verdicts not pass: {bad}")
    return report.run_id, merge.commit_id


@dataclass
class Lake:
    """A built lake plus what the workload recorded about it."""

    kernel: LakeKernel
    data_dir: str
    rng: SplitMix64
    log: list = field(default_factory=list)  # (kind, outcome, inputs) to check later
    ops: int = 0
    runs: int = 0
    extra: dict = field(default_factory=dict)


# --- deep_history -------------------------------------------------------------

class DeepHistory:
    """Small 2-node pipelines, run in sequence against main, rotating over
    PIPELINES names with one matching verifier. About one op in ten
    commits to a long-lived side branch and merges it (a real merge
    commit), and one in twenty is an in-process CLI call on a fresh
    kernel, on a fixed cadence. Set-up builds HISTORY_OPS ops of history
    first."""

    name = "deep_history"
    clients = 1
    EVENT_ROWS = 200
    PIPELINES = 4
    HISTORY_OPS = 200
    SETUPS = 5
    SUMMARY_QUERY = "SELECT grp, count(*) AS n, sum(val) AS total FROM dh_stage GROUP BY grp"

    def __init__(self, seed: int):
        self.seed = seed
        rng = SplitMix64(seed)
        self.events = [(i, rng.randrange(10), rng.randrange(1 << 16) / 64.0,
                        rng.randrange(2) == 1, f"t{rng.randrange(50)}")
                       for i in range(self.EVENT_ROWS)]

    def sizes(self) -> dict:
        return {"events_rows": self.EVENT_ROWS, "history_ops_at_setup": self.HISTORY_OPS,
                "pipelines": self.PIPELINES}

    def build(self, data_dir) -> Lake:
        kernel = _permissive_kernel(data_dir, self.seed)
        events = TableData.build(["id:int64", "grp:int64", "val:float64",
                                  "flag:bool", "tag:string"], self.events)
        head = kernel.catalog.head("main")
        kernel.commit_tables("main", {"events": kernel.store.put_snapshot(events)},
                             head, PRINCIPAL, "load events")
        kernel.register_verifier("dh_nonempty", "dh_*",
                                 "SELECT min(n) > 0 AS ok FROM dh_summary", PRINCIPAL)
        kernel.create_branch("side", "main", PRINCIPAL)
        # the CLI reads its policy from the data dir
        (kernel.data_dir / "policy.toml").write_text(
            governance.format_policy(kernel.governor.policy), "utf-8")
        lake = Lake(kernel, str(data_dir), SplitMix64(self.seed ^ 0xD1),
                    extra={"main_depth": 2, "main_head": kernel.catalog.head("main"),
                           "side_seq": 0, "cli_calls": 0, "last_run": None})
        history = Measure(0)
        for _ in range(self.HISTORY_OPS):
            self.step(lake, history)
        return lake

    def pipeline(self, index: int, shift: int, cutoff: int) -> str:
        return (f"pipeline dh_{index % self.PIPELINES}\n"
                + _node("dh_stage", "events",
                        f"SELECT id, grp, val + {shift} AS val FROM events "
                        f"WHERE flag = TRUE AND val > {cutoff}")
                + _node("dh_summary", "dh_stage",
                        "SELECT grp, count(*) AS n, sum(val) AS total, max(val) AS top "
                        "FROM dh_stage GROUP BY grp"))

    def step(self, lake: Lake, m: Measure, client: int = 0) -> None:
        lake.ops += 1
        if lake.ops % 20 == 0:
            self._cli(lake, m)
        elif lake.ops % 10 == 5:
            self._side_merge(lake, m)
        else:
            self._run(lake, m)

    def _run(self, lake: Lake, m: Measure) -> None:
        shift, cutoff = lake.rng.randrange(1000), lake.rng.randrange(256)
        text = self.pipeline(lake.runs, shift, cutoff)
        lake.runs += 1
        m.count("run")
        report, ms = timed(lake.kernel.run, text, "main", RunOptions(PRINCIPAL))
        run_id, commit = _run_record(report)
        lake.log.append(("run", (run_id, commit), (shift, cutoff)))
        m.sample("run", ms)
        m.count("rows_in", self.EVENT_ROWS + len(self.expected_stage(shift, cutoff)))
        lake.extra["main_depth"] += 2
        lake.extra["main_head"] = commit
        lake.extra["last_run"] = (shift, cutoff)

    def _side_merge(self, lake: Lake, m: Measure) -> None:
        kernel = lake.kernel
        lake.extra["side_seq"] += 1
        seq = lake.extra["side_seq"]
        rows = [(seq, f"note {seq}.{lake.rng.randrange(1 << 20)}")]
        sid = kernel.store.put_snapshot(TableData.build(["slot:int64", "note:string"], rows))
        kernel.commit_tables("side", {"side_notes": sid}, kernel.catalog.head("side"),
                             PRINCIPAL, f"side note {seq}")
        merge, ms = timed(kernel.merge, "side", "main", PRINCIPAL)
        if merge.kind != "merge_commit":
            raise WrongResult(f"side merge ended {merge.kind}, expected merge_commit")
        lake.log.append(("side", merge.commit_id, rows))
        m.sample("merge", ms)
        lake.extra["main_depth"] += 1
        lake.extra["main_head"] = merge.commit_id

    def _cli(self, lake: Lake, m: Measure) -> None:
        which = lake.extra["cli_calls"] % 3
        lake.extra["cli_calls"] += 1
        common = ["--data-dir", lake.data_dir, "--json"]
        argv = (["runs", "list"] + common if which == 0 else
                ["log", "main"] + common if which == 1 else
                ["query", self.SUMMARY_QUERY, "--ref", "main", "--as", PRINCIPAL] + common)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code, ms = timed(cli.main, argv)
        expect = {"runs": lake.runs, "depth": lake.extra["main_depth"],
                  "head": lake.extra["main_head"], "last_run": lake.extra["last_run"]}
        if code != 0:
            raise WrongResult(f"cli {argv[:2]} exited {code}")
        lake.log.append(("cli", (argv[0], out.getvalue()), expect))
        m.sample("cli", ms)

    def expected_stage(self, shift: int, cutoff: int) -> list:
        return [(i, grp, val + shift) for i, grp, val, flag, _ in self.events
                if flag and val > cutoff]

    def expected_summary(self, stage: list) -> list:
        return _group(stage, lambda r: (r[1],),
                      [("count", None), ("sum", lambda r: r[2]), ("max", lambda r: r[2])])

    def verify(self, lake: Lake) -> list[str]:
        kernel = lake.kernel
        problems = []
        for kind, result, info in lake.log:
            if kind == "run":
                run_id, commit = result
                stage = self.expected_stage(*info)
                if list(_published(kernel, commit, "dh_stage")) != stage:
                    problems.append(f"run {run_id}: dh_stage differs")
                if list(_published(kernel, commit, "dh_summary")) != self.expected_summary(stage):
                    problems.append(f"run {run_id}: dh_summary differs")
            elif kind == "side":
                if list(_published(kernel, result, "side_notes")) != info:
                    problems.append(f"side merge {result[:12]}: side_notes differs")
            else:
                command, text = result
                problem = self._check_cli(command, json.loads(text), info)
                if problem:
                    problems.append(problem)
        return problems

    def _check_cli(self, command: str, body: dict, expect: dict) -> str | None:
        if command == "runs":
            outcomes = [r["outcome"] for r in body["runs"]]
            if len(outcomes) != expect["runs"] or set(outcomes) != {"merged"}:
                return f"cli runs list: {len(outcomes)} runs, expected {expect['runs']} merged"
        elif command == "log":
            ids = [c["id"] for c in body["commits"]]
            if len(ids) != expect["depth"] or ids[0] != expect["head"]:
                return f"cli log: {len(ids)} commits, expected {expect['depth']}"
        else:
            stage = self.expected_stage(*expect["last_run"])
            want = _group(stage, lambda r: (r[1],), [("count", None), ("sum", lambda r: r[2])])
            if [tuple(r) for r in body["rows"]] != want:
                return "cli query: result differs from recomputation"
        return None


# --- bulk_etl -----------------------------------------------------------------

class BulkEtl:
    """Alternates a 3-node ETL pipeline (filter+project, equi-join to a
    dimension table, group-by with count/sum/avg/min/max) with ad-hoc
    kernel.query group-bys over the fact table. One verifier reads a
    node output. Each run stamps its outputs with its batch number, so no
    run's snapshots dedup against an earlier run's. Float values are
    multiples of 1/256 small enough that every sum is exact, so the
    recomputation is exact too."""

    name = "bulk_etl"
    clients = 1
    FACT_ROWS = 50_000
    DIM_ROWS = 1_000
    SETUPS = 5
    REGIONS = 12
    NODES = ("etl_clean", "etl_enriched", "etl_summary")
    QUERIES = (
        "SELECT dk, count(*) AS n, sum(amt) AS total FROM fact GROUP BY dk",
        "SELECT cat, ok, count(*) AS n, avg(amt) AS mean, min(amt) AS lo, "
        "max(amt) AS hi FROM fact GROUP BY cat, ok",
        "SELECT cat, count(*) AS n, sum(amt) AS total FROM fact "
        "WHERE amt > {cutoff} GROUP BY cat",
    )

    def __init__(self, seed: int):
        self.seed = seed
        rng = SplitMix64(seed)
        self.fact = []
        for i in range(self.FACT_ROWS):
            dk, cat = rng.randrange(self.DIM_ROWS), rng.randrange(16)
            amt, ok = rng.randrange(1 << 20) / 64.0, rng.randrange(2) == 1
            r = rng.randrange(20)
            # about one note in ten needs CSV quoting
            note = (f"lot {i % 97}, bay {r}" if r == 0 else
                    f'say "{r}" twice' if r == 1 else f"lot{i % 97}")
            self.fact.append((i, dk, cat, amt, ok, note))
        self.dim = [(k, f"r{rng.randrange(self.REGIONS)}", (rng.randrange(8) + 1) / 4.0)
                    for k in range(self.DIM_ROWS)]
        self._dim_by_key = {row[0]: row for row in self.dim}

    def sizes(self) -> dict:
        return {"fact_rows": self.FACT_ROWS, "dim_rows": self.DIM_ROWS,
                "fact_columns": "int64 x3, float64, bool, string (~10% quoted)"}

    def build(self, data_dir) -> Lake:
        kernel = _permissive_kernel(data_dir, self.seed)
        fact = TableData.build(["id:int64", "dk:int64", "cat:int64", "amt:float64",
                                "ok:bool", "note:string"], self.fact)
        dim = TableData.build(["dk:int64", "region:string", "w:float64"], self.dim)
        changes = {"fact": kernel.store.put_snapshot(fact),
                   "dim": kernel.store.put_snapshot(dim)}
        kernel.commit_tables("main", changes, kernel.catalog.head("main"),
                             PRINCIPAL, "load fact and dim")
        kernel.register_verifier("etl_nonempty", "etl*",
                                 "SELECT sum(n) > 0 AS ok FROM etl_summary", PRINCIPAL)
        return Lake(kernel, str(data_dir), SplitMix64(self.seed ^ 0xB7))

    def pipeline(self, batch: int, cutoff: int) -> str:
        return ("pipeline etl\n"
                + _node("etl_clean", "fact",
                        f"SELECT id, dk, cat, amt, note, {batch} AS batch FROM fact "
                        f"WHERE ok = TRUE AND amt > {cutoff}")
                + _node("etl_enriched", "etl_clean, dim",
                        "SELECT etl_clean.id AS id, dim.region AS region, "
                        "etl_clean.batch AS batch, etl_clean.amt * dim.w AS value "
                        "FROM etl_clean JOIN dim ON etl_clean.dk = dim.dk")
                + _node("etl_summary", "etl_enriched",
                        "SELECT region, batch, count(*) AS n, sum(value) AS total, "
                        "avg(value) AS mean, min(value) AS lo, max(value) AS hi "
                        "FROM etl_enriched GROUP BY region, batch"))

    def step(self, lake: Lake, m: Measure, client: int = 0) -> None:
        # cutoffs stay below 1/64 of the amt range, so every run and every
        # query of one template does nearly the same work
        kernel = lake.kernel
        lake.ops += 1
        cutoff = lake.rng.randrange(256)
        if lake.ops % 2:
            lake.runs += 1
            m.count("run")
            report, ms = timed(kernel.run, self.pipeline(lake.runs, cutoff), "main",
                                 RunOptions(PRINCIPAL))
            lake.log.append(("run", _run_record(report), (lake.runs, cutoff)))
            m.sample("run", ms)
            clean = sum(1 for r in self.fact if r[4] and r[3] > cutoff)
            m.count("rows_in", self.FACT_ROWS + clean + self.DIM_ROWS + clean)
        else:
            which = lake.ops // 2 % len(self.QUERIES)
            sql = self.QUERIES[which].format(cutoff=cutoff)
            result, ms = timed(kernel.query, sql, "main", PRINCIPAL)
            lake.log.append(("query", result.rows, (which, cutoff)))
            m.sample("query", ms)

    def expected_outputs(self, batch: int, cutoff: int) -> dict:
        clean = [(i, dk, cat, amt, note, batch) for i, dk, cat, amt, ok, note in self.fact
                 if ok and amt > cutoff]
        enriched = []
        for i, dk, _, amt, _, _ in clean:
            _, region, w = self._dim_by_key[dk]
            enriched.append((i, region, batch, amt * w))
        value = lambda r: r[3]  # noqa: E731
        summary = _group(enriched, lambda r: (r[1], r[2]),
                         [("count", None), ("sum", value), ("avg", value),
                          ("min", value), ("max", value)])
        return {"etl_clean": clean, "etl_enriched": enriched, "etl_summary": summary}

    def expected_query(self, which: int, cutoff: int) -> list:
        amt = lambda r: r[3]  # noqa: E731
        if which == 0:
            return _group(self.fact, lambda r: (r[1],), [("count", None), ("sum", amt)])
        if which == 1:
            return _group(self.fact, lambda r: (r[2], r[4]),
                          [("count", None), ("avg", amt), ("min", amt), ("max", amt)])
        return _group([r for r in self.fact if r[3] > cutoff], lambda r: (r[2],),
                      [("count", None), ("sum", amt)])

    def verify(self, lake: Lake) -> list[str]:
        problems = []
        for kind, result, info in lake.log:
            if kind == "run":
                run_id, commit = result
                expected = self.expected_outputs(*info)
                for node in self.NODES:
                    if list(_published(lake.kernel, commit, node)) != expected[node]:
                        problems.append(f"run {run_id}: {node} differs")
            elif list(result) != self.expected_query(*info):
                problems.append(f"query {self.QUERIES[info[0]]!r}: result differs")
        return problems


# --- swarm --------------------------------------------------------------------

class _LastEvent(TraceRecorder):
    """Trace recorder that also remembers each agent's latest event."""

    def __init__(self, workload: dict, target: str):
        super().__init__(workload, target)
        self.last: dict[int, tuple[str, dict]] = {}

    def record(self, agent: int, op: str, fields: dict) -> int:
        self.last[agent] = (op, fields)
        return super().record(agent, op, fields)


class Swarm:
    """Two client threads share one kernel and issue the harness
    DEFAULT_MIX over tiny tables: pinned multi-table reads, runs, runs
    with fail_after, and branch-commit-merge on one shared table.
    Conflicts on the shared table are deliberate and are not failures.
    Set-up builds HISTORY_OPS ops of history first, the clients taking
    turns in one thread. Those ops follow a fixed schedule with the
    mix's shares, not random draws, so every seed's set-up does the same
    work: random draws would vary the write share from seed to seed."""

    name = "swarm"
    clients = 2
    # A shallower lake's set-up is mostly file creations, whose kernel
    # cost follows the host rather than the program.
    HISTORY_OPS = 400
    SETUPS = 5
    # ten ops in the shares of DEFAULT_MIX, in OPS order
    SCHEDULE = tuple(op for op in OPS for _ in range(round(DEFAULT_MIX[op] * 10)))

    def __init__(self, seed: int):
        self.seed = seed
        self.spec = WorkloadSpec(self.clients, 0, seed)

    def sizes(self) -> dict:
        return {"base_rows": 3, "shared_rows": 1, "agents": self.clients,
                "history_ops_at_setup": self.HISTORY_OPS, "mix": dict(DEFAULT_MIX)}

    def build(self, data_dir) -> Lake:
        kernel = seed_kernel(data_dir, self.spec)
        recorder = _LastEvent(self.spec.to_json(), "main")
        head = kernel.catalog.head("main")
        initial = kernel.catalog.table_map(head)
        recorder.register_commit(head, initial)
        agents = [_Agent(i, kernel, recorder, self.spec) for i in range(self.clients)]
        lake = Lake(kernel, str(data_dir), SplitMix64(self.seed),
                    extra={"recorder": recorder, "agents": agents, "initial": initial})
        history = Measure(0)
        for i in range(self.HISTORY_OPS):
            self.step(lake, history, i % self.clients,
                      self.SCHEDULE[i % len(self.SCHEDULE)])
        return lake

    def step(self, lake: Lake, m: Measure, client: int = 0, op: str | None = None) -> None:
        agent = lake.extra["agents"][client]
        if op is None:
            weights = [self.spec.mix.get(op, 0.0) for op in OPS]
            op = agent.rng.choice_weighted(OPS, weights)
        if op in ("run_pipeline", "run_pipeline_with_fault"):
            m.count("run")
        _, ms = timed(getattr(agent, op))
        fields = lake.extra["recorder"].last[client][1]
        if op == "branch_and_merge":
            m.count("branch_merge")
            if fields["merge_kind"] == "conflict":
                m.count("conflict")
            elif fields["merge_kind"] not in ("fast_forward", "merge_commit"):
                raise WrongResult(f"branch merge ended {fields['merge_kind']}")
        elif op != "read_session_scan":
            want = "merged" if op == "run_pipeline" else "failed_open"
            if fields["outcome"] != want:
                raise WrongResult(f"{op} ended {fields['outcome']}, expected {want}")
        m.sample("run" if op == "run_pipeline" else op, ms)
        if op == "run_pipeline":
            # the harness pipeline reads base (3 rows), then its first output (3 rows)
            m.count("rows_in", 6)

    def verify(self, lake: Lake) -> list[str]:
        kernel = lake.kernel
        recorder = lake.extra["recorder"]
        head = kernel.catalog.head("main")
        final = kernel.catalog.table_map(head)
        recorder.register_commit(head, final)
        trace = recorder.finish(lake.extra["initial"], final)
        problems = [f"isolation violation: {v}" for v in check_isolation(trace)[:5]]
        on_main = {c.id for c in kernel.catalog.log("main")}
        lost = [e.fields["merge_commit"] for e in trace.events
                if "merge_commit" in e.fields and e.fields["merge_commit"] not in on_main]
        problems += [f"published commit {c[:12]} missing from log(main)" for c in lost[:5]]
        return problems


WORKLOADS = {cls.name: cls for cls in (DeepHistory, BulkEtl, Swarm)}
