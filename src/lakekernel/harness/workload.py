"""Free-running concurrent agent workloads over one shared kernel.

Op selection per agent is deterministic (splitmix64 seeded from the
workload seed and the agent index); thread interleaving may vary, which
is exactly what the offline checkers are for. So with 2 or more agents a
seed does not reproduce a trace, and `simulate --seed N` cannot replay a
failing one; ROADMAP item 7 (seeded interleavings) would make it replay.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from ..errors import LakeError
from ..governance import permissive_policy
from ..kernel import LakeKernel
from ..runner import MERGED, RunOptions
from ..store import TableData
from ..util import DeterministicIds, FixedClock, SplitMix64, splitmix64
from .trace import Trace, TraceRecorder, published_delta, served

OPS = ("read_session_scan", "run_pipeline", "run_pipeline_with_fault",
       "branch_and_merge")

DEFAULT_MIX = {"read_session_scan": 0.5, "run_pipeline": 0.2,
               "run_pipeline_with_fault": 0.1, "branch_and_merge": 0.2}

_WL_PACKAGES = ("pandas==2.0",)


@dataclass(frozen=True)
class WorkloadSpec:
    n_agents: int
    ops_per_agent: int
    seed: int
    mix: dict = field(default_factory=lambda: dict(DEFAULT_MIX))

    def __post_init__(self):
        if self.n_agents < 1:
            raise LakeError("a workload needs at least one agent")
        weights = [self.mix.get(op, 0.0) for op in OPS]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise LakeError("mix weights must be non-negative with positive sum")

    def to_json(self) -> dict:
        return asdict(self)


def _agent_seed(seed: int, agent: int) -> int:
    _, a = splitmix64(agent + 1)
    _, out = splitmix64(seed ^ a)
    return out


def _agent_pipeline(agent: int, shift: int) -> str:
    return (
        f"pipeline wl_agent{agent}\n"
        f"node out_a_{agent}:\n"
        f"  inputs: base\n"
        f"  env: runtime=python3.11 packages=[pandas==2.0]\n"
        f"  materialize: REPLACE\n"
        f"  query: SELECT k, v + {shift} AS v FROM base\n"
        f"node out_b_{agent}:\n"
        f"  inputs: out_a_{agent}\n"
        f"  env: runtime=python3.11 packages=[pandas==2.0]\n"
        f"  materialize: REPLACE\n"
        f"  query: SELECT k, v * 2 AS v2 FROM out_a_{agent}\n"
    )


class _Agent:
    def __init__(self, index: int, kernel: LakeKernel, recorder: TraceRecorder,
                 spec: WorkloadSpec):
        self.index = index
        self.kernel = kernel
        self.recorder = recorder
        self.spec = spec
        self.rng = SplitMix64(_agent_seed(spec.seed, index))
        self.principal = f"agent{index}"
        self.branch_counter = 0

    def run_ops(self):
        weights = [self.spec.mix.get(op, 0.0) for op in OPS]
        for _ in range(self.spec.ops_per_agent):
            op = self.rng.choice_weighted(OPS, weights)
            try:
                getattr(self, op)()
            except LakeError as exc:
                self.recorder.record(self.index, op,
                                     {"error": f"{type(exc).__name__}: {exc}"})

    # -- ops ------------------------------------------------------------

    def read_session_scan(self):
        session = self.kernel.open_session("main")
        table_map = self.kernel.catalog.table_map(session.pinned)
        self.recorder.register_commit(session.pinned, table_map)
        names = sorted(table_map)
        picked = []
        for _ in range(min(4, len(names))):
            name = names[self.rng.randrange(len(names))]
            if name not in picked:
                picked.append(name)
        reads = [served(name, self.kernel.read_table(session, name, self.principal))
                 for name in picked]
        self.recorder.record(self.index, "read_session_scan",
                             {"pinned": session.pinned, "reads": reads})

    def _run(self, fail_after: str | None):
        shift = self.rng.randrange(1000)
        text = _agent_pipeline(self.index, shift)
        head_before = self.kernel.catalog.head("main")
        report = self.kernel.run(text, "main",
                                 RunOptions(principal=self.principal,
                                            fail_after=fail_after))
        fields = {"outcome": report.outcome.kind, "head_before": head_before,
                  "head_after": self.kernel.catalog.head("main")}
        merge = report.outcome.merge
        if report.outcome.kind == MERGED:
            fields["merge_kind"] = merge.kind
            fields["merge_commit"] = merge.commit_id
            fields["published_delta"] = published_delta(self.kernel.catalog, report)
        elif merge is not None:
            fields["merge_kind"] = merge.kind
        op = "run_pipeline_with_fault" if fail_after else "run_pipeline"
        self.recorder.record(self.index, op, fields)

    def run_pipeline(self):
        self._run(None)

    def run_pipeline_with_fault(self):
        self._run(f"out_a_{self.index}")

    def branch_and_merge(self):
        self.branch_counter += 1
        branch = f"dev/a{self.index}/{self.branch_counter}"
        self.kernel.create_branch(branch, "main", self.principal)
        head = self.kernel.catalog.head(branch)
        value = self.rng.randrange(1 << 31)
        table = TableData.build(["slot:int64", "val:int64"], [(0, value)])
        sid = self.kernel.store.put_snapshot(table)
        self.kernel.commit_tables(branch, {"shared": sid}, head,
                                  self.principal, "update shared")
        merge = self.kernel.merge(branch, "main", self.principal)
        fields = {"branch": branch, "merge_kind": merge.kind,
                  "conflicts": list(merge.conflicts)}
        if merge.ok:
            fields["merge_commit"] = merge.commit_id
            fields["published_delta"] = {"shared": sid}
        self.recorder.record(self.index, "branch_and_merge", fields)


def seed_kernel(data_dir, spec: WorkloadSpec) -> LakeKernel:
    principals = [f"agent{i}" for i in range(spec.n_agents)]
    kernel = LakeKernel(data_dir,
                        policy=permissive_policy(principals, _WL_PACKAGES),
                        clock=FixedClock(0), ids=DeterministicIds(spec.seed))
    kernel.init()
    head = kernel.catalog.head("main")
    base = TableData.build(["k:int64", "v:int64"], [(1, 10), (2, 20), (3, 30)])
    shared = TableData.build(["slot:int64", "val:int64"], [(0, 0)])
    changes = {"base": kernel.store.put_snapshot(base),
               "shared": kernel.store.put_snapshot(shared)}
    kernel.catalog.commit_tables("main", changes, head, "system", "seed tables")
    return kernel


def simulate(data_dir, spec: WorkloadSpec) -> Trace:
    """Drive n_agents concurrent workers over a fresh kernel; returns the
    recorded trace (also persisted as trace.json in the data dir)."""
    kernel = seed_kernel(data_dir, spec)
    recorder = TraceRecorder(spec.to_json(), "main")
    initial_map = kernel.catalog.table_map("main")
    agents = [_Agent(i, kernel, recorder, spec) for i in range(spec.n_agents)]
    with ThreadPoolExecutor(spec.n_agents) as pool:
        list(pool.map(_Agent.run_ops, agents))  # re-raises an agent's error
    trace = recorder.finish(initial_map, kernel.catalog.table_map("main"))
    trace.save(kernel.data_dir / "trace.json")
    return trace
