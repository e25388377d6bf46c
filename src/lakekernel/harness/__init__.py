"""Concurrency and chaos harness.

Scripted scenarios and a one-agent workload are deterministic: fixed
clocks and seeded ids reproduce each trace. With 2 or more agents only
each agent's op choice is seeded; the threads interleave freely, so one
seed can give different traces (ROADMAP item 7 plans seeded schedules).
"""

from .checkers import check_isolation, check_serializability
from .scenarios import TWO_NODE_PIPELINE, scenario_pinned_read, scenario_atomic_publication
from .trace import Trace, TraceEvent, TraceRecorder
from .workload import DEFAULT_MIX, OPS, WorkloadSpec, seed_kernel, simulate

__all__ = [
    "DEFAULT_MIX", "TWO_NODE_PIPELINE", "OPS", "Trace",
    "TraceEvent", "TraceRecorder", "WorkloadSpec", "check_isolation",
    "check_serializability", "scenario_pinned_read", "scenario_atomic_publication", "seed_kernel",
    "simulate",
]
