"""Deterministic concurrency and chaos harness."""

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
