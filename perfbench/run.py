"""Run the lakekernel benchmark.

    python3 perfbench/run.py --workload deep_history --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics, untraced. --trace 1 measures
the per-layer metrics: an untraced window of seconds/2, then the same op
sequence again on a fresh lake with span wrappers installed (see
tracing.py); the two give trace.overhead. `--workload all` runs every
workload in its own process, so peak_rss_mb stays per workload. Each
workload's process runs on one CPU (see pin_to_one_cpu).

Prints one line per metric with its unit, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}. Exits 1 when
any correctness check fails, 2 when the sources are missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import PER_LAYER, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("deep_history", "bulk_etl", "swarm")

# gated end-to-end metrics, each reported by every workload: unit, better
END_TO_END = {"setup_s": ("s", "lower"), "run_ms_p50": ("ms", "lower"),
              "ops_per_s": ("1/s", "higher"), "disk_bytes_per_run": ("B", "lower"),
              "peak_rss_mb": ("MB", "lower")}
# printed and written by --json-out, not gated (see NOTES.md)
EXTRA_UNITS = {"run_ms_tail": "ms", "run_ms_growth": "ratio", "rows_per_s": "1/s",
               "merge_ms_p50": "ms", "cli_ms_p50": "ms", "query_ms_p50": "ms",
               "read_ms_p50": "ms", "write_ms_p50": "ms", "op_ms_tail": "ms",
               "failed_op_ratio": "ratio", "conflict_ratio": "ratio"}


def disk_bytes(root) -> int:
    """Allocated bytes under root, as du counts them."""
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames + filenames:
            total += os.lstat(os.path.join(dirpath, name)).st_blocks * 512
    return total


def history(lake) -> dict:
    """How deep the lake's history got: refs, and commits on main's first-parent chain."""
    catalog = lake.kernel.catalog
    return {"refs": len(catalog.branches()), "main_depth": len(catalog.log("main"))}


def file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def tail(values):
    """(value, percentile, n): the highest of a fixed ladder of nearest-rank
    percentiles that leaves at least ten samples beyond it, or None."""
    xs = sorted(values)
    n = len(xs)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return xs[rank - 1], p, n
    return None


def growth(values) -> float:
    """Median of the last tenth of samples over the median of the first."""
    tenth = max(1, len(values) // 10)
    return statistics.median(values[-tenth:]) / statistics.median(values[:tenth])


def _p50(samples, *kinds):
    values = [v for k in kinds for v in samples.get(k, ())]
    return statistics.median(values) if values else None


def end_to_end(m, setup_s, disk_growth, rss_mb) -> tuple[dict, dict]:
    """(gated metrics, workload-specific extras) of one untraced window."""
    s = m.samples
    runs = s.get("run", [])
    completed = m.attempted - m.failed
    gated = {
        "setup_s": statistics.median(setup_s),
        "run_ms_p50": statistics.median(runs),
        "ops_per_s": completed / m.wall_s,
        "disk_bytes_per_run": disk_growth / m.counts["run"],
        "peak_rss_mb": rss_mb,
    }
    all_ops = [v for values in s.values() for v in values]
    extras = {
        "run_ms_tail": tail(runs),
        "run_ms_growth": growth(runs),
        "rows_per_s": m.counts["rows_in"] / (sum(runs) / 1000),
        "merge_ms_p50": _p50(s, "merge"),
        "cli_ms_p50": _p50(s, "cli"),
        "query_ms_p50": _p50(s, "query"),
        "read_ms_p50": _p50(s, "read_session_scan"),
        "write_ms_p50": _p50(s, "run", "run_pipeline_with_fault", "branch_and_merge")
        if "branch_and_merge" in s else None,
        "op_ms_tail": tail(all_ops),
        "failed_op_ratio": m.failed / m.attempted,
    }
    if m.counts["branch_merge"]:
        extras["conflict_ratio"] = m.counts["conflict"] / m.counts["branch_merge"]
    return gated, {k: v for k, v in extras.items() if v is not None}


def measure_end_to_end(wl, seconds: float | None, work: Path,
                       max_ops: list[int] | None = None) -> dict:
    """Untraced window of `seconds`, or of max_ops ops per client."""
    from workloads import Measure

    setup_s = []  # its median is setup_s

    def build():
        data_dir = Path(tempfile.mkdtemp(dir=work))
        started = time.perf_counter()
        lake = wl.build(data_dir)
        setup_s.append(time.perf_counter() - started)
        return data_dir, lake

    # Only the measured lake is built before the window. The file system
    # is still busy with the previous run's writes and deletions for some
    # seconds after a process starts, so the other set-up samples come after.
    data_dir, lake = build()
    before = disk_bytes(data_dir)
    m = Measure(seconds, max_ops)
    m.drive(lambda client: wl.step(lake, m, client), wl.clients)
    disk_growth = disk_bytes(data_dir) - before
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    depth = history(lake)
    problems = m.errors + wl.verify(lake)
    del lake  # time the remaining builds without the measured lake in memory
    # The builds stay on disk until the run ends (run_one removes `work`):
    # deleting one lake slows the file-system calls of the next build.
    for _ in range(wl.SETUPS - 1):
        build()
    gated, extras = end_to_end(m, setup_s, disk_growth, rss_mb)
    return {"problems": problems, "attempted": m.attempted, "failed": m.failed,
            "metrics": gated, "extras": extras,
            "counts": {"ops": m.attempted, "runs": m.counts["run"], "setup_s": setup_s,
                       "window_s": m.wall_s, **depth}}


def measure_per_layer(wl, seconds: float | None, work: Path,
                      max_ops: list[int] | None = None) -> dict:
    """Untraced window of seconds/2 (or max_ops), then the same ops traced."""
    from workloads import Measure

    lake = wl.build(Path(tempfile.mkdtemp(dir=work)))
    plain = Measure(None if seconds is None else seconds / 2, max_ops)
    plain.drive(lambda client: wl.step(lake, plain, client), wl.clients)
    problems = plain.errors + wl.verify(lake)

    data_dir = Path(tempfile.mkdtemp(dir=work))
    lake = wl.build(data_dir)
    kernel = lake.kernel
    audit = data_dir / "audit.log"
    audit_before = file_size(audit)
    writes_before = kernel.store.io_counters()[1]
    tracer = Tracer(data_dir)
    traced = Measure(None, max_ops=plain.issued, tracer=tracer)
    try:
        tracer.install()
        traced.drive(lambda client: wl.step(lake, traced, client), wl.clients)
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer(
        ops=traced.attempted, op_wall_ns=traced.op_wall_ns,
        untraced_wall_ns=plain.op_wall_ns, runs=traced.counts["run"],
        dedup_writes=kernel.store.io_counters()[1] - writes_before,
        audit_bytes=file_size(audit) - audit_before)
    depth = history(lake)
    problems += traced.errors + wl.verify(lake)
    return {"problems": problems, "attempted": plain.attempted + traced.attempted,
            "failed": plain.failed + traced.failed, "metrics": metrics,
            "counts": {"ops": traced.attempted, "runs": traced.counts["run"],
                       "spans": len(tracer.spans), "unwrapped": tracer.missing, **depth}}


def unit_of(name: str) -> str:
    return (END_TO_END.get(name) or PER_LAYER[name])[0]


def report(name: str, result: dict) -> dict:
    for problem in result["problems"][:20]:
        print(f"{name} CHECK FAILED: {problem}")
    for metric, value in result["metrics"].items():
        print(f"{name} {metric} = {value:.6g} {unit_of(metric)}")
    for metric, value in result.get("extras", {}).items():
        unit = EXTRA_UNITS[metric]
        if isinstance(value, tuple):
            v, p, n = value
            print(f"{name} {metric} = {v:.6g} {unit} (p{p:g} of {n})")
        else:
            print(f"{name} {metric} = {value:.6g} {unit}")
    return {"correct": not result["problems"] and result["failed"] == 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in result["metrics"].items()}}


def pin_to_one_cpu() -> None:
    """Keep this process, every thread included, on one CPU.

    On a VM whose host pauses its vCPUs now and then (steal time), two
    threads on two vCPUs stall each other whenever the one holding the
    GIL or the refs lock is paused, and each hand-over between vCPUs
    costs an inter-processor interrupt. On one CPU swarm's two clients
    still interleave and contend for the refs lock, but only that CPU's
    pauses reach them, as they reach a single-client workload."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args) -> int:
    from workloads import WORKLOADS

    pin_to_one_cpu()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-"))
    try:
        wl = WORKLOADS[args.workload](args.seed)
        measure = measure_per_layer if args.trace else measure_end_to_end
        result = measure(wl, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    line = report(args.workload, result)
    if args.json_out:
        detail = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, sizes=wl.sizes())
        Path(args.json_out).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    details = {}
    code = 0
    WORK.mkdir(exist_ok=True)
    for name in WORKLOAD_NAMES:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            out = Path(tmp) / "detail.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--json-out", str(out)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                code = 1
            if not lines or not out.exists():
                combined["correct"] = False
                continue
            details[name] = json.loads(out.read_text())
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for metric, value in line["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    if args.json_out:
        Path(args.json_out).write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    print(json.dumps(combined, sort_keys=True))
    return code if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json-out", help="also write the full result, extras included")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lakekernel").is_dir():
        print(f"error: no lakekernel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
