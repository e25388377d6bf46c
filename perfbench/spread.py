"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --out spread.json

Runs run.py untraced once per seed and workload, in sequence (by default
every workload of BENCHMARK.json; --workloads names others, comma
separated), after one discarded warm-up run. For each workload and
metric it prints the median and the quartile distance as a share of the
median (quartiles as statistics.quantiles(values, n=4) gives them), next
to the metric's bound from BENCHMARK.json. A spread above a third of its
bound is flagged.
--out writes every run's result line and the summaries as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_seeds(workload: str, seeds: list[int], seconds: float) -> tuple[list, bool]:
    """One run.py run per seed; (result lines with their seed, all succeeded)."""
    runs = []
    ok = True
    for seed in seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
            ok = False
            continue
        line = json.loads(lines[-1])
        line["metrics"] = {k: v["value"] for k, v in line["metrics"].items()}
        runs.append({"seed": seed, **line})
        print(f"{workload} seed {seed}: "
              + " ".join(f"{k}={v:.4g}" for k, v in line["metrics"].items()), flush=True)
    return runs, ok


def summarize(workload: str, runs: list, bounds: dict) -> dict:
    summary = {}
    for name in runs[0]["metrics"] if runs else ():
        xs = [r["metrics"][name] for r in runs]
        median = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds[name]
        flag = "" if spread < bound / 3 else "  <-- above bound/3"
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        print(f"{workload} {name:20s} median={median:<12.6g} spread={spread:.3f} "
              f"bound={bound}{flag}")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma separated; default: BENCHMARK.json's")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", help="write every run's result and the spreads here")
    args = parser.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])

    out = {"argv": sys.argv[1:] if argv is None else argv}
    # One discarded run first. A CPU that was idle runs up to 1.5x faster
    # for its first half-minute of load than under the sustained load of
    # back-to-back runs, which is what the seeds should see.
    print("warm-up:", flush=True)
    ok = run_seeds(names[0], [0], args.seconds)[1]
    for workload in names:
        runs, ran = run_seeds(workload, seeds_of(args.seeds), args.seconds)
        ok &= ran
        out[workload] = {"runs": runs, "summary": summarize(workload, runs, bounds)}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
