"""Self-test of the benchmark: every workload at a tiny, fixed size.

    python3 -m pytest perfbench -q

It checks that the correctness checks are live (a tampered expectation
fails them), that the single-client counts repeat exactly for one seed,
and that BENCHMARK.json names exactly the metrics the runs print.
"""
from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

OPS = {"deep_history": 24, "bulk_etl": 6, "swarm": 30}


@pytest.fixture
def tmp_path():
    """A scratch dir inside the checkout, like the benchmark's own."""
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.WORK, prefix="selftest-"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _sub(path: Path, name: str) -> Path:
    (path / name).mkdir()
    return path / name


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "SETUPS", 1)
    monkeypatch.setattr(workloads.DeepHistory, "HISTORY_OPS", 6)
    monkeypatch.setattr(workloads.Swarm, "HISTORY_OPS", 6)
    monkeypatch.setattr(workloads.BulkEtl, "FACT_ROWS", 1500)
    monkeypatch.setattr(workloads.BulkEtl, "DIM_ROWS", 40)


def _measure(name, tmp_path, trace=False, seed=3):
    wl = workloads.WORKLOADS[name](seed)
    measure = run.measure_per_layer if trace else run.measure_end_to_end
    ops = [OPS[name] // wl.clients] * wl.clients
    return wl, measure(wl, None, tmp_path, max_ops=ops)


def _drive(name, tmp_path, seed=3):
    """Build a lake and run a fixed op sequence; returns (workload, lake)."""
    wl = workloads.WORKLOADS[name](seed)
    lake = wl.build(tmp_path)
    m = workloads.Measure(None, [OPS[name] // wl.clients] * wl.clients)
    m.drive(lambda client: wl.step(lake, m, client), wl.clients)
    assert m.failed == 0, m.errors
    assert wl.verify(lake) == []
    return wl, lake


def _bump_last(rows):
    """Copy of rows with the last value of the first row increased."""
    first = rows[0]
    return [first[:-1] + (first[-1] + 1,)] + list(rows[1:])


def test_deep_history_checks_are_live(tmp_path):
    wl, lake = _drive("deep_history", tmp_path)
    expected = wl.expected_summary
    wl.expected_summary = lambda stage: _bump_last(expected(stage))
    problems = wl.verify(lake)
    assert problems and all("dh_summary differs" in p for p in problems)


def test_deep_history_cli_check_is_live(tmp_path):
    wl, lake = _drive("deep_history", tmp_path)
    m = workloads.Measure(None)
    for _ in range(3):  # runs list, log, query
        wl._cli(lake, m)
    assert wl.verify(lake) == []
    for kind, _, expect in lake.log:
        if kind == "cli":
            expect["runs"] += 1
            expect["depth"] += 1
            expect["last_run"] = (expect["last_run"][0] + 1, expect["last_run"][1])
    problems = wl.verify(lake)
    assert problems and all(p.startswith("cli ") for p in problems)


@pytest.mark.parametrize("tampered", ["expected_outputs", "expected_query"])
def test_bulk_etl_checks_are_live(tmp_path, tampered):
    wl, lake = _drive("bulk_etl", tmp_path)
    original = getattr(wl, tampered)
    if tampered == "expected_outputs":
        def fake(batch, cutoff):
            out = original(batch, cutoff)
            return dict(out, etl_summary=_bump_last(out["etl_summary"]))
    else:
        def fake(which, cutoff):
            return _bump_last(original(which, cutoff))
    setattr(wl, tampered, fake)
    problems = wl.verify(lake)
    assert problems and all("differs" in p for p in problems)


def test_swarm_checks_are_live(tmp_path):
    wl, lake = _drive("swarm", tmp_path)
    recorder = lake.extra["recorder"]
    recorder.record(0, "branch_and_merge", {"merge_commit": "0" * 64})
    recorder.record(0, "read_session_scan", {"reads": [["base", "f" * 64]]})
    problems = wl.verify(lake)
    assert any("missing from log(main)" in p for p in problems)
    assert any("isolation violation" in p for p in problems)


def test_raising_op_fails_the_run(tmp_path, monkeypatch):
    step = workloads.Swarm.step
    calls = itertools.count()

    def flaky(self, lake, m, client=0, op=None):
        # the measured window has max_ops here; the set-up history has none
        if client == 1 and m.max_ops and next(calls) == 2:
            raise OSError("disk gone")
        return step(self, lake, m, client, op)

    monkeypatch.setattr(workloads.Swarm, "step", flaky)
    _, result = _measure("swarm", tmp_path)
    assert result["failed"] == 1 and result["problems"] == ["OSError: disk gone"]
    line = run.report("swarm", result)
    assert line["correct"] is False and line["failed"] == 1


def test_runs_end_as_intended(tmp_path):
    for name in workloads.WORKLOADS:
        _, result = _measure(name, _sub(tmp_path, name))
        assert result["problems"] == [] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.END_TO_END)
        assert all(v > 0 for v in result["metrics"].values()), result["metrics"]


@pytest.mark.parametrize("name", ["deep_history", "bulk_etl"])
def test_single_client_counts_repeat(tmp_path, name):
    first = _measure(name, _sub(tmp_path, "a"), trace=True)[1]["metrics"]
    second = _measure(name, _sub(tmp_path, "b"), trace=True)[1]["metrics"]
    for key in ("store.bytes_written", "catalog.get_commit_calls_per_merge"):
        assert first[key] == second[key] and first[key] > 0, key
    disk = [_measure(name, _sub(tmp_path, d))[1]["metrics"]["disk_bytes_per_run"]
            for d in ("c", "d")]
    assert disk[0] == disk[1]


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    _, result = _measure("swarm", tmp_path, trace=True)
    assert result["problems"] == [] and result["counts"]["unwrapped"] == []
    assert set(result["metrics"]) == set(PER_LAYER)
    assert 0.5 < result["metrics"]["trace.coverage"] <= 1.0


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in bench["end_to_end"])


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "swarm",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
