import os
from pathlib import Path

import pytest

from lakekernel.governance import permissive_policy
from lakekernel.kernel import LakeKernel
from lakekernel.util import DeterministicIds, FixedClock, Journal


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    verdict = "PASS" if report.passed else "FAIL"
    print(f"\n[acceptance] {name}: {verdict}", flush=True)

WL = ("pandas==2.0", "polars==0.88")


@pytest.fixture
def kernel(tmp_path):
    """Fresh kernel with a fixed clock, deterministic ids and a policy that
    lets the default principals do everything."""
    k = LakeKernel(tmp_path / "lake",
                   policy=permissive_policy(["alice", "bob", "sim"], WL),
                   clock=FixedClock(0), ids=DeterministicIds(77))
    k.init()
    return k


def make_kernel(path, principals=("alice", "bob"), whitelist=WL, seed=77,
                policy=None, clock=None):
    k = LakeKernel(path,
                   policy=policy or permissive_policy(list(principals), whitelist),
                   clock=clock or FixedClock(0), ids=DeterministicIds(seed))
    k.init()
    return k


def child_env() -> dict:
    """Environment for a child Python that must import this checkout's
    lakekernel, whether or not PYTHONPATH names it."""
    paths = [str(Path(__file__).resolve().parents[1] / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def count_refs_reads(monkeypatch) -> list:
    """Record every read of a refs.log journal from here on: each catch-up,
    and the catch-up under the flock of every ref move."""
    real_read = Journal._read
    reads = []

    def read(self, fd):
        if self.path.name == "refs.log":
            reads.append(self.path)
        return real_read(self, fd)

    monkeypatch.setattr(Journal, "_read", read)
    return reads
