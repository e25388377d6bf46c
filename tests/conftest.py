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


def count_journal_reads(monkeypatch, name: str) -> list:
    """Record every read of a journal file called `name` from here on, as
    the bytes it read: each catch-up (the one under the flock of every
    append too) and each record body read."""
    real_read, real_read_at = Journal._read, Journal.read_at
    reads = []

    def read(self, fd):
        start = self._offset
        torn = real_read(self, fd)
        if self.path.name == name:
            reads.append(self._offset - start + torn)
        return torn

    def read_at(self, offset, size):
        body = real_read_at(self, offset, size)
        if self.path.name == name:
            reads.append(len(body))
        return body

    monkeypatch.setattr(Journal, "_read", read)
    monkeypatch.setattr(Journal, "read_at", read_at)
    return reads
