"""Small shared helpers: atomic file writes, an append-only journal,
clocks and id sources.

Clocks and id sources are injectable so scripted scenarios and the
concurrency harness can reproduce identical commit ids and run ids across
executions; production code uses the system clock and random UUIDs.
"""
from __future__ import annotations

import contextlib
import fcntl
import os
import threading
import time
import uuid
from pathlib import Path

MASK64 = (1 << 64) - 1


def atomic_write(path: Path, data: bytes) -> None:
    """Write data to path via a temp file and atomic rename."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


# replaying a chunk holds about four copies of it (bytes, slice, text, lines)
_READ_CHUNK = 1 << 14


class Journal:
    """An append-only file of newline-terminated records, shared by threads
    and processes.

    Each instance keeps the offset up to which it has read and the number of
    complete lines before it, and hands every complete chunk it reads, once
    and in file order, to `apply(chunk, offset)` (the owner's fold over the
    records; `offset` is where the chunk starts in the file).
    Readers take no file lock: `catch_up` reads from that offset to the end
    of the file and leaves a last line with no newline (a writer mid-append,
    or one that crashed) for later. Writers hold the file's own flock in
    `locked`, which catches up, cuts off such a torn tail, and appends each
    record with one write on an O_APPEND descriptor, so records from
    different writers never interleave. A thread lock keeps the offset and
    the owner's fold in step when threads share one instance.
    """

    def __init__(self, path: Path, apply=None):
        self.path = Path(path)
        self.lines = 0  # complete lines read or appended by this instance
        self._apply = apply
        self._offset = 0
        self._mutex = threading.Lock()

    def catch_up(self, then=None):
        """Apply the complete lines appended since the last read, then return
        then() (if given) under the same thread lock. Takes no flock."""
        with self._mutex:
            try:
                fd = os.open(self.path, os.O_RDONLY)
            except FileNotFoundError:
                pass
            else:
                try:
                    self._read(fd)
                finally:
                    os.close(fd)
            return then() if then is not None else None

    def _read(self, fd: int) -> int:
        """Apply the complete lines from the offset to the end of file;
        returns the size of the torn tail after them. Caller holds _mutex.

        Reads in bounded chunks, so replaying a long journal in a fresh
        process never holds a buffer of the whole file."""
        size = os.fstat(fd).st_size
        while self._offset < size:
            want = size - self._offset
            data = os.pread(fd, min(want, _READ_CHUNK), self._offset)
            end = data.rfind(b"\n") + 1
            if not end and len(data) < want:  # a line longer than a chunk
                data = os.pread(fd, want, self._offset)
                end = data.rfind(b"\n") + 1
            if not end:
                return len(data)
            self._consume(data[:end])
        return 0

    def _consume(self, chunk: bytes) -> None:
        if self._apply is not None:
            self._apply(chunk, self._offset)
        self._offset += len(chunk)
        self.lines += chunk.count(b"\n")

    @contextlib.contextmanager
    def locked(self):
        """Hold the file's flock, caught up to its end with any torn tail
        cut off; yields append(record), which writes one record (bytes, no
        newline) and applies it."""
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:  # closing the descriptor releases the flock
            fcntl.flock(fd, fcntl.LOCK_EX)
            with self._mutex:
                if self._read(fd):
                    os.ftruncate(fd, self._offset)

            def append(record: bytes) -> None:
                line = record + b"\n"
                with self._mutex:
                    if os.write(fd, line) != len(line):
                        raise OSError(f"short append to {self.path}")
                    self._consume(line)

            yield append
        finally:
            os.close(fd)

    def read_at(self, offset: int, size: int) -> bytes:
        """`size` bytes of the file from `offset`; takes no lock, since
        complete lines are never rewritten."""
        fd = os.open(self.path, os.O_RDONLY)
        try:
            return os.pread(fd, size, offset)
        finally:
            os.close(fd)

    def entries(self) -> list[bytes]:
        """Every complete line in the file, without its newline."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            return []
        return data[:data.rfind(b"\n") + 1].splitlines()


def splitmix64(state: int) -> tuple[int, int]:
    """One step of splitmix64: returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class SplitMix64:
    """Tiny deterministic PRNG; the stated generator for workload op selection."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state, out = splitmix64(self._state)
        return out

    def next_float(self) -> float:
        # 53 high bits, uniform in [0, 1)
        return (self.next_u64() >> 11) / float(1 << 53)

    def randrange(self, n: int) -> int:
        return self.next_u64() % n

    def choice_weighted(self, items, weights) -> object:
        total = float(sum(weights))
        x = self.next_float() * total
        acc = 0.0
        for item, w in zip(items, weights):
            acc += w
            if x < acc:
                return item
        return items[-1]


class SystemClock:
    def now(self) -> int:
        return int(time.time())


class FixedClock:
    """Always returns the same timestamp; keeps commit ids reproducible."""

    def __init__(self, at: int = 0):
        self.at = at

    def now(self) -> int:
        return self.at


class StepClock:
    """Monotonic logical clock, thread-safe."""

    def __init__(self, start: int = 0):
        self._t = start
        self._lock = threading.Lock()

    def now(self) -> int:
        with self._lock:
            self._t += 1
            return self._t


class RandomIds:
    def new_run_id(self) -> str:
        return str(uuid.uuid4())


class DeterministicIds:
    """UUIDv4-shaped ids drawn from splitmix64; for reproducible traces."""

    def __init__(self, seed: int):
        self._rng = SplitMix64(seed)
        self._lock = threading.Lock()

    def new_run_id(self) -> str:
        with self._lock:
            hi = self._rng.next_u64()
            lo = self._rng.next_u64()
        raw = (hi << 64) | lo
        # stamp version 4 / variant 10 bits so the string is a valid UUIDv4
        raw &= ~(0xF << 76) & (1 << 128) - 1
        raw |= 0x4 << 76
        raw &= ~(0x3 << 62) & (1 << 128) - 1
        raw |= 0x2 << 62
        return str(uuid.UUID(int=raw))
