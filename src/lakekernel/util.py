"""Small shared helpers: atomic file writes, an append-only journal and
the keyed records kept in one, the typed decoder every JSON record read
back from disk goes through, clocks and id sources.

Clocks and id sources are injectable so scripted scenarios and the
concurrency harness can reproduce identical commit ids and run ids across
executions; production code uses the system clock and random UUIDs.
"""
from __future__ import annotations

import contextlib
import fcntl
import os
import sys
import threading
import time
import uuid
from dataclasses import is_dataclass
from functools import cache, partial
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

MASK64 = (1 << 64) - 1


def atomic_write(path: str | Path, data: bytes) -> None:
    """Write data to path via a temp file and atomic rename. Works on str
    paths through os.path, so writing a snapshot builds no Path (which
    interns the parts it parses)."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    with open(tmp, "wb") as f:
        f.write(data)
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

        Reads _READ_CHUNK bytes at a time, doubling the read while it holds
        no newline, so replaying a long journal in a fresh process holds a
        buffer of one chunk or twice its longest line, never the whole file."""
        size = os.fstat(fd).st_size
        want = _READ_CHUNK
        while self._offset < size:
            data = os.pread(fd, min(want, size - self._offset), self._offset)
            end = data.rfind(b"\n") + 1
            if end:
                self._consume(data[:end])
                want = _READ_CHUNK
            elif len(data) < want:  # the file ends inside this line
                return len(data)
            else:  # a line longer than the read
                want *= 2
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
        newline) and applies it. The first append to a journal creates its
        directory."""
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags, 0o644)
        except FileNotFoundError:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path, flags, 0o644)
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


class Records(Journal):
    """A Journal of `<key> <body>` lines and their key index. `put` appends
    only a key the file lacks (else returns False), deciding under the flock,
    so the first writer of a key wins; on read, a later line for a key wins."""

    def __init__(self, path: Path):
        self._index: dict[str, int] = {}  # key -> body offset << 32 | body length
        super().__init__(path, partial(_index_bodies, self._index))

    def __contains__(self, key: str) -> bool:
        """Reads no body; only a key not yet indexed catches the journal up."""
        return key in self._index or self.catch_up(partial(self._index.__contains__, key))

    def get(self, key: str) -> bytes | None:
        if key not in self:
            return None
        at = self._index[key]
        return self.read_at(at >> 32, at & _LENGTH_MASK)

    def keys(self) -> list[str]:
        return self.catch_up(lambda: list(self._index))

    def put(self, key: str, body: bytes) -> bool:
        with self.locked() as append:
            if key in self._index:
                return False
            append(key.encode("ascii") + b" " + body)
        return True


_LENGTH_MASK = (1 << 32) - 1


def _index_bodies(index: dict, chunk: bytes, offset: int) -> None:
    # the Records fold: a line with no space indexes nothing
    for line in chunk.split(b"\n")[:-1]:
        sep = line.find(b" ")
        if sep >= 0:
            # one int, not an (offset, length) tuple, per key; the key is
            # interned, so an owner that interns it too keeps one copy
            at = (offset + sep + 1) << 32 | (len(line) - sep - 1)
            index[sys.intern(line[:sep].decode("ascii", "replace"))] = at
        offset += len(line) + 1


@cache
def decoder(hint):
    """The function from a record's JSON value to the type `hint`, built once
    per type; it raises TypeError where the value does not fit. A dataclass
    is an object of its fields (an absent one takes its default), `X | None`
    is null or X, `tuple[X, ...]` and `list[X]` are lists, `dict[K, V]` is an
    object, and a leaf type matches exactly, so a bool is not an int. A hint
    it cannot check is a TypeError when the decoder is built."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is UnionType and len(args) == 2 and NoneType in args:  # X | None
        arm, = set(args) - {NoneType}
        inner = decoder(arm)
        return lambda value: None if value is None else inner(value)
    if is_dataclass(hint):
        fields = {k: decoder(t) for k, t in get_type_hints(hint).items()}

        def record(value):
            if type(value) is not dict or not value.keys() <= fields.keys():
                raise TypeError(f"not a {hint.__name__}: {value!r:.80}")
            return hint(**{k: fields[k](v) for k, v in value.items()})
        return record
    if origin is dict:
        key, val = map(decoder, args)

        def mapping(value):
            if type(value) is not dict:
                raise TypeError(f"not an object: {value!r:.80}")
            return {key(k): val(v) for k, v in value.items()}
        return mapping
    if origin in (list, tuple):
        if origin is tuple and args[1:] != (...,):
            raise TypeError(f"no decoder for {hint!r}")
        item = decoder(args[0])

        def items(value):
            if type(value) is not list:
                raise TypeError(f"not a list: {value!r:.80}")
            return origin(map(item, value))
        return items
    if hint not in (str, int, float, bool, dict):
        raise TypeError(f"no decoder for {hint!r}")

    def leaf(value):
        if type(value) is not hint:
            raise TypeError(f"not a {hint.__name__}: {value!r:.80}")
        return value
    return leaf


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
        # version=4 stamps the version 4 / variant 10 bits of a valid UUIDv4
        return str(uuid.UUID(int=(hi << 64) | lo, version=4))
